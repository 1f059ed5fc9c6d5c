package emgo

import (
	"testing"

	"emgo/internal/block"
	"emgo/internal/cluster"
	"emgo/internal/tokenize"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// BenchmarkE11_DeployBuild times packaging the trained workflow as JSON
// and rebuilding it against a table pair (the production cold-start
// path).
func BenchmarkE11_DeployBuild(b *testing.B) {
	w := benchWorld(b)
	spec, err := umetrics.FigureSpec(10).Package(w.fs, w.im, w.matcher)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := spec.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		parsed, err := workflow.ParseSpec(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := parsed.Build(w.proj.UMETRICS, w.proj.USDA, umetrics.DeployTransforms()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA4_ClusterAnalysis times the Section 10 multiplicity analysis
// and cluster construction over a final match set.
func BenchmarkA4_ClusterAnalysis(b *testing.B) {
	w := benchWorld(b)
	sure := w.sure.SureMatches(w.proj.UMETRICS, w.proj.USDA)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Degrees(sure)
		cluster.ConnectedComponents(sure)
		cluster.OneToOne(sure, nil)
	}
}

// BenchmarkBlock_JaccardJoin times the Jaccard similarity join on the
// projected titles.
func BenchmarkBlock_JaccardJoin(b *testing.B) {
	w := benchWorld(b)
	join := block.JaccardJoin{
		LeftCol: "AwardTitle", RightCol: "AwardTitle",
		Tokenizer: tokenize.Word{}, Threshold: 0.6, Normalize: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := join.Block(w.proj.UMETRICS, w.proj.USDA); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlock_SortedNeighborhood times the sorted-neighborhood blocker
// on award numbers.
func BenchmarkBlock_SortedNeighborhood(b *testing.B) {
	w := benchWorld(b)
	sn := block.SortedNeighborhood{LeftCol: "AwardNumber", RightCol: "AwardNumber", Window: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sn.Block(w.proj.UMETRICS, w.proj.USDA); err != nil {
			b.Fatal(err)
		}
	}
}
