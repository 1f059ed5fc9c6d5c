package workflow

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/feature"
	"emgo/internal/leakcheck"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// refCounter counts the reference-table work a deployment does: the
// reference titles its word tokenizer is handed (every right title carries
// the marker word "usda", no left title does) and the reference keys its
// right transform is handed. It is used by pointer, so the blockers holding
// it are over one token form.
type refCounter struct{ titles, keys atomic.Int64 }

func (c *refCounter) Tokens(s string) []string {
	if strings.Contains(s, "usda") {
		c.titles.Add(1)
	}
	return tokenize.Word{}.Tokens(s)
}

func (c *refCounter) Name() string { return "ref_counter" }

func (c *refCounter) key(s string) string {
	c.keys.Add(1)
	return strings.ToUpper(s)
}

// deployTransforms are the transforms deploySpec names, none counted.
var deployTransforms = Transforms{"key": strings.ToUpper, "ref_key": strings.ToUpper}

// deployTables builds a reference table of n rows and k fresh left slices
// of m rows. Left row j of slice s is reference row (s·m + j)·7 mod n's
// title without the marker word, and every third carries that row's number
// in lower case — a sure match under the upper-casing key.
func deployTables(n, k, m int) (right *table.Table, lefts []*table.Table) {
	schema := table.MustSchema(
		table.Field{Name: "Num", Kind: table.String},
		table.Field{Name: "Title", Kind: table.String})
	words := []string{"corn", "soy", "dairy", "rust", "blight", "soil", "weed", "farm", "north", "central", "cattle", "carrot"}
	title := func(i int) string {
		return strings.Join([]string{words[i%12], words[(i/12)%12], words[(i/144)%12], "study"}, " ")
	}
	right = table.New("R", schema)
	for i := 0; i < n; i++ {
		right.MustAppend(table.Row{table.S(fmt.Sprintf("N%04d", i)), table.S(title(i) + " usda")})
	}
	for s := 0; s < k; s++ {
		left := table.New(fmt.Sprintf("L%d", s), schema)
		for j := 0; j < m; j++ {
			i := (s*m + j) * 7 % n
			num := table.Null(table.String)
			if j%3 == 0 {
				num = table.S(fmt.Sprintf("n%04d", i))
			}
			left.MustAppend(table.Row{num, table.S(title(i))})
		}
		lefts = append(lefts, left)
	}
	return right, lefts
}

// deploySpec packages the deployed pipeline's shape over the tables: a
// keyed sure rule and key blocker, the two title blockers, and a tree over
// the generated title features, trained on left's rows against their own
// reference rows and their neighbours.
func deploySpec(t *testing.T, left, right *table.Table) *Spec {
	t.Helper()
	fs, err := feature.Generate(left, right, map[string]string{"Title": "Title"}, []string{"Title"})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []block.Pair
	var y []int
	for j := 0; j < left.Len(); j++ {
		i := j * 7 % right.Len()
		pairs = append(pairs, block.Pair{A: j, B: i}, block.Pair{A: j, B: (i + 1) % right.Len()})
		y = append(y, 1, 0)
	}
	x, err := fs.Vectorize(left, right, pairs)
	if err != nil {
		t.Fatal(err)
	}
	im, err := feature.FitImputer(x)
	if err != nil {
		t.Fatal(err)
	}
	if x, err = im.Transform(x); err != nil {
		t.Fatal(err)
	}
	ds, err := ml.NewDataset(fs.Names(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	tree := &ml.DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	ms, err := ml.ExportMatcher(tree)
	if err != nil {
		t.Fatal(err)
	}
	descs, err := fs.Descriptors()
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		Name: "deployment",
		Blockers: []BlockerSpec{
			{Type: "attr_equiv", LeftCol: "Num", RightCol: "Num", LeftTransform: "key", RightTransform: "ref_key"},
			{Type: "overlap", LeftCol: "Title", RightCol: "Title", Tokenizer: "word", Threshold: 3, Normalize: true},
			{Type: "overlap_coeff", LeftCol: "Title", RightCol: "Title", Tokenizer: "word", Coefficient: 0.7, Normalize: true},
		},
		SureRules: []RuleSpec{
			{Type: "equal", Name: "num", LeftCol: "Num", RightCol: "Num", LeftTransform: "key", RightTransform: "ref_key", Verdict: "match"},
		},
		Features:     descs,
		ImputerMeans: im.Means(),
		Matcher:      ms,
	}
}

// builtRun is what Build + RunCtx give on left: the final pairs.
func builtRun(t *testing.T, spec *Spec, left, right *table.Table) []block.Pair {
	t.Helper()
	w, err := spec.Build(left, right, deployTransforms)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunCtx(context.Background(), left, right, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Final.Sorted()
}

// TestDeploymentPreparesRightTableOnce: Build prepares nothing from the
// reference table; Deploy prepares all of it — each reference title
// tokenised once for the column the two title blockers share, each
// reference key transformed once per key index (the sure rule's and the key
// blocker's), the set's cells bound, a bind failure returned — and a run
// over a fresh left slice then prepares no reference cell, its final
// matches those Build + RunCtx give on the slice. Deploy binds copies:
// a run of the workflow it came from still prepares the reference table
// for itself.
func TestDeploymentPreparesRightTableOnce(t *testing.T) {
	leakcheck.Check(t)
	defer fault.Reset()
	ctx := context.Background()
	right, lefts := deployTables(240, 3, 30)
	spec := deploySpec(t, lefts[0], right)

	plain, err := spec.Build(lefts[0], right, deployTransforms)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable("feature.bind", fault.Plan{})
	_, err = plain.Deploy(ctx, plain.Matcher, right)
	fault.Reset()
	if err == nil || !strings.Contains(err.Error(), "bind feature cells") {
		t.Fatalf("Deploy with a failing feature bind: %v, want the bind's error", err)
	}

	c := &refCounter{}
	w, err := spec.Build(lefts[0], right, Transforms{"key": strings.ToUpper, "ref_key": c.key})
	if err != nil {
		t.Fatal(err)
	}
	// The spec's title blockers, over the counting tokenizer: the same tokens.
	w.Blockers = []block.Blocker{w.Blockers[0],
		block.Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: c, Threshold: 3, Normalize: true},
		block.OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: c, Threshold: 0.7, Normalize: true},
	}
	if titles, keys := c.titles.Load(), c.keys.Load(); titles != 0 || keys != 0 {
		t.Fatalf("Build tokenised %d reference titles and keyed %d reference rows; it binds nothing", titles, keys)
	}
	d, err := w.Deploy(ctx, w.Matcher, right)
	if err != nil {
		t.Fatal(err)
	}
	if titles, keys := c.titles.Load(), c.keys.Load(); titles != int64(right.Len()) || keys != 2*int64(right.Len()) {
		t.Fatalf("Deploy tokenised %d reference titles and keyed %d reference rows, want %d and %d",
			titles, keys, right.Len(), 2*right.Len())
	}

	learned, sure := 0, 0
	for _, left := range lefts[1:] {
		res, err := d.RunCtx(ctx, left, right, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if titles, keys := c.titles.Load(), c.keys.Load(); titles != int64(right.Len()) || keys != 2*int64(right.Len()) {
			t.Fatalf("a run over %s tokenised %d reference titles and keyed %d reference rows", left.Name(),
				titles-int64(right.Len()), keys-2*int64(right.Len()))
		}
		if got, want := res.Final.Sorted(), builtRun(t, spec, left, right); !slices.Equal(got, want) {
			t.Fatalf("%s: the deployment's final %v, Build + RunCtx's %v", left.Name(), got, want)
		}
		learned, sure = learned+res.Learned.Len(), sure+res.Sure.Len()
	}
	if learned == 0 || sure == 0 {
		t.Fatalf("fixture: %d learned and %d sure matches; the comparison needs both", learned, sure)
	}

	titles, keys := c.titles.Load(), c.keys.Load()
	if _, err := w.RunCtx(ctx, lefts[1], right, RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if titles, keys := c.titles.Load()-titles, c.keys.Load()-keys; titles != int64(right.Len()) || keys != 2*int64(right.Len()) {
		t.Fatalf("a run of the workflow Deploy came from tokenised %d reference titles and keyed %d reference rows, want %d and %d",
			titles, keys, right.Len(), 2*right.Len())
	}
}

// TestDeploymentConcurrentRuns: goroutines running one deployment over
// different left slices at once each get, slice by slice, the final
// matches a serial run gets (make race-cpu runs this at 1 and 2 CPUs).
func TestDeploymentConcurrentRuns(t *testing.T) {
	leakcheck.Check(t)
	ctx := context.Background()
	right, lefts := deployTables(240, 6, 30)
	spec := deploySpec(t, lefts[0], right)
	w, err := spec.Build(lefts[0], right, deployTransforms)
	if err != nil {
		t.Fatal(err)
	}
	d, err := w.Deploy(ctx, w.Matcher, right)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]block.Pair, len(lefts))
	for k, left := range lefts {
		res, err := d.RunCtx(ctx, left, right, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res.Final.Sorted()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range lefts {
				k := (n + g) % len(lefts)
				res, err := d.RunCtx(ctx, lefts[k], right, RunOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Final.Sorted(); !slices.Equal(got, want[k]) {
					t.Errorf("goroutine %d, %s: final %v, serially %v", g, lefts[k].Name(), got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDeploymentSharesColumnsWithBlockers: Deploy tokenises each reference
// title once for the normalising title blockers and the lower-case title
// feature both — block.cells_tokenised counts the cells every column
// build tokenises — while a feature under another form, the unfolded
// jaccard_word, still gets a column of its own; a run of the deployment
// tokenises no reference cell, and its final matches are those Build +
// RunCtx give, run after run and from goroutines running at once (make
// race-cpu runs this at 1 and 2 CPUs).
func TestDeploymentSharesColumnsWithBlockers(t *testing.T) {
	ctx := context.Background()
	right, lefts := deployTables(240, 2, 30)
	fs := &feature.Set{}
	for _, key := range []string{"jaccard_word_lower", "jaccard_word"} {
		f, err := feature.New("Title", "Title", key)
		if err != nil {
			t.Fatal(err)
		}
		if err := fs.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	descs, err := fs.Descriptors()
	if err != nil {
		t.Fatal(err)
	}
	leaf := func(label int) *ml.NodeSpec { return &ml.NodeSpec{Leaf: true, Label: label, Proba: float64(label)} }
	// A match is a pair over 0.7 on the lower-case feature and, when the
	// tree reads it, on the unfolded one.
	lowerOnly := &ml.NodeSpec{Feature: 0, Threshold: 0.7, Left: leaf(0), Right: leaf(1)}
	both := &ml.NodeSpec{Feature: 0, Threshold: 0.7, Left: leaf(0),
		Right: &ml.NodeSpec{Feature: 1, Threshold: 0.7, Left: leaf(0), Right: leaf(1)}}

	cells := obs.Enable().Counter("block.cells_tokenised")
	defer obs.Disable()
	for _, c := range []struct {
		name    string
		root    *ml.NodeSpec
		columns int // reference columns Deploy tokenises
	}{
		{"lower only", lowerOnly, 1},
		{"lower and unfolded", both, 2},
	} {
		spec := &Spec{
			Name: "shared",
			Blockers: []BlockerSpec{
				{Type: "overlap", LeftCol: "Title", RightCol: "Title", Tokenizer: "word", Threshold: 3, Normalize: true},
				{Type: "overlap_coeff", LeftCol: "Title", RightCol: "Title", Tokenizer: "word", Coefficient: 0.7, Normalize: true},
			},
			Features:     descs,
			ImputerMeans: []float64{0, 0},
			Matcher:      &ml.MatcherSpec{Kind: "decision_tree", Tree: &ml.TreeSpec{Features: fs.Names(), Root: c.root}},
		}
		w, err := spec.Build(lefts[0], right, deployTransforms)
		if err != nil {
			t.Fatal(err)
		}
		before := cells.Value()
		d, err := w.Deploy(ctx, w.Matcher, right)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := cells.Value()-before, int64(c.columns*right.Len()); got != want {
			t.Fatalf("%s: Deploy tokenised %d reference cells, want %d: %d column(s) of %d rows", c.name, got, want, c.columns, right.Len())
		}
		learned, want := 0, make([][]block.Pair, len(lefts))
		for k, left := range lefts {
			before := cells.Value()
			res, err := d.RunCtx(ctx, left, right, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if n := cells.Value() - before; n != 0 {
				t.Fatalf("%s: a run over %s tokenised %d reference cells", c.name, left.Name(), n)
			}
			if want[k] = builtRun(t, spec, left, right); !slices.Equal(res.Final.Sorted(), want[k]) {
				t.Fatalf("%s, %s: the deployment's final %v, Build + RunCtx's %v", c.name, left.Name(), res.Final.Sorted(), want[k])
			}
			learned += res.Learned.Len()
		}
		if learned == 0 {
			t.Fatalf("%s: fixture: no learned matches to compare", c.name)
		}
		var wg sync.WaitGroup
		for k, left := range lefts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := d.RunCtx(ctx, left, right, RunOptions{})
				if err != nil {
					t.Error(err)
				} else if got := res.Final.Sorted(); !slices.Equal(got, want[k]) {
					t.Errorf("%s, %s at once: final %v, serially %v", c.name, left.Name(), got, want[k])
				}
			}()
		}
		wg.Wait()
	}
}
