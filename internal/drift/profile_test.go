package drift

import (
	"math"
	"math/rand"
	"testing"

	"emgo/internal/obs"
	"emgo/internal/table"
)

func TestReservoirBelowCapKeepsEverything(t *testing.T) {
	r := &reservoir{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		r.observe(float64(i), false, rng)
	}
	s := r.sample()
	if s.Count != 10 || s.Nulls != 0 || len(s.Values) != 10 {
		t.Fatalf("sample = count %d nulls %d values %d, want 10/0/10", s.Count, s.Nulls, len(s.Values))
	}
	for i, v := range s.Values {
		if v != float64(i) {
			t.Fatalf("sorted sample[%d] = %g, want %d", i, v, i)
		}
	}
}

func TestReservoirAboveCapSubsamples(t *testing.T) {
	r := &reservoir{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		r.observe(float64(i), false, rng)
	}
	s := r.sample()
	if len(s.Values) != DefaultSampleCap {
		t.Fatalf("reservoir kept %d values, want cap %d", len(s.Values), DefaultSampleCap)
	}
	if s.Count != 10000 {
		t.Fatalf("Count = %d, want 10000", s.Count)
	}
	// The mean of a uniform sample over 0..9999 should be near 5000.
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	if mean := sum / DefaultSampleCap; mean < 4000 || mean > 6000 {
		t.Fatalf("reservoir mean %g implausible for a uniform subsample of 0..9999", mean)
	}
}

func TestObserveVectorCountsNaNAsNull(t *testing.T) {
	b := NewBuilder()
	b.ObserveVectors([]string{"a", "b"}, [][]float64{{1, math.NaN()}, {2, 5}})
	p := b.Profile("t", 2, 2, nil, nil)
	if len(p.Features) != 2 {
		t.Fatalf("features = %d, want 2", len(p.Features))
	}
	if p.Features[0].Name != "a" || p.Features[1].Name != "b" {
		t.Fatalf("feature names = %q, %q", p.Features[0].Name, p.Features[1].Name)
	}
	if got := p.Features[1].NullRate(); got != 0.5 {
		t.Fatalf("feature b null rate = %g, want 0.5", got)
	}
	if got := p.Features[0].NullRate(); got != 0 {
		t.Fatalf("feature a null rate = %g, want 0", got)
	}
}

func TestObservePredictionMatchRate(t *testing.T) {
	b := NewBuilder()
	b.CountPredictions(3, 2)
	b.ObserveScore(0.9)
	b.ObserveScore(0.2)
	p := b.Profile("t", 0, 0, nil, nil)
	if p.Predicted != 3 || p.PredictedMatches != 2 {
		t.Fatalf("predicted %d matches %d, want 3/2", p.Predicted, p.PredictedMatches)
	}
	if got := p.MatchRate(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("match rate = %g, want 2/3", got)
	}
	if len(p.Scores.Values) != 2 {
		t.Fatalf("scores reservoir has %d values, want the 2 scores observed", len(p.Scores.Values))
	}
}

func TestObserveTableProfilesStringColumns(t *testing.T) {
	tab := table.New("L", table.MustSchema(
		table.Field{Name: "ID", Kind: table.Int},
		table.Field{Name: "Title", Kind: table.String},
	))
	tab.MustAppend(table.Row{table.I(1), table.S("corn fungicide guidelines")})
	tab.MustAppend(table.Row{table.I(2), table.S("swamp dodder")})
	tab.MustAppend(table.Row{table.I(3), table.Null(table.String)})

	cols := NewBuilder().ObserveTable("left", tab)
	if len(cols) != 1 {
		t.Fatalf("profiled %d columns, want 1 (only the string column)", len(cols))
	}
	cp := cols[0]
	if cp.Side != "left" || cp.Column != "Title" {
		t.Fatalf("column profile = %s.%s, want left.Title", cp.Side, cp.Column)
	}
	if cp.Tokens.Count != 3 || cp.Tokens.Nulls != 1 {
		t.Fatalf("tokens count/nulls = %d/%d, want 3/1", cp.Tokens.Count, cp.Tokens.Nulls)
	}
	// Sorted token counts of the two non-null titles: 2 and 3 words.
	if len(cp.Tokens.Values) != 2 || cp.Tokens.Values[0] != 2 || cp.Tokens.Values[1] != 3 {
		t.Fatalf("token samples = %v, want [2 3]", cp.Tokens.Values)
	}
}

func TestProfileCoverageAndRoundTrip(t *testing.T) {
	b := NewBuilder()
	b.ObserveVectors([]string{"a"}, [][]float64{{0.5}})
	p := b.Profile("wf", 4, 9, []int{3, 0, 1, 2}, nil)
	if p.LeftRows != 4 || p.RightRows != 9 {
		t.Fatalf("rows = %d/%d, want 4/9", p.LeftRows, p.RightRows)
	}
	if p.Coverage != 0.75 {
		t.Fatalf("coverage = %g, want 0.75 (3 of 4 rows have candidates)", p.Coverage)
	}

	// The profile travels in a capture run's report, which is the baseline.
	qd, err := CaptureQuality(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := (&obs.Report{Name: "wf", Quality: qd}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProfileFromQuality(rep.Quality)
	if err != nil {
		t.Fatalf("ProfileFromQuality: %v", err)
	}
	if got.Version != profileVersion || got.Name != "wf" || got.Coverage != 0.75 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	if len(got.CandidatesPerRow.Values) != 4 {
		t.Fatalf("candidates-per-row reservoir lost values: %v", got.CandidatesPerRow.Values)
	}
}

func TestParseProfileRejectsWrongVersion(t *testing.T) {
	if _, err := ParseProfile([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("ParseProfile accepted an unknown version")
	}
}

func TestIdenticalRunsProduceDriftFreeProfiles(t *testing.T) {
	// The property TestSmoke/monitor relies on: two runs over the same data
	// (below the sample cap) yield profiles that score zero drift, even
	// when observation order differs.
	build := func(perm []int) *Profile {
		b := NewBuilder()
		var x [][]float64
		for _, i := range perm {
			x = append(x, []float64{float64(i) * 0.1, float64(i * i)})
			b.ObserveScore(float64(i) / 100)
		}
		b.ObserveVectors([]string{"a", "b"}, x)
		b.CountPredictions(len(perm), len(perm)/3)
		return b.Profile("wf", 100, 100, []int{1, 2, 0, 4}, nil)
	}
	order1 := make([]int, 100)
	order2 := make([]int, 100)
	for i := range order1 {
		order1[i] = i
		order2[len(order2)-1-i] = i
	}
	a := build(order1)
	b := build(order2)
	asmt, err := Evaluate(a, b, Thresholds{})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if asmt.Verdict != StatusOK {
		t.Fatalf("identical runs scored verdict %q, want ok: %+v", asmt.Verdict, asmt.Signals)
	}
	for _, s := range asmt.Signals {
		if s.Value != 0 {
			t.Fatalf("signal %s = %g on identical data, want 0", s.Name, s.Value)
		}
	}
}
