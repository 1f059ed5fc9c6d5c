package block

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"emgo/internal/table"
	"emgo/internal/tokenize"
)

// sideCounter is a word tokenizer counting the cells it is handed, right
// cells (every right title of figure10Tables names "usda") apart from the
// rest. It is used by pointer, so blockers holding the same counter are
// over the same token form.
type sideCounter struct{ right, other atomic.Int64 }

func (c *sideCounter) Tokens(s string) []string {
	if strings.Contains(s, "usda") {
		c.right.Add(1)
	} else {
		c.other.Add(1)
	}
	return tokenize.Word{}.Tokens(s)
}

func (c *sideCounter) Name() string { return "side_counter" }

// figure10Tables builds Num/Title tables whose row i titles agree on four
// words; right titles also carry the marker word "usda".
func figure10Tables(nl, nr int) (*table.Table, *table.Table) {
	schema := table.MustSchema(
		table.Field{Name: "Num", Kind: table.String},
		table.Field{Name: "Title", Kind: table.String})
	words := []string{"corn", "soy", "dairy", "rust", "blight", "soil", "weed", "farm", "north", "central"}
	title := func(i int) string {
		return strings.Join([]string{words[i%10], words[(i/10)%10], words[(i/100)%10], "study"}, " ")
	}
	l, r := table.New("L", schema), table.New("R", schema)
	for i := 0; i < nl; i++ {
		l.MustAppend(table.Row{table.S("N" + title(i)), table.S(title(i))})
	}
	for i := 0; i < nr; i++ {
		r.MustAppend(table.Row{table.S("N" + title(i)), table.S(title(i) + " usda")})
	}
	return l, r
}

// figure10 is the deployed blocking pipeline's shape: the key blocker and
// the two title blockers, both title blockers over tok.
func figure10(tok tokenize.Tokenizer) []Blocker {
	return []Blocker{
		AttrEquiv{LeftCol: "Num", RightCol: "Num"},
		Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tok, Threshold: 3, Normalize: true},
		OverlapCoefficient{LeftCol: "Title", RightCol: "Title", Tokenizer: tok, Threshold: 0.7, Normalize: true},
	}
}

// TestUnionTokenisesEachCellOnce: the two title blockers of one union
// share a column and a count pass, so a union nobody bound tokenises every
// right title once and every left title once; bound, it tokenises no right
// title at all.
func TestUnionTokenisesEachCellOnce(t *testing.T) {
	l, r := figure10Tables(50, 120)
	tok := &sideCounter{}
	want, err := UnionBlockCtx(context.Background(), l, r, figure10(tokenize.Word{})...)
	if err != nil || want.Len() == 0 {
		t.Fatalf("fixture: %d pairs, %v", want.Len(), err)
	}

	got, err := UnionBlockCtx(context.Background(), l, r, figure10(tok)...)
	if err != nil || !slices.Equal(got.Pairs(), want.Pairs()) {
		t.Fatalf("counting union differs: %v", err)
	}
	if right, left := tok.right.Load(), tok.other.Load(); right != int64(r.Len()) || left != int64(l.Len()) {
		t.Fatalf("unbound union tokenised %d right and %d left cells, want %d and %d", right, left, r.Len(), l.Len())
	}

	bound := mustBind(t, r, figure10(tok)...)
	if right := tok.right.Load(); right != 2*int64(r.Len()) {
		t.Fatalf("Bind tokenised %d right cells, want %d", right-int64(r.Len()), r.Len())
	}
	for n := 0; n < 3; n++ {
		got, err = UnionBlockCtx(context.Background(), l, r, bound...)
		if err != nil || !slices.Equal(got.Pairs(), want.Pairs()) {
			t.Fatalf("bound union differs: %v", err)
		}
	}
	if right, left := tok.right.Load(), tok.other.Load(); right != 2*int64(r.Len()) || left != 4*int64(l.Len()) {
		t.Fatalf("three bound unions tokenised %d right and %d left cells, want 0 and %d", right-2*int64(r.Len()), left-int64(l.Len()), 3*l.Len())
	}
}

// TestBoundBlockersAnswerAboutOneTable: blockers bound to one right
// table and asked about another — one by one or in a union — return an
// error naming both tables, where the same blockers unbound block it.
func TestBoundBlockersAnswerAboutOneTable(t *testing.T) {
	l, r := figure10Tables(20, 30)
	_, more := figure10Tables(20, 40)
	other := table.New("other", r.Schema())
	for i := 0; i < more.Len(); i++ {
		other.MustAppend(more.Row(i))
	}
	bound := mustBind(t, r, figure10(tokenize.Word{})...)
	for _, b := range bound {
		if _, err := b.Block(context.Background(), l, other); !namesBoth(err, r, other) {
			t.Errorf("%s bound to %s, asked about %s: %v, want an error naming both", b.Name(), r.Name(), other.Name(), err)
		}
	}
	if _, err := UnionBlockCtx(context.Background(), l, other, bound...); !namesBoth(err, r, other) {
		t.Errorf("union of blockers bound to %s, asked about %s: %v, want an error naming both", r.Name(), other.Name(), err)
	}
	if c, err := UnionBlockCtx(context.Background(), l, other, figure10(tokenize.Word{})...); err != nil {
		t.Fatalf("the unbound union over %s: %v", other.Name(), err)
	} else if c.Len() == 0 {
		t.Fatalf("fixture: the unbound union blocks no pair of %s", other.Name())
	}
}

// TestAdmissionMatchesPredicate: a blocker's admission row is its
// predicate — inter ≥ need[lb] exactly when keep(inter, la, lb) — for
// every cell size up to 64 and every count, at thresholds where t·m lands
// on, just past and well away from an integer; and every keep is monotone
// in the count, which is what makes a row of least counts possible.
func TestAdmissionMatchesPredicate(t *testing.T) {
	const most = 64
	var blockers []tokenBlocker
	for k := 1; k <= 6; k++ {
		blockers = append(blockers, Overlap{Tokenizer: tokenize.Word{}, Threshold: k})
	}
	for _, th := range []float64{0.07, 1.0 / 3, 0.4, 0.5, 0.7, 1.0} {
		blockers = append(blockers,
			OverlapCoefficient{Tokenizer: tokenize.Word{}, Threshold: th},
			JaccardJoin{Tokenizer: tokenize.Word{}, Threshold: th})
	}
	// ceilWrong counts the cells where the closed form ceil(t·min(la, lb))
	// disagrees with a float predicate's own comparison: the grid has to
	// contain some for this test to catch that form.
	ceilWrong := 0
	for _, b := range blockers {
		j, err := b.join()
		if err != nil {
			t.Fatal(err)
		}
		th := math.NaN()
		switch b := b.(type) {
		case OverlapCoefficient:
			th = b.Threshold
		case JaccardJoin:
			th = b.Threshold
		}
		for la := 0; la <= most; la++ {
			need := admission(j.keep, la, most+1, nil)
			for lb := 0; lb <= most; lb++ {
				m := min(la, lb)
				for inter := 0; inter <= m; inter++ {
					keep := j.keep(inter, la, lb)
					if inter < m && keep && !j.keep(inter+1, la, lb) {
						t.Fatalf("%s: keep(%d, %d, %d) but not keep(%d, …): not monotone", b.Name(), inter, la, lb, inter+1)
					}
					if got := int32(inter) >= need[lb]; got != keep {
						t.Fatalf("%s: la=%d lb=%d inter=%d: admitted %v, keep says %v (need %d)", b.Name(), la, lb, inter, got, keep, need[lb])
					}
					if !math.IsNaN(th) && (inter >= int(math.Ceil(th*float64(m)))) != keep {
						ceilWrong++
					}
				}
			}
		}
	}
	if ceilWrong == 0 {
		t.Fatal("no cell where ceil(t·m) and the predicate disagree: the grid cannot catch a closed form")
	}
	// PR 17's case, past the grid: 7 of 100 tokens is a coefficient of
	// exactly 0.07, though 0.07·100 rounds up to 7.000000000000001.
	j, _ := OverlapCoefficient{Tokenizer: tokenize.Word{}, Threshold: 0.07}.join()
	if need := admission(j.keep, 100, 101, nil); need[100] != 7 {
		t.Fatalf("overlap coefficient 0.07 at 100 tokens a side needs %d shared, want 7", need[100])
	}
}

// TestBoundProbeAllocsIndependentOfRightTable: what one bound single-row
// request allocates does not grow with the right table — the probe's
// per-row counts come from the column's free list. The doubled table adds rows
// the request shares no token with, so the answer is the same.
func TestBoundProbeAllocsIndependentOfRightTable(t *testing.T) {
	l, small := figure10Tables(8, 1915)
	big := table.New("R", small.Schema())
	for i := 0; i < small.Len(); i++ {
		big.MustAppend(small.Row(i))
	}
	for i := 0; i < small.Len(); i++ {
		big.MustAppend(table.Row{table.S(fmt.Sprintf("X%d", i)), table.S(fmt.Sprintf("filler%d other%d", i, i))})
	}
	request := table.New("request", l.Schema())
	request.MustAppend(l.Row(7))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// bytes is the median of a single request's allocation over many.
	bytes := func(right *table.Table) (uint64, []Pair) {
		bound := mustBind(t, right, figure10(tokenize.Word{})...)
		var per []uint64
		var pairs []Pair
		var before, after runtime.MemStats
		for n := 0; n < 101; n++ {
			runtime.ReadMemStats(&before)
			c, err := UnionBlockCtx(context.Background(), request, right, bound...)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			per, pairs = append(per, after.TotalAlloc-before.TotalAlloc), c.Pairs()
		}
		slices.Sort(per)
		return per[len(per)/2], pairs
	}
	a, pa := bytes(small)
	b, pb := bytes(big)
	if !slices.Equal(pa, pb) || len(pa) == 0 {
		t.Fatalf("fixture: the request blocks %v against %d rows, %v against %d", pa, small.Len(), pb, big.Len())
	}
	if diff := int64(b) - int64(a); diff >= 1024 || diff <= -1024 {
		t.Fatalf("a bound request allocates %d B against %d right rows and %d B against %d", a, small.Len(), b, big.Len())
	}
}

// TestBoundProbeSurvivesCollections: a bound single-row request after two
// collections — enough to empty a sync.Pool, victim cache and all —
// allocates no more than a warm one: the column's probe scratch waits in
// its free list, which a collection leaves alone.
func TestBoundProbeSurvivesCollections(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	l, r := figure10Tables(8, 1915)
	request := table.New("request", l.Schema())
	request.MustAppend(l.Row(7))
	bound := mustBind(t, r, figure10(tokenize.Word{})...)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mallocs := func(collect bool) uint64 {
		if collect {
			runtime.GC()
			runtime.GC()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := UnionBlockCtx(context.Background(), request, r, bound...)
		runtime.ReadMemStats(&after)
		if err != nil || c.Len() == 0 {
			t.Fatalf("fixture: the request blocks %v, %v", c, err)
		}
		return after.Mallocs - before.Mallocs
	}
	for range 3 {
		mallocs(false)
	}
	warm := mallocs(false)
	if after := mallocs(true); after > warm {
		t.Fatalf("a bound probe after two collections allocates %d times, a warm one %d", after, warm)
	}
}

// TestBoundProbeConcurrent: goroutines sharing one bound blocker set — its
// column and its free list of probe scratch — each get the answers a serial
// caller gets, request by request (run under -race -cpu 1,2). A scratch
// used after it went back to the free list races only when a later taker
// really does run at once, so make race-cpu runs this ten times over.
func TestBoundProbeConcurrent(t *testing.T) {
	l, r := figure10Tables(60, 300)
	bound := mustBind(t, r, figure10(tokenize.Word{})...)
	requests := make([]*table.Table, l.Len())
	want := make([][]Pair, l.Len())
	for i := range requests {
		requests[i] = table.New("request", l.Schema())
		requests[i].MustAppend(l.Row(i))
		c, err := UnionBlockCtx(context.Background(), requests[i], r, bound...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c.Pairs()
	}
	whole, err := UnionBlockCtx(context.Background(), l, r, bound...)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range requests {
				i := (n*7 + g) % len(requests)
				c, err := UnionBlockCtx(context.Background(), requests[i], r, bound...)
				if err != nil || !slices.Equal(c.Pairs(), want[i]) {
					t.Errorf("goroutine %d, request %d: %v, want %v (err %v)", g, i, c.Pairs(), want[i], err)
					return
				}
			}
			if c, err := UnionBlockCtx(context.Background(), l, r, bound...); err != nil || !slices.Equal(c.Pairs(), whole.Pairs()) {
				t.Errorf("goroutine %d: the whole left table's pairs differ (err %v)", g, err)
			}
		}(g)
	}
	wg.Wait()
}

// mustBind is Bind for a fixture that binds: an error fails t.
func mustBind(t testing.TB, right *table.Table, blockers ...Blocker) []Blocker {
	t.Helper()
	bound, err := Bind(context.Background(), right, blockers...)
	if err != nil {
		t.Fatal(err)
	}
	return bound
}

// TestBindLeavesTheRestAlone: a blocker with nothing to prepare comes back
// from Bind as it went in; one that cannot run — no tokenizer, no threshold,
// a right column the table lacks — fails Bind with the error, naming the
// blocker, that a union of it reports.
func TestBindLeavesTheRestAlone(t *testing.T) {
	l, r := figure10Tables(5, 5)
	all := Func{Label: "all", Keep: func(left, right table.Row) bool { return true }}
	bound := mustBind(t, r, all)
	if c, err := bound[0].Block(context.Background(), l, r); err != nil || c.Len() != 25 {
		t.Fatalf("func blocker through Bind: %v", err)
	}
	for _, b := range []Blocker{
		Overlap{LeftCol: "Title", RightCol: "Title", Threshold: 1},
		Overlap{LeftCol: "Title", RightCol: "Title", Tokenizer: tokenize.Word{}},
		Overlap{LeftCol: "Title", RightCol: "Nope", Tokenizer: tokenize.Word{}, Threshold: 1},
		AttrEquiv{LeftCol: "Num", RightCol: "Nope"},
	} {
		_, err := Bind(context.Background(), r, all, b)
		if err == nil || !strings.Contains(err.Error(), b.Name()) {
			t.Errorf("%s: Bind returned %v, want the blocker's error", b.Name(), err)
			continue
		}
		_, blockErr := UnionBlockCtx(context.Background(), l, r, b)
		if blockErr == nil || blockErr.Error() != err.Error() {
			t.Errorf("%s: Bind says %v, Block %v", b.Name(), err, blockErr)
		}
	}
}
