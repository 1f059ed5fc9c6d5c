package rules

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"emgo/internal/block"
	"emgo/internal/table"
)

// naiveHits is the reference SureHitsCtx must agree with: every pair of
// the Cartesian product through JudgeWithRule, row-major.
func naiveHits(e *Engine, left, right *table.Table) []Hit {
	var out []Hit
	for i := 0; i < left.Len(); i++ {
		for j := 0; j < right.Len(); j++ {
			if v, name := e.JudgeWithRule(left.Row(i), right.Row(j)); v == Match {
				out = append(out, Hit{Pair: block.Pair{A: i, B: j}, Rule: name})
			}
		}
	}
	return out
}

// keyTables draws two tables of (Num, Alt, Tag) rows from a small key
// alphabet, so keys repeat on both sides and across the two columns,
// with nulls and with values the dropX transform empties.
func keyTables(rng *rand.Rand, nLeft, nRight int) (*table.Table, *table.Table) {
	schema := table.MustSchema(
		table.Field{Name: "Num", Kind: table.String},
		table.Field{Name: "Alt", Kind: table.String},
		table.Field{Name: "Tag", Kind: table.String},
	)
	cellOf := func() table.Value {
		switch r := rng.Intn(10); {
		case r == 0:
			return table.Null(table.String)
		case r == 1:
			return table.S("") // empty before any transform
		case r == 2:
			return table.S("x") // empty after dropX
		default:
			return table.S(fmt.Sprintf("x%d", rng.Intn(6)))
		}
	}
	fill := func(name string, n int) *table.Table {
		t := table.New(name, schema)
		for i := 0; i < n; i++ {
			t.MustAppend(table.Row{cellOf(), cellOf(), table.S(fmt.Sprintf("t%d", rng.Intn(3)))})
		}
		return t
	}
	return fill("L", nLeft), fill("R", nRight)
}

func dropX(s string) string { return strings.TrimPrefix(s, "x") }

// TestSureMatchesEquivalentToNaive: over seeded random tables the keyed
// join and the general scan return exactly the hits of the naive
// JudgeWithRule loop — same pairs, same order, same first-firing rule —
// for a keyable engine and for the engines that must stay on the scan.
func TestSureMatchesEquivalentToNaive(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l, r := keyTables(rng, 5+rng.Intn(30), 5+rng.Intn(30))
		// One pair both M1 and M2 match, whatever the draw.
		l.MustAppend(table.Row{table.S("x7"), table.Null(table.String), table.S("t0")})
		r.MustAppend(table.Row{table.S("x7"), table.S("x7"), table.S("t1")})
		eq := func(name, lc string, lt func(string) string, rc string, rt func(string) string, v Verdict) Rule {
			rule, err := NewEqual(name, l, lc, lt, r, rc, rt, v)
			if err != nil {
				t.Fatal(err)
			}
			return rule
		}
		// Num=Num and Num=Alt overlap: both fire wherever a right row
		// repeats its key in both columns.
		m1 := eq("M1", "Num", dropX, "Num", dropX, Match)
		m2 := eq("M2", "Num", nil, "Alt", nil, Match)
		sameTag := Func{Label: "same-tag", Verdict: Match, Fire: func(a, b table.Row) bool { return a[2].Str() == b[2].Str() && !a[1].IsNull() }}
		engines := map[string]*Engine{
			"keyed":          NewEngine(m1, m2),
			"keyed-reversed": NewEngine(m2, m1),
			"with-func":      NewEngine(m1, sameTag, m2),
			"nonmatch-first": NewEngine(eq("N", "Alt", nil, "Alt", nil, NonMatch), m1, m2),
			"empty":          NewEngine(),
		}
		for name, e := range engines {
			want := naiveHits(e, l, r)
			got, err := e.SureHitsCtx(context.Background(), l, r)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: hits differ from the naive scan\n got %v\nwant %v", seed, name, got, want)
			}
			pairs := make([]block.Pair, len(want))
			for i, h := range want {
				pairs[i] = h.Pair
			}
			if sure := e.SureMatches(l, r).Pairs(); !reflect.DeepEqual(sure, pairs) && len(pairs)+len(sure) > 0 {
				t.Fatalf("seed %d %s: SureMatches pairs %v, want %v", seed, name, sure, pairs)
			}
		}
	}
}

// TestKeyedJoinIndexLifetime: Bind builds the right-side index once —
// counted through the right transform, which only the index build calls —
// and returns a new engine: joins through it over the bound table key
// nothing, while the engine it came from stays plain and keys per call.
// The bound engine answers about its table only: asked about another, it
// returns an error naming both. Add on the plain engine is seen by its
// next join, and a bound engine takes no rule.
func TestKeyedJoinIndexLifetime(t *testing.T) {
	l, r := keyTables(rand.New(rand.NewSource(3)), 20, 20)
	var mu sync.Mutex
	transforms := 0
	counted := func(s string) string {
		mu.Lock()
		transforms++
		mu.Unlock()
		return dropX(s)
	}
	m1, _ := NewEqual("M1", l, "Num", dropX, r, "Num", counted, Match)
	e := NewEngine(m1)
	bound, err := e.Bind(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if transforms == 0 || transforms > r.Len() {
		t.Fatalf("Bind ran the right transform %d times for %d rows", transforms, r.Len())
	}
	built := transforms
	for i := 0; i < 3; i++ {
		bound.SureMatches(l, r)
	}
	if transforms != built {
		t.Fatalf("joins over a bound table ran the right transform %d more times", transforms-built)
	}
	if got, want := e.SureMatches(l, r).Pairs(), bound.SureMatches(l, r).Pairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the plain engine's join %v, the bound one's %v", got, want)
	}
	if transforms != 2*built {
		t.Fatalf("a join of the engine Bind came from ran the right transform %d times, want %d", transforms-built, built)
	}

	other := table.New("other", r.Schema())
	for i := 0; i < r.Len(); i++ {
		other.MustAppend(r.Row(i))
	}
	if _, err := bound.SureHitsCtx(context.Background(), l, other); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("%q", r.Name())) || !strings.Contains(err.Error(), `"other"`) {
		t.Fatalf("bound to %s, asked about other: %v, want an error naming both", r.Name(), err)
	}

	m2, _ := NewEqual("M2", l, "Num", nil, r, "Alt", nil, Match)
	before, _ := e.SureHitsCtx(context.Background(), l, r)
	e.Add(m2)
	after, _ := e.SureHitsCtx(context.Background(), l, r)
	if want := naiveHits(e, l, r); !reflect.DeepEqual(after, want) {
		t.Fatalf("after Add: hits differ from the naive scan")
	}
	if len(after) <= len(before) {
		t.Fatalf("fixture too weak: M2 added no hits (%d then %d)", len(before), len(after))
	}
	if got, _ := bound.SureHitsCtx(context.Background(), l, r); !reflect.DeepEqual(got, before) {
		t.Fatal("Add on the engine Bind came from changed the bound engine's hits")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a bound engine did not panic")
		}
	}()
	bound.Add(m2)
}

// TestSureHitsCtxCancelled: a dead context stops both forms before any
// row is judged.
func TestSureHitsCtxCancelled(t *testing.T) {
	l, r := keyTables(rand.New(rand.NewSource(5)), 10, 10)
	m1, _ := NewEqual("M1", l, "Num", nil, r, "Num", nil, Match)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range []*Engine{NewEngine(m1), NewEngine(m1, Func{Verdict: Match, Fire: func(a, b table.Row) bool { return true }})} {
		if _, err := e.SureHitsCtx(ctx, l, r); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	}
}

// TestKeyedJoinConcurrentCold: callers racing on an engine nobody bound
// each build the keyed join for their call and all see the full answer
// (run under -race).
func TestKeyedJoinConcurrentCold(t *testing.T) {
	l, r := keyTables(rand.New(rand.NewSource(9)), 40, 40)
	m1, _ := NewEqual("M1", l, "Num", dropX, r, "Num", dropX, Match)
	m2, _ := NewEqual("M2", l, "Num", nil, r, "Alt", nil, Match)
	e := NewEngine(m1, m2)
	want := naiveHits(e, l, r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := e.SureHitsCtx(context.Background(), l, r)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent join: err %v, %d hits want %d", err, len(got), len(want))
			}
		}()
	}
	wg.Wait()
}
