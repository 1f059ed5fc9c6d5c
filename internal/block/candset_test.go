package block

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// modelSet is the candidate set as it was before it lost its map — an
// insertion-ordered slice beside a map for membership — kept as the
// oracle the slice-only set is held to.
type modelSet struct {
	pairs []Pair
	seen  map[Pair]struct{}
}

func newModelSet() *modelSet { return &modelSet{seen: map[Pair]struct{}{}} }

func (m *modelSet) add(p Pair) bool {
	if _, dup := m.seen[p]; dup {
		return false
	}
	m.seen[p] = struct{}{}
	m.pairs = append(m.pairs, p)
	return true
}

func (m *modelSet) contains(p Pair) bool {
	_, ok := m.seen[p]
	return ok
}

func (m *modelSet) filter(keep func(Pair) bool) *modelSet {
	out := newModelSet()
	for _, p := range m.pairs {
		if keep(p) {
			out.add(p)
		}
	}
	return out
}

func (m *modelSet) union(o *modelSet) *modelSet {
	out := m.filter(func(Pair) bool { return true })
	for _, p := range o.pairs {
		out.add(p)
	}
	return out
}

// TestCandidateSetMatchesModel runs seeded random sequences of adds —
// ascending, out of order, duplicate — set algebra, decoding and
// membership questions against the set and the model side by side, and
// asks for the same pair sequences and the same answers throughout.
func TestCandidateSetMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkCandidateSetModel(t, fmt.Sprintf("seed %d", seed), 150, rng.Intn)
	}
}

// FuzzCandidateSetAlgebra is checkCandidateSetModel driven by arbitrary
// bytes: each byte is one choice — an operation, an operand, a pair, a
// question — and choices past the end are 0.
func FuzzCandidateSetAlgebra(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, choices []byte) {
		intn := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			c := int(choices[0])
			choices = choices[1:]
			return c % n
		}
		checkCandidateSetModel(t, "fuzz", 60, intn)
	})
}

// checkCandidateSetModel runs steps operations, chosen by intn, on three
// sets and three models side by side. Besides single adds, an operand may
// be rebuilt as concatenated ascending runs — the shape of a union — and
// every step asks each set about a run of pairs through one cursor, in an
// order that walks forward, jumps far ahead and steps back.
func checkCandidateSetModel(t *testing.T, label string, steps int, intn func(int) int) {
	t.Helper()
	const n = 12 // rows a side: small, so pairs collide
	l, r := figure10Tables(n, n)
	keepOdd := func(p Pair) bool { return (p.A+p.B)%3 != 0 }
	randPair := func() Pair { return Pair{A: intn(n), B: intn(n)} }
	// after returns a pair after p, a step or two on, or a row on; it
	// wraps to the first pair past the last.
	after := func(p Pair) Pair {
		if p.B += 1 + intn(2); p.B >= n || intn(3) == 0 {
			p = Pair{A: p.A + 1, B: intn(n)}
		}
		if p.A >= n {
			return Pair{}
		}
		return p
	}
	sets := []*CandidateSet{NewCandidateSet(l, r), NewCandidateSet(l, r), NewCandidateSet(l, r)}
	models := []*modelSet{newModelSet(), newModelSet(), newModelSet()}
	for step := 0; step < steps; step++ {
		i, j := intn(len(sets)), intn(len(sets))
		c, m := sets[i], models[i]
		switch op := intn(11); op {
		case 0, 1, 2: // ascending, while there is room after the last pair
			p := randPair()
			if last := len(m.pairs) - 1; last >= 0 {
				q := m.pairs[last]
				p = Pair{A: q.A, B: q.B + 1 + intn(2)}
				if p.B >= n || intn(3) == 0 {
					p = Pair{A: min(q.A+1, n-1), B: intn(n)}
				}
			}
			if got, want := c.Add(p), m.add(p); got != want {
				t.Fatalf("%s step %d: Add(%v) ascending = %v, want %v", label, step, p, got, want)
			}
		case 3: // anywhere
			p := randPair()
			if got, want := c.Add(p), m.add(p); got != want {
				t.Fatalf("%s step %d: Add(%v) = %v, want %v", label, step, p, got, want)
			}
		case 4: // a duplicate
			if len(m.pairs) > 0 {
				p := m.pairs[intn(len(m.pairs))]
				if c.Add(p) || m.add(p) {
					t.Fatalf("%s step %d: duplicate Add(%v) reported new", label, step, p)
				}
			}
		case 5:
			u, err := c.Union(sets[j])
			if err != nil {
				t.Fatal(err)
			}
			sets[i], models[i] = u, m.union(models[j])
		case 6:
			d, err := c.Minus(sets[j])
			if err != nil {
				t.Fatal(err)
			}
			o := models[j]
			sets[i], models[i] = d, m.filter(func(p Pair) bool { return !o.contains(p) })
		case 7:
			x, err := c.Intersect(sets[j])
			if err != nil {
				t.Fatal(err)
			}
			sets[i], models[i] = x, m.filter(models[j].contains)
		case 8:
			sets[i], models[i] = c.Filter(keepOdd), m.filter(keepOdd)
		case 9: // decode a list with repeats and pairs out of order
			raw := EncodePairs(m.pairs)
			for k := intn(4); k > 0; k-- {
				p := randPair()
				raw = append(raw, [2]int{p.A, p.B})
			}
			if len(raw) > 0 {
				raw = append(raw, raw[intn(len(raw))])
			}
			d, err := DecodePairs(raw, l, r)
			if err != nil {
				t.Fatal(err)
			}
			dm := newModelSet()
			for _, p := range raw {
				dm.add(Pair{A: p[0], B: p[1]})
			}
			sets[i], models[i] = d, dm
		case 10: // concatenated ascending runs, as a union grows
			d, dm := NewCandidateSet(l, r), newModelSet()
			for run := 1 + intn(4); run > 0; run-- {
				p := randPair()
				for k := intn(8); k >= 0; k-- {
					if got, want := d.Add(p), dm.add(p); got != want {
						t.Fatalf("%s step %d: Add(%v) in a run = %v, want %v", label, step, p, got, want)
					}
					if p = after(p); p == (Pair{}) {
						break
					}
				}
			}
			sets[i], models[i] = d, dm
		}
		for k := range sets {
			c, m := sets[k], models[k]
			if !slices.Equal(c.Pairs(), m.pairs) || c.Len() != len(m.pairs) {
				t.Fatalf("%s step %d set %d:\n got %v\nwant %v", label, step, k, c.Pairs(), m.pairs)
			}
			cur, p := cursor{set: c}, randPair()
			for q := 0; q < 12; q++ {
				switch intn(5) {
				case 0: // a pair of the set
					if len(m.pairs) > 0 {
						p = m.pairs[intn(len(m.pairs))]
					}
				case 1: // far ahead
					p = Pair{A: min(p.A+1+intn(n), n-1), B: intn(n)}
				case 2: // back
					p = Pair{A: max(p.A-intn(n), 0), B: intn(n)}
				default: // on
					if next := after(p); next != (Pair{}) {
						p = next
					}
				}
				want := m.contains(p)
				if got := cur.contains(p); got != want {
					t.Fatalf("%s step %d set %d (unordered=%v): cursor contains(%v) = %v", label, step, k, c.unordered, p, got)
				}
				if got := c.Contains(p); got != want {
					t.Fatalf("%s step %d set %d (unordered=%v): Contains(%v) = %v", label, step, k, c.unordered, p, got)
				}
			}
			sorted := slices.Clone(m.pairs)
			slices.SortFunc(sorted, comparePairs)
			if !slices.Equal(c.Sorted(), sorted) {
				t.Fatalf("%s step %d set %d: Sorted() = %v", label, step, k, c.Sorted())
			}
		}
	}
}

// TestCandidateSetConcurrentContains: readers racing on the first
// membership question about an unordered set share one index build (run
// under -race).
func TestCandidateSetConcurrentContains(t *testing.T) {
	l, r := figure10Tables(40, 40)
	c := NewCandidateSet(l, r)
	for a := 39; a >= 0; a-- {
		c.push(Pair{A: a, B: (a * 7) % 40}) // as Filter and Union build: no index yet
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := 0; a < 40; a++ {
				if !c.Contains(Pair{A: a, B: (a * 7) % 40}) || c.Contains(Pair{A: a, B: (a*7)%40 + 1}) {
					t.Errorf("row %d: membership wrong", a)
				}
			}
		}()
	}
	wg.Wait()
}
