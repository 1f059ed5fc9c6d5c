package block

import (
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
	const n = 12 // rows a side: small, so pairs collide
	l, r := figure10Tables(n, n)
	keepOdd := func(p Pair) bool { return (p.A+p.B)%3 != 0 }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		randPair := func() Pair { return Pair{A: rng.Intn(n), B: rng.Intn(n)} }
		sets := []*CandidateSet{NewCandidateSet(l, r), NewCandidateSet(l, r), NewCandidateSet(l, r)}
		models := []*modelSet{newModelSet(), newModelSet(), newModelSet()}
		for step := 0; step < 150; step++ {
			i, j := rng.Intn(len(sets)), rng.Intn(len(sets))
			c, m := sets[i], models[i]
			switch op := rng.Intn(10); op {
			case 0, 1, 2: // ascending, while there is room after the last pair
				p := randPair()
				if last := len(m.pairs) - 1; last >= 0 {
					q := m.pairs[last]
					p = Pair{A: q.A, B: q.B + 1 + rng.Intn(2)}
					if p.B >= n || rng.Intn(3) == 0 {
						p = Pair{A: min(q.A+1, n-1), B: rng.Intn(n)}
					}
				}
				if got, want := c.Add(p), m.add(p); got != want {
					t.Fatalf("seed %d step %d: Add(%v) ascending = %v, want %v", seed, step, p, got, want)
				}
			case 3: // anywhere
				p := randPair()
				if got, want := c.Add(p), m.add(p); got != want {
					t.Fatalf("seed %d step %d: Add(%v) = %v, want %v", seed, step, p, got, want)
				}
			case 4: // a duplicate
				if len(m.pairs) > 0 {
					p := m.pairs[rng.Intn(len(m.pairs))]
					if c.Add(p) || m.add(p) {
						t.Fatalf("seed %d step %d: duplicate Add(%v) reported new", seed, step, p)
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
				for k := rng.Intn(4); k > 0; k-- {
					p := randPair()
					raw = append(raw, [2]int{p.A, p.B})
				}
				if len(raw) > 0 {
					raw = append(raw, raw[rng.Intn(len(raw))])
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
			}
			for k := range sets {
				c, m := sets[k], models[k]
				if !slices.Equal(c.Pairs(), m.pairs) || c.Len() != len(m.pairs) {
					t.Fatalf("seed %d step %d set %d:\n got %v\nwant %v", seed, step, k, c.Pairs(), m.pairs)
				}
				for q := 0; q < 4; q++ {
					p := randPair()
					if q == 0 && len(m.pairs) > 0 {
						p = m.pairs[rng.Intn(len(m.pairs))]
					}
					if c.Contains(p) != m.contains(p) {
						t.Fatalf("seed %d step %d set %d (unordered=%v): Contains(%v) = %v", seed, step, k, c.unordered, p, c.Contains(p))
					}
				}
				sorted := slices.Clone(m.pairs)
				slices.SortFunc(sorted, comparePairs)
				if !slices.Equal(c.Sorted(), sorted) {
					t.Fatalf("seed %d step %d set %d: Sorted() = %v", seed, step, k, c.Sorted())
				}
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
