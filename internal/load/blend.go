package load

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind is one request shape in the traffic blend.
type Kind string

// Request kinds. Single and Batch carry records; Malformed and
// Oversized are deliberately hostile bodies the server must refuse
// cheaply; Status probes the operational endpoint the way a balancer
// would.
const (
	KindSingle    Kind = "single"
	KindBatch     Kind = "batch"
	KindMalformed Kind = "malformed"
	KindOversized Kind = "oversized"
	KindStatus    Kind = "status"
)

// kindOrder fixes the iteration order everywhere weights are walked, so
// blends are deterministic regardless of map iteration.
var kindOrder = []Kind{KindSingle, KindBatch, KindMalformed, KindOversized, KindStatus}

// Blend weights the request kinds. Weights are relative, not
// percentages; an empty Blend means all single matches. A Blend is a
// map, so a caller that changes one it was handed clones it first.
type Blend map[Kind]int

// DefaultBlend is the mixed-traffic default: mostly single matches, a
// batch and status sprinkle, and a trickle of hostile bodies so the
// reject path is always exercised.
func DefaultBlend() Blend {
	return Blend{KindSingle: 88, KindBatch: 5, KindMalformed: 2, KindOversized: 1, KindStatus: 4}
}

// total sums the weights.
func (b Blend) total() int {
	t := 0
	for _, w := range b {
		t += w
	}
	return t
}

// String renders the blend in ParseBlend syntax, omitting zero weights.
func (b Blend) String() string {
	var parts []string
	for _, k := range kindOrder {
		if w := b[k]; w > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, w))
		}
	}
	return strings.Join(parts, ",")
}

// ParseBlend parses the -blend flag syntax: comma-separated
// kind=weight clauses, e.g. "single=80,batch=10,malformed=5,status=5".
// Unmentioned kinds get weight 0, a kind may be named once, and at least
// one weight must be positive.
func ParseBlend(s string) (Blend, error) {
	b := Blend{}
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("load: blend %q: %q is not kind=weight", s, clause)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w < 0 {
			return nil, fmt.Errorf("load: blend %q: weight %q must be a non-negative integer", s, val)
		}
		k := Kind(strings.TrimSpace(name))
		if !slices.Contains(kindOrder, k) {
			return nil, fmt.Errorf("load: blend %q: unknown kind %q", s, name)
		}
		if _, dup := b[k]; dup {
			return nil, fmt.Errorf("load: blend %q: duplicate kind %q", s, k)
		}
		b[k] = w
	}
	if b.total() <= 0 {
		return nil, fmt.Errorf("load: blend %q has no positive weight", s)
	}
	return b, nil
}

// assign deterministically deals n arrivals across the blend's kinds in
// proportion to their weights, shuffled by seed so kinds interleave
// rather than arriving in runs.
func (b Blend) assign(n int, seed int64) []Kind {
	if b.total() == 0 {
		b = Blend{KindSingle: 1}
	}
	total := b.total()
	out := make([]Kind, 0, n)
	// Largest-remainder apportionment: exact proportions up to rounding,
	// so a 1% weight still appears in short runs.
	type share struct {
		kind Kind
		frac float64
	}
	counts := map[Kind]int{}
	assigned := 0
	var rem []share
	for _, k := range kindOrder {
		w := b[k]
		if w == 0 {
			continue
		}
		exact := float64(n) * float64(w) / float64(total)
		c := int(exact)
		counts[k] = c
		assigned += c
		rem = append(rem, share{kind: k, frac: exact - float64(c)})
	}
	sort.SliceStable(rem, func(i, j int) bool { return rem[i].frac > rem[j].frac })
	for i := 0; assigned < n; i++ {
		counts[rem[i%len(rem)].kind]++
		assigned++
	}
	for _, k := range kindOrder {
		for i := 0; i < counts[k]; i++ {
			out = append(out, k)
		}
	}
	// Interleave deterministically; a distinct seed offset keeps this
	// stream independent of arrival times and record picks.
	rng := rand.New(rand.NewSource(seed + 0x51ed2701))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
