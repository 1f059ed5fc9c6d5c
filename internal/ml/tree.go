package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
)

// DecisionTree is a CART binary classifier with Gini impurity splits —
// the matcher the case study ultimately selects (Section 9).
type DecisionTree struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinSamplesSplit is the minimum node size eligible for splitting
	// (default 2).
	MinSamplesSplit int
	// featureSubset, when non-nil, restricts candidate split features;
	// used by RandomForest. rng drives the subset draw.
	featureSubset int
	rng           *rand.Rand

	root     *treeNode
	features []string
	// imported marks a tree rebuilt by ImportTree: its nodes carry no
	// samples or gain (see FeatureImportance).
	imported bool
}

type treeNode struct {
	// Leaf payload.
	leaf  bool
	label int
	proba float64 // P(match) at this leaf

	// Split payload.
	feature   int
	threshold float64
	left      *treeNode // feature <= threshold
	right     *treeNode // feature > threshold

	// samples and gain record how many training examples reached the
	// node and how much Gini impurity its split removed; they feed
	// feature-importance computation.
	samples int
	gain    float64
}

// Name implements Matcher.
func (t *DecisionTree) Name() string { return "decision_tree" }

// Fit implements Matcher.
func (t *DecisionTree) Fit(ds *Dataset) error {
	if ds.Len() == 0 {
		return fmt.Errorf("ml: decision tree: empty dataset")
	}
	root, p := ds.presorted()
	g := getGrower(root, p)
	defer g.release()
	for k := 0; k < ds.Len(); k++ {
		g.add(int32(ds.rootRow(k)), 1)
	}
	t.grow(g, ds.Features)
	return nil
}

// grow fits t on the multiset of root rows g holds.
//
// The fit is exact against a per-node sort of (value, label) pairs, and
// rests on four invariants. A tree depends only on the multiset of its
// rows: a node's counts at a threshold are sums over the rows at or below
// it, whatever their order. Ties never split: a threshold is only placed
// between two distinct values, at their midpoint. The rng is consumed in
// a fixed order (a forest's bootstrap draw first, then one feature
// shuffle per split attempt, depth first and left child first), and a
// candidate replaces the best so far only if strictly better, so the
// earlier candidate in shuffled order and then the lower threshold win a
// tie in child Gini.
func (t *DecisionTree) grow(g *grower, features []string) {
	g.t = t
	g.build(0, len(g.members), 0)
	// One slab per tree: preorder puts a split node's left child right
	// after it, and g.right records where its right child went.
	slab := make([]treeNode, len(g.nodes))
	copy(slab, g.nodes)
	for i := range slab {
		if !slab[i].leaf {
			slab[i].left, slab[i].right = &slab[i+1], &slab[g.right[i]]
		}
	}
	t.root = &slab[0]
	t.features = features
}

// grower is one tree fit's scratch, pooled across fits: a multiplicity
// and a scan mark per root row, the fit's distinct rows (each node owns a
// contiguous segment of members), sort keys, the candidate list, and the
// nodes built so far in preorder.
type grower struct {
	t       *DecisionTree
	p       *presort
	y       []int    // root labels
	mult    []int32  // copies of each root row in this fit
	mark    []uint32 // stamp of the large node whose rows are being scanned
	stamp   uint32
	members []int32
	keys    []uint64
	cand    []int
	nodes   []treeNode
	right   []int32 // right child of nodes[i], for split nodes
}

var growers = sync.Pool{New: func() any { return new(grower) }}

// getGrower takes a pooled grower sized to root, holding no rows yet.
func getGrower(root *Dataset, p *presort) *grower {
	g := growers.Get().(*grower)
	g.p, g.y = p, root.Y
	if cap(g.mark) < p.n {
		g.mark = make([]uint32, p.n)
		g.mult = make([]int32, p.n)
	}
	g.mark, g.mult = g.mark[:p.n], g.mult[:p.n]
	return g
}

// add puts c copies of root row r into the fit.
func (g *grower) add(r, c int32) {
	if g.mult[r] == 0 {
		g.members = append(g.members, r)
	}
	g.mult[r] += c
}

// release zeroes the counts the fit used and returns g to the pool.
func (g *grower) release() {
	for _, r := range g.members {
		g.mult[r] = 0
	}
	g.t, g.p, g.y = nil, nil, nil
	g.members, g.nodes, g.right = g.members[:0], g.nodes[:0], g.right[:0]
	growers.Put(g)
}

// build grows the subtree over members[lo:hi] and returns its node index.
func (g *grower) build(lo, hi, depth int) int32 {
	seg := g.members[lo:hi]
	n, pos := 0, 0
	for _, r := range seg {
		c := int(g.mult[r])
		n += c
		pos += c * g.y[r]
	}
	id := int32(len(g.nodes))
	leaf := treeNode{leaf: true, proba: float64(pos) / float64(n)}
	if 2*pos >= n {
		leaf.label = 1
	}
	g.nodes = append(g.nodes, leaf)
	g.right = append(g.right, 0)
	t := g.t
	minSplit := t.MinSamplesSplit
	if minSplit < 2 {
		minSplit = 2
	}
	if pos == 0 || pos == n || n < minSplit || (t.MaxDepth > 0 && depth >= t.MaxDepth) {
		return id
	}

	feat, thresh, childGini, ok := g.bestSplit(seg, n, pos)
	if !ok {
		return id
	}
	col := g.p.col[feat*g.p.n:]
	i, j := 0, len(seg)
	for i < j {
		if col[seg[i]] <= thresh {
			i++
		} else {
			j--
			seg[i], seg[j] = seg[j], seg[i]
		}
	}
	if i == 0 || i == len(seg) {
		return id
	}
	g.build(lo, lo+i, depth+1)
	right := g.build(lo+i, hi, depth+1)
	g.nodes[id] = treeNode{feature: feat, threshold: thresh, samples: n, gain: gini(pos, n) - childGini}
	g.right[id] = right
	return id
}

// bestSplit finds the (feature, threshold) pair minimizing weighted Gini
// impurity over the node's rows seg (n copies, pos of them positive),
// which it returns as childGini. Thresholds are midpoints between
// consecutive distinct values.
//
// Each candidate feature's values are walked in ascending order without
// copying them: a node holding at least an eighth of the root's rows
// walks the feature's presorted order and skips rows it does not hold; a
// smaller node sorts packed (rank, row) keys of its own rows.
func (g *grower) bestSplit(seg []int32, n, totalPos int) (feat int, thresh, childGini float64, ok bool) {
	p, t := g.p, g.t
	nf := p.nf
	g.cand = g.cand[:0]
	for j := 0; j < nf; j++ {
		g.cand = append(g.cand, j)
	}
	candidates := g.cand
	if t.featureSubset > 0 && t.featureSubset < nf && t.rng != nil {
		t.rng.Shuffle(nf, func(a, b int) { candidates[a], candidates[b] = candidates[b], candidates[a] })
		candidates = candidates[:t.featureSubset]
	}

	large := len(seg)*8 >= p.n
	if large {
		if g.stamp == math.MaxUint32 {
			clear(g.mark[:cap(g.mark)])
			g.stamp = 0
		}
		g.stamp++
		for _, r := range seg {
			g.mark[r] = g.stamp
		}
	}
	best := math.Inf(1)
	for _, j := range candidates {
		col := p.col[j*p.n : (j+1)*p.n]
		var order []int32
		if large {
			order = p.ord[j*p.n : (j+1)*p.n]
		} else {
			rank := p.rank[j*p.n : (j+1)*p.n]
			g.keys = g.keys[:0]
			for _, r := range seg {
				g.keys = append(g.keys, uint64(rank[r])<<32|uint64(r))
			}
			slices.Sort(g.keys)
		}
		leftN, leftPos := 0, 0
		var last float64
		for k := 0; leftN < n; k++ {
			var r int32
			if large {
				if r = order[k]; g.mark[r] != g.stamp {
					continue
				}
			} else {
				r = int32(uint32(g.keys[k]))
			}
			v := col[r]
			if leftN > 0 && v != last {
				rightN := n - leftN
				rightPos := totalPos - leftPos
				gi := (float64(leftN)*gini(leftPos, leftN) + float64(rightN)*gini(rightPos, rightN)) / float64(n)
				if gi < best {
					best = gi
					feat = j
					thresh = (last + v) / 2
					ok = true
				}
			}
			c := int(g.mult[r])
			leftN += c
			leftPos += c * g.y[r]
			last = v
		}
	}
	// Zero-gain splits are kept (e.g. the first split of XOR-shaped data
	// improves nothing by itself but enables pure grandchildren); each
	// split strictly shrinks both sides, so recursion terminates.
	return feat, thresh, best, ok
}

// gini returns the Gini impurity of a node with pos positives out of n.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// Predict implements Matcher.
func (t *DecisionTree) Predict(x []float64) int {
	return t.leafFor(x).label
}

// Proba implements ProbabilisticMatcher.
func (t *DecisionTree) Proba(x []float64) float64 {
	return t.leafFor(x).proba
}

func (t *DecisionTree) leafFor(x []float64) *treeNode {
	if t.root == nil {
		panic("ml: decision tree used before Fit")
	}
	node := t.root
	for !node.leaf {
		if x[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node
}

// Depth returns the depth of the fitted tree (a single leaf has depth 0).
func (t *DecisionTree) Depth() int { return depth(t.root) }

func depth(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Rules renders the tree as indented if/else pseudo-rules; the
// tree-debugger view used when debugging the selected matcher.
func (t *DecisionTree) Rules() string {
	var b strings.Builder
	t.render(&b, t.root, 0)
	return b.String()
}

func (t *DecisionTree) render(b *strings.Builder, n *treeNode, indent int) {
	if n == nil {
		return
	}
	pad := strings.Repeat("  ", indent)
	if n.leaf {
		fmt.Fprintf(b, "%spredict %d (p=%.3f)\n", pad, n.label, n.proba)
		return
	}
	name := fmt.Sprintf("f%d", n.feature)
	if n.feature < len(t.features) {
		name = t.features[n.feature]
	}
	fmt.Fprintf(b, "%sif %s <= %.4f:\n", pad, name, n.threshold)
	t.render(b, n.left, indent+1)
	fmt.Fprintf(b, "%selse:\n", pad)
	t.render(b, n.right, indent+1)
}
