package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
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
	t.features = ds.Features
	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(ds, idx, 0)
	return nil
}

// build grows the subtree for the examples at idx.
func (t *DecisionTree) build(ds *Dataset, idx []int, depth int) *treeNode {
	pos := 0
	for _, i := range idx {
		pos += ds.Y[i]
	}
	n := len(idx)
	leaf := &treeNode{leaf: true, proba: float64(pos) / float64(n)}
	if 2*pos >= n {
		leaf.label = 1
	}
	minSplit := t.MinSamplesSplit
	if minSplit < 2 {
		minSplit = 2
	}
	if pos == 0 || pos == n || n < minSplit || (t.MaxDepth > 0 && depth >= t.MaxDepth) {
		return leaf
	}

	feat, thresh, childGini, ok := t.bestSplit(ds, idx)
	if !ok {
		return leaf
	}
	var left, right []int
	for _, i := range idx {
		if ds.X[i][feat] <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return leaf
	}
	return &treeNode{
		feature:   feat,
		threshold: thresh,
		left:      t.build(ds, left, depth+1),
		right:     t.build(ds, right, depth+1),
		samples:   n,
		gain:      gini(pos, n) - childGini,
	}
}

// bestSplit finds the (feature, threshold) pair minimizing weighted Gini
// impurity, which it returns as childGini. Thresholds are midpoints
// between consecutive distinct sorted values.
func (t *DecisionTree) bestSplit(ds *Dataset, idx []int) (feat int, thresh, childGini float64, ok bool) {
	nf := ds.NumFeatures()
	candidates := make([]int, 0, nf)
	for j := 0; j < nf; j++ {
		candidates = append(candidates, j)
	}
	if t.featureSubset > 0 && t.featureSubset < nf && t.rng != nil {
		t.rng.Shuffle(nf, func(a, b int) { candidates[a], candidates[b] = candidates[b], candidates[a] })
		candidates = candidates[:t.featureSubset]
	}

	n := len(idx)
	totalPos := 0
	for _, i := range idx {
		totalPos += ds.Y[i]
	}
	best := math.Inf(1)

	type vy struct {
		v float64
		y int
	}
	vals := make([]vy, n)
	for _, j := range candidates {
		for k, i := range idx {
			vals[k] = vy{ds.X[i][j], ds.Y[i]}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		leftN, leftPos := 0, 0
		for k := 0; k < n-1; k++ {
			leftN++
			leftPos += vals[k].y
			if vals[k].v == vals[k+1].v {
				continue
			}
			rightN := n - leftN
			rightPos := totalPos - leftPos
			g := (float64(leftN)*gini(leftPos, leftN) + float64(rightN)*gini(rightPos, rightN)) / float64(n)
			if g < best {
				best = g
				feat = j
				thresh = (vals[k].v + vals[k+1].v) / 2
				ok = true
			}
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
