package ml

import (
	"fmt"
	"sort"
)

// Importance is one feature's share of the model's total impurity
// reduction.
type Importance struct {
	Feature string
	Weight  float64
}

// FeatureImportance returns the Gini importance of every feature of a
// fitted tree (sample-weighted impurity decrease, normalized to sum to
// 1), sorted descending. It is the matcher-debugging view that tells the
// user which similarity signals the model actually relies on — e.g. it
// surfaces that the pre-fix matcher of Section 9 leaned on dates because
// the case-sensitive title features were useless.
//
// Importance is training statistics, and a serialized tree carries none
// (NodeSpec holds what Predict needs): a tree that came through
// ImportTree refuses instead of reporting all zeros. What it can still
// say is which features it tests: ReadSet.
func (t *DecisionTree) FeatureImportance() ([]Importance, error) {
	if t.root == nil {
		return nil, fmt.Errorf("ml: importance of an unfitted tree")
	}
	if t.imported {
		return nil, fmt.Errorf("ml: imported matcher carries no training statistics; read the split features instead (ml.ReadSet)")
	}
	weights := make([]float64, len(t.features))
	accumulateImportance(t.root, weights)
	return normalizeImportance(t.features, weights), nil
}

func accumulateImportance(n *treeNode, weights []float64) {
	if n == nil || n.leaf {
		return
	}
	if n.feature >= 0 && n.feature < len(weights) {
		weights[n.feature] += float64(n.samples) * n.gain
	}
	accumulateImportance(n.left, weights)
	accumulateImportance(n.right, weights)
}

// FeatureImportance averages Gini importance across the forest's trees.
func (f *RandomForest) FeatureImportance() ([]Importance, error) {
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("ml: importance of an unfitted forest")
	}
	features := f.trees[0].features
	weights := make([]float64, len(features))
	for _, t := range f.trees {
		if t.imported {
			return t.FeatureImportance()
		}
		w := make([]float64, len(features))
		accumulateImportance(t.root, w)
		var total float64
		for _, v := range w {
			total += v
		}
		if total == 0 {
			continue
		}
		for i, v := range w {
			weights[i] += v / total
		}
	}
	return normalizeImportance(features, weights), nil
}

// normalizeImportance converts raw weights into a sorted, sum-to-one
// list. An all-zero model (a single leaf) yields uniform zeros.
func normalizeImportance(features []string, weights []float64) []Importance {
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]Importance, len(features))
	for i, name := range features {
		w := 0.0
		if total > 0 {
			w = weights[i] / total
		}
		out[i] = Importance{Feature: name, Weight: w}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Weight != out[b].Weight {
			return out[a].Weight > out[b].Weight
		}
		return out[a].Feature < out[b].Feature
	})
	return out
}

// ReadSet marks, feature by feature, what m can read off a vector of the
// given width. A decision tree reads exactly the features its split nodes
// test and a random forest the union over its trees — a walk over the
// nodes, so it holds for an imported model too, and a feature outside the
// set cannot move Predict or Proba whatever value its slot holds. Every
// other kind of matcher reads all of them.
func ReadSet(m Matcher, width int) []bool {
	read := make([]bool, width)
	switch mm := m.(type) {
	case *DecisionTree:
		markSplits(mm.root, read)
	case *RandomForest:
		for _, t := range mm.trees {
			markSplits(t.root, read)
		}
	default:
		for k := range read {
			read[k] = true
		}
	}
	return read
}

// markSplits marks the feature of every split node under n. An index past
// the width is left to the first Predict, which fails on it.
func markSplits(n *treeNode, read []bool) {
	if n == nil || n.leaf {
		return
	}
	if n.feature >= 0 && n.feature < len(read) {
		read[n.feature] = true
	}
	markSplits(n.left, read)
	markSplits(n.right, read)
}

// Narrow returns m as it reads the vectors a deployment computes — the
// features of ReadSet(m, width), in feature order, and no others — and
// that read set. A tree or forest that leaves some feature unread comes
// back renumbered: a copy whose split nodes test the narrow slots, one
// node slab a tree, whose Predict and Proba on a vector's read columns
// are m's on the whole vector. Any other matcher reads every feature and
// comes back as it is.
func Narrow(m Matcher, width int) (Matcher, []bool) {
	read := ReadSet(m, width)
	r := renumbering{slot: make([]int, width)}
	for k, isRead := range read {
		if r.slot[k] = r.width; isRead {
			r.width++
		}
	}
	if r.width == width {
		return m, read
	}
	switch mm := m.(type) {
	case *DecisionTree:
		t := *mm
		r.tree(&t, r.names(mm.features, read))
		return &t, read
	case *RandomForest:
		f := *mm
		trees := make([]DecisionTree, len(mm.trees))
		f.trees = make([]*DecisionTree, len(mm.trees))
		// A forest's trees are fitted, and exported, over one feature list.
		var names []string
		if len(mm.trees) > 0 {
			names = r.names(mm.trees[0].features, read)
		}
		for i, t := range mm.trees {
			trees[i] = *t
			r.tree(&trees[i], names)
			f.trees[i] = &trees[i]
		}
		return &f, read
	}
	return m, read
}

// renumbering maps a feature index to its slot in a narrowed vector.
type renumbering struct {
	slot  []int // per feature of the full vector
	width int   // the narrowed vector's
	slab  []treeNode
}

// names returns the names of the read features.
func (r *renumbering) names(features []string, read []bool) []string {
	out := make([]string, 0, r.width)
	for k, name := range features {
		if k < len(read) && read[k] {
			out = append(out, name)
		}
	}
	return out
}

// tree points t, a copy of a tree, at a renumbered copy of its nodes,
// in one slab.
func (r *renumbering) tree(t *DecisionTree, names []string) {
	if t.root != nil {
		r.slab = make([]treeNode, countNodes(t.root))
		t.root = r.node(t.root)
	}
	t.features = names
}

// node copies n and the nodes under it into the slab, preorder. A split
// feature past the full width moves past the narrow one, so Predict fails
// on it as it would have.
func (r *renumbering) node(n *treeNode) *treeNode {
	c := &r.slab[0]
	r.slab = r.slab[1:]
	*c = *n
	if !n.leaf {
		c.feature = r.width
		if n.feature >= 0 && n.feature < len(r.slot) {
			c.feature = r.slot[n.feature]
		}
		c.left, c.right = r.node(n.left), r.node(n.right)
	}
	return c
}

// countNodes is the number of nodes under n, n included.
func countNodes(n *treeNode) int {
	if n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}
