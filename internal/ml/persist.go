package ml

import (
	"fmt"
)

// This file implements model persistence — the Section 12 "package the
// matcher so they could move it into the UMETRICS repository" step. The
// tree-based matchers (the ones the case study deploys) serialize to and
// from JSON-able specs.

// NodeSpec is the serialized form of one decision-tree node. Exactly one
// of Leaf or Split semantics applies: a leaf has Left == Right == nil.
type NodeSpec struct {
	// Leaf payload.
	Leaf  bool    `json:"leaf,omitempty"`
	Label int     `json:"label,omitempty"`
	Proba float64 `json:"proba,omitempty"`
	// Split payload.
	Feature   int       `json:"feature,omitempty"`
	Threshold float64   `json:"threshold,omitempty"`
	Left      *NodeSpec `json:"left,omitempty"`
	Right     *NodeSpec `json:"right,omitempty"`
}

// TreeSpec is the serialized form of a fitted DecisionTree.
type TreeSpec struct {
	Features []string  `json:"features"`
	Root     *NodeSpec `json:"root"`
}

// Export serializes a fitted tree.
func (t *DecisionTree) Export() (*TreeSpec, error) {
	if t.root == nil {
		return nil, fmt.Errorf("ml: cannot export an unfitted tree")
	}
	features := make([]string, len(t.features))
	copy(features, t.features)
	return &TreeSpec{Features: features, Root: exportNode(t.root)}, nil
}

func exportNode(n *treeNode) *NodeSpec {
	if n == nil {
		return nil
	}
	if n.leaf {
		return &NodeSpec{Leaf: true, Label: n.label, Proba: n.proba}
	}
	return &NodeSpec{
		Feature:   n.feature,
		Threshold: n.threshold,
		Left:      exportNode(n.left),
		Right:     exportNode(n.right),
	}
}

// ImportTree rebuilds a DecisionTree from its spec.
func ImportTree(spec *TreeSpec) (*DecisionTree, error) {
	if spec == nil || spec.Root == nil {
		return nil, fmt.Errorf("ml: empty tree spec")
	}
	root, err := importNode(spec.Root, len(spec.Features))
	if err != nil {
		return nil, err
	}
	features := make([]string, len(spec.Features))
	copy(features, spec.Features)
	return &DecisionTree{root: root, features: features, imported: true}, nil
}

func importNode(s *NodeSpec, numFeatures int) (*treeNode, error) {
	if s.Leaf {
		if s.Label != 0 && s.Label != 1 {
			return nil, fmt.Errorf("ml: leaf label %d is not binary", s.Label)
		}
		return &treeNode{leaf: true, label: s.Label, proba: s.Proba}, nil
	}
	if s.Left == nil || s.Right == nil {
		return nil, fmt.Errorf("ml: split node missing children")
	}
	if numFeatures > 0 && (s.Feature < 0 || s.Feature >= numFeatures) {
		return nil, fmt.Errorf("ml: split feature %d out of range [0,%d)", s.Feature, numFeatures)
	}
	left, err := importNode(s.Left, numFeatures)
	if err != nil {
		return nil, err
	}
	right, err := importNode(s.Right, numFeatures)
	if err != nil {
		return nil, err
	}
	return &treeNode{feature: s.Feature, threshold: s.Threshold, left: left, right: right}, nil
}

// ForestSpec is the serialized form of a fitted RandomForest.
type ForestSpec struct {
	Trees []*TreeSpec `json:"trees"`
}

// Export serializes a fitted forest.
func (f *RandomForest) Export() (*ForestSpec, error) {
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("ml: cannot export an unfitted forest")
	}
	spec := &ForestSpec{Trees: make([]*TreeSpec, len(f.trees))}
	for i, t := range f.trees {
		ts, err := t.Export()
		if err != nil {
			return nil, err
		}
		spec.Trees[i] = ts
	}
	return spec, nil
}

// ImportForest rebuilds a RandomForest from its spec.
func ImportForest(spec *ForestSpec) (*RandomForest, error) {
	if spec == nil || len(spec.Trees) == 0 {
		return nil, fmt.Errorf("ml: empty forest spec")
	}
	f := &RandomForest{Trees: len(spec.Trees), trees: make([]*DecisionTree, len(spec.Trees))}
	for i, ts := range spec.Trees {
		t, err := ImportTree(ts)
		if err != nil {
			return nil, err
		}
		f.trees[i] = t
	}
	return f, nil
}

// MatcherSpec wraps either a tree or a forest with a type tag, so a
// workflow spec can hold "whatever matcher won selection".
type MatcherSpec struct {
	Kind   string      `json:"kind"` // "decision_tree" or "random_forest"
	Tree   *TreeSpec   `json:"tree,omitempty"`
	Forest *ForestSpec `json:"forest,omitempty"`
}

// ExportMatcher serializes a fitted tree or forest matcher; other matcher
// kinds report an error (deploy those by retraining from the labeled
// data, which the workflow spec also references).
func ExportMatcher(m Matcher) (*MatcherSpec, error) {
	switch mm := m.(type) {
	case *DecisionTree:
		ts, err := mm.Export()
		if err != nil {
			return nil, err
		}
		return &MatcherSpec{Kind: "decision_tree", Tree: ts}, nil
	case *RandomForest:
		fs, err := mm.Export()
		if err != nil {
			return nil, err
		}
		return &MatcherSpec{Kind: "random_forest", Forest: fs}, nil
	default:
		return nil, fmt.Errorf("ml: matcher %q is not serializable", m.Name())
	}
}

// ImportMatcher rebuilds a matcher from its spec.
func ImportMatcher(spec *MatcherSpec) (Matcher, error) {
	if spec == nil {
		return nil, fmt.Errorf("ml: nil matcher spec")
	}
	switch spec.Kind {
	case "decision_tree":
		return ImportTree(spec.Tree)
	case "random_forest":
		return ImportForest(spec.Forest)
	default:
		return nil, fmt.Errorf("ml: unknown matcher kind %q", spec.Kind)
	}
}
