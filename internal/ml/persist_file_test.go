package ml

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fitSmallTree(t *testing.T) *DecisionTree {
	t.Helper()
	ds, err := NewDataset([]string{"f"}, [][]float64{{0}, {0.2}, {0.8}, {1}}, []int{0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tree := &DecisionTree{}
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestSaveLoadMatcherFile(t *testing.T) {
	tree := fitSmallTree(t)
	path := filepath.Join(t.TempDir(), "sub", "model.json")
	if err := SaveMatcherFile(path, tree); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadMatcherBytes(path, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range [][]float64{{0.1}, {0.9}} {
		if m.Predict(x) != tree.Predict(x) {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestSaveMatcherFileAtomicOverwrite(t *testing.T) {
	tree := fitSmallTree(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := SaveMatcherFile(path, tree); err != nil {
		t.Fatal(err)
	}
	if err := SaveMatcherFile(path, tree); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func TestLoadMatcherFileErrors(t *testing.T) {
	if _, err := LoadMatcherBytes("empty.json", nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty model file should be a descriptive error, got %v", err)
	}
	if _, err := LoadMatcherBytes("torn.json", []byte(`{"kind":"decision_tr`)); err == nil {
		t.Fatal("torn model file should error")
	}
	if _, err := LoadMatcherBytes("bad.json", []byte(`{"kind":"martian"}`)); err == nil {
		t.Fatal("unknown matcher kind should error")
	}
}

func TestSaveMatcherFileUnserializable(t *testing.T) {
	if err := SaveMatcherFile(filepath.Join(t.TempDir(), "m.json"), &NaiveBayes{}); err == nil {
		t.Fatal("unserializable matcher should error on save")
	}
}
