package ml

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// The tree fitter walks a presorted matrix. These tests hold it to the
// fitter it replaced — per node and per candidate feature, copy the
// (value, label) pairs of the node's rows and sort them — kept here as the
// oracle, and ask for the same tree node by node, to the bit, over every
// kind of training set a fit is handed: a root, a fold, a leave-one-out
// set, a subset with repeated rows, a forest's bootstraps.

// refTree fits t's settings on the rows idx of x/y (a row listed twice
// counts twice) with the sort-based fitter.
func refTree(t *DecisionTree, x [][]float64, y []int, idx []int) *treeNode {
	return refBuild(t, x, y, idx, 0)
}

func refBuild(t *DecisionTree, x [][]float64, y []int, idx []int, depth int) *treeNode {
	pos := 0
	for _, i := range idx {
		pos += y[i]
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
	feat, thresh, childGini, ok := refBestSplit(t, x, y, idx)
	if !ok {
		return leaf
	}
	var left, right []int
	for _, i := range idx {
		if x[i][feat] <= thresh {
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
		left:      refBuild(t, x, y, left, depth+1),
		right:     refBuild(t, x, y, right, depth+1),
		samples:   n,
		gain:      gini(pos, n) - childGini,
	}
}

func refBestSplit(t *DecisionTree, x [][]float64, y []int, idx []int) (feat int, thresh, childGini float64, ok bool) {
	nf := len(x[idx[0]])
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
		totalPos += y[i]
	}
	best := math.Inf(1)
	type vy struct {
		v float64
		y int
	}
	vals := make([]vy, n)
	for _, j := range candidates {
		for k, i := range idx {
			vals[k] = vy{x[i][j], y[i]}
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
	return feat, thresh, best, ok
}

// refForest replays RandomForest.FitCtx's draws — every bootstrap, then
// every tree's seed — over the root rows behind ds and fits each tree with
// the oracle.
func refForest(f *RandomForest, ds *Dataset) []*treeNode {
	root := ds.root()
	rng := rand.New(rand.NewSource(f.Seed))
	subset := max(1, int(math.Sqrt(float64(ds.NumFeatures()))))
	boots := make([][]int, f.Trees)
	seeds := make([]int64, f.Trees)
	for k := range boots {
		boots[k] = make([]int, ds.Len())
		for i := range boots[k] {
			boots[k][i] = ds.rootRow(rng.Intn(ds.Len()))
		}
		seeds[k] = rng.Int63()
	}
	out := make([]*treeNode, f.Trees)
	for k := range out {
		t := &DecisionTree{MaxDepth: f.MaxDepth, featureSubset: subset, rng: rand.New(rand.NewSource(seeds[k]))}
		out[k] = refTree(t, root.X, root.Y, boots[k])
	}
	return out
}

// diffTrees names the first node where a and b differ, or returns "".
func diffTrees(a, b *treeNode, path string) string {
	if path == "" {
		path = "root"
	}
	switch {
	case a.leaf != b.leaf || a.label != b.label:
		return fmt.Sprintf("%s: leaf/label %v/%d vs %v/%d", path, a.leaf, a.label, b.leaf, b.label)
	case math.Float64bits(a.proba) != math.Float64bits(b.proba):
		return fmt.Sprintf("%s: proba %v vs %v", path, a.proba, b.proba)
	case a.feature != b.feature || math.Float64bits(a.threshold) != math.Float64bits(b.threshold):
		return fmt.Sprintf("%s: split f%d <= %v vs f%d <= %v", path, a.feature, a.threshold, b.feature, b.threshold)
	case a.samples != b.samples || math.Float64bits(a.gain) != math.Float64bits(b.gain):
		return fmt.Sprintf("%s: samples/gain %d/%v vs %d/%v", path, a.samples, a.gain, b.samples, b.gain)
	case a.leaf:
		return ""
	}
	if d := diffTrees(a.left, b.left, path+".L"); d != "" {
		return d
	}
	return diffTrees(a.right, b.right, path+".R")
}

// oracleDataset draws an n×nf dataset of one kind: 0 continuous values,
// 1 heavy ties (every value in {0, 0.5, 1}), 2 repeated rows, signed
// zeros and a constant column, 3 the study's mix of column regimes (a
// near-continuous first column, every third column constant, the rest
// with two or three values). Labels follow the first two features, with
// noise, so trees grow several levels.
func oracleDataset(rng *rand.Rand, n, nf, kind int) *Dataset {
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		row := make([]float64, nf)
		for j := range row {
			switch {
			case kind == 0:
				row[j] = rng.NormFloat64()
			case kind == 3 && j == 0:
				row[j] = math.Round(rng.NormFloat64()*16) / 16
			case kind == 1:
				row[j] = float64(rng.Intn(3)) / 2
			case kind == 2:
				row[j] = []float64{0, math.Copysign(0, -1), 1, -1, 0.25}[rng.Intn(5)]
			case j%3 == 2:
				row[j] = float64(j)
			default:
				row[j] = float64(rng.Intn(2+j%2)) / 2
			}
		}
		if kind == 2 {
			row[nf-1] = 3 // constant column
			if i > 0 && rng.Intn(3) == 0 {
				copy(row, x[rng.Intn(i)]) // repeated row
			}
		}
		x[i] = row
		if row[0]+row[min(1, nf-1)] > 0.6 != (rng.Intn(8) == 0) {
			y[i] = 1
		}
	}
	names := make([]string, nf)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	ds, err := NewDataset(names, x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

// checkPresortedFit fits ds and views of it with the presorted fitter
// and the oracle, and fails on the first node that differs.
func checkPresortedFit(t *testing.T, ds *Dataset, seed int64, maxDepth, minSplit int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := ds.Len()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	sets := map[string][]int{"root": all}
	if n >= 2 {
		folds, err := KFold(n, min(5, n), rng)
		if err != nil {
			t.Fatal(err)
		}
		var train []int
		for _, f := range folds[1:] {
			train = append(train, f...)
		}
		sets["fold"] = train
		leave := rng.Intn(n)
		sets["loo"] = append(append([]int(nil), all[:leave]...), all[leave+1:]...)
	}
	repeated := make([]int, n+n/2)
	for i := range repeated {
		repeated[i] = rng.Intn(n)
	}
	sets["repeated"] = repeated

	for name, idx := range sets {
		var v *Dataset
		switch name {
		case "root":
			v = ds
		case "repeated":
			v = ds.Subset(idx)
		default:
			v = ds.view(append([]int(nil), idx...))
		}
		tree := &DecisionTree{MaxDepth: maxDepth, MinSamplesSplit: minSplit}
		if err := tree.Fit(v); err != nil {
			t.Fatal(err)
		}
		want := refTree(&DecisionTree{MaxDepth: maxDepth, MinSamplesSplit: minSplit}, ds.X, ds.Y, idx)
		if d := diffTrees(tree.root, want, ""); d != "" {
			t.Fatalf("seed %d %s tree (depth %d, min split %d): %s", seed, name, maxDepth, minSplit, d)
		}

		// A feature subset drawn per node from one seeded stream.
		if nf := ds.NumFeatures(); nf > 1 {
			sub := &DecisionTree{MaxDepth: maxDepth, featureSubset: nf - 1, rng: rand.New(rand.NewSource(seed))}
			if err := sub.Fit(v); err != nil {
				t.Fatal(err)
			}
			want := refTree(&DecisionTree{MaxDepth: maxDepth, featureSubset: nf - 1, rng: rand.New(rand.NewSource(seed))}, ds.X, ds.Y, idx)
			if d := diffTrees(sub.root, want, ""); d != "" {
				t.Fatalf("seed %d %s tree with a feature subset: %s", seed, name, d)
			}
		}

		f := &RandomForest{Trees: 4, MaxDepth: maxDepth, Seed: seed}
		if err := f.Fit(v); err != nil {
			t.Fatal(err)
		}
		for k, want := range refForest(f, v) {
			if d := diffTrees(f.trees[k].root, want, ""); d != "" {
				t.Fatalf("seed %d %s forest tree %d: %s", seed, name, k, d)
			}
		}
	}
}

func TestPresortedFitMatchesReference(t *testing.T) {
	sizes := []int{1, 2, 3, 9, 40, 150}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := sizes[int(seed)%len(sizes)]
		kind := int(seed) % 4
		nf := 2 + rng.Intn(6)
		if kind == 3 {
			nf = 9 + rng.Intn(17)
		}
		ds := oracleDataset(rng, n, nf, kind)
		maxDepth, minSplit := 0, 0
		if seed%4 == 1 {
			maxDepth = 1 + rng.Intn(4)
		}
		if seed%5 == 2 {
			minSplit = 2 + rng.Intn(12)
		}
		checkPresortedFit(t, ds, seed, maxDepth, minSplit)
	}
}

// FuzzPresortedFit is checkPresortedFit over fuzzed datasets: the
// counting fitter against the per-node sort it replaced, tree by tree on
// roots, views, repeated rows and forest bootstraps.
func FuzzPresortedFit(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(1), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(2), uint8(2), uint8(0), uint8(0))
	f.Add(int64(3), uint8(2), uint8(1), uint8(0), uint8(0), uint8(0))
	f.Add(int64(4), uint8(200), uint8(6), uint8(2), uint8(3), uint8(9))
	f.Add(int64(5), uint8(120), uint8(5), uint8(0), uint8(0), uint8(4))
	f.Add(int64(6), uint8(150), uint8(24), uint8(3), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, n, nf, kind, maxDepth, minSplit uint8) {
		rng := rand.New(rand.NewSource(seed))
		features := 1 + int(nf%8)
		if kind%4 == 3 {
			features = 1 + int(nf%25)
		}
		ds := oracleDataset(rng, 1+int(n), features, int(kind%4))
		checkPresortedFit(t, ds, seed, int(maxDepth%6), int(minSplit%16))
	})
}

// tieDataset is four examples over identical features: each of the
// nf columns holds 0, 1, 2, 3 with labels 0, 1, 1, 0, so thresholds 0.5
// and 2.5 of every feature leave the same child Gini (1/3). pad extra
// all-negative examples far right of every threshold are appended; a
// view of the first four then has a root eight times its size.
func tieDataset(nf, pad int) *Dataset {
	var x [][]float64
	var y []int
	for i, label := range []int{0, 1, 1, 0} {
		row := make([]float64, nf)
		for j := range row {
			row[j] = float64(i)
		}
		x, y = append(x, row), append(y, label)
	}
	for i := 0; i < pad; i++ {
		row := make([]float64, nf)
		for j := range row {
			row[j] = 100
		}
		x, y = append(x, row), append(y, 0)
	}
	names := make([]string, nf)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	ds, err := NewDataset(names, x, y)
	if err != nil {
		panic(err)
	}
	return ds
}

// TestTreeSplitTieBreak pins who wins a tie in child Gini: the earlier
// candidate in (shuffled) feature order, then the lower threshold. A scan
// that replaced the best split on an equal score (<= for <) would pick
// the later candidate and the higher threshold instead.
func TestTreeSplitTieBreak(t *testing.T) {
	for _, tc := range []struct {
		name string
		ds   *Dataset
	}{
		{"whole set", tieDataset(2, 0)},
		{"four-row subset", tieDataset(2, 40).Subset([]int{0, 1, 2, 3})},
	} {
		tree := &DecisionTree{}
		if err := tree.Fit(tc.ds); err != nil {
			t.Fatal(err)
		}
		if r := tree.root; r.leaf || r.feature != 0 || r.threshold != 0.5 {
			t.Errorf("%s: root split f%d <= %v, want f0 <= 0.5 (first feature, lower threshold)", tc.name, r.feature, r.threshold)
		}
	}

	// Under a feature subset the order is the shuffled one: pick a seed
	// whose first drawn candidate is the higher index of the two kept.
	ds := tieDataset(3, 0)
	for seed := int64(1); ; seed++ {
		cand := []int{0, 1, 2}
		rand.New(rand.NewSource(seed)).Shuffle(3, func(a, b int) { cand[a], cand[b] = cand[b], cand[a] })
		if cand[0] < cand[1] {
			continue
		}
		tree := &DecisionTree{featureSubset: 2, rng: rand.New(rand.NewSource(seed))}
		if err := tree.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if r := tree.root; r.feature != cand[0] || r.threshold != 0.5 {
			t.Fatalf("seed %d drew features %v: root split f%d <= %v, want f%d <= 0.5", seed, cand[:2], r.feature, r.threshold, cand[0])
		}
		return
	}
}

// TestConcurrentFitsShareOneRoot fits trees and forests on views of one
// root from many goroutines at once — through the pooled fit scratch and
// generators — and wants every tree the serial fits gave. The concurrent
// fits run on a second, cold root over the same rows, so they race to fill
// its cached seed states; a root fills them only once, so make race-cpu
// runs this ten times over.
func TestConcurrentFitsShareOneRoot(t *testing.T) {
	ds := oracleDataset(rand.New(rand.NewSource(9)), 160, 6, 1)
	cold, err := NewDataset(ds.Features, ds.X, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	folds, err := KFold(ds.Len(), 4, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	views := func(root *Dataset) []*Dataset {
		out := []*Dataset{root}
		for _, f := range folds {
			out = append(out, root.view(f))
		}
		return out
	}
	warmViews, coldViews := views(ds), views(cold)
	fit := func(views []*Dataset, i int) []*treeNode {
		v := views[i%len(views)]
		if i%2 == 0 {
			tree := &DecisionTree{}
			if err := tree.Fit(v); err != nil {
				panic(err)
			}
			return []*treeNode{tree.root}
		}
		f := &RandomForest{Trees: 5, Seed: int64(i)}
		if err := f.Fit(v); err != nil {
			panic(err)
		}
		roots := make([]*treeNode, len(f.trees))
		for k, tree := range f.trees {
			roots[k] = tree.root
		}
		return roots
	}
	const jobs = 24
	want := make([][]*treeNode, jobs)
	for i := range want {
		want[i] = fit(warmViews, i)
	}
	got := make([][]*treeNode, jobs)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < jobs; i += 4 {
				got[(i*7)%jobs] = fit(coldViews, (i*7)%jobs)
			}
		}(w)
	}
	wg.Wait()
	for i := range want {
		for k := range want[i] {
			if d := diffTrees(got[i][k], want[i][k], ""); d != "" {
				t.Fatalf("job %d tree %d: concurrent fit differs from serial: %s", i, k, d)
			}
		}
	}
}

// TestFitAllocations pins what a fit on a presorted root allocates, so
// its scratch — the rows' multiplicities, the split scan's histogram, the
// nodes built so far — stays pooled across fits: a tree allocates itself
// and its node slab, and a 10-tree forest its trees, their slabs and a
// few slices per fit (bootstraps, seeds). AllocsPerRun runs at GOMAXPROCS 1,
// where the forest's fan-out starts no goroutine; a scratch slice
// allocated per tree would add ten.
func TestFitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race runtime's")
	}
	for name, ds := range map[string]*Dataset{"study": studyData(), "continuous": synthDataset(500, 99)} {
		tree := testing.AllocsPerRun(20, func() {
			if err := (&DecisionTree{}).Fit(ds); err != nil {
				t.Fatal(err)
			}
		})
		forest := testing.AllocsPerRun(20, func() {
			if err := (&RandomForest{Trees: 10, Seed: 1}).Fit(ds); err != nil {
				t.Fatal(err)
			}
		})
		if tree > 2 {
			t.Errorf("%s: DecisionTree.Fit allocates %v times, want at most 2", name, tree)
		}
		if forest > 25 {
			t.Errorf("%s: a 10-tree RandomForest.Fit allocates %v times, want at most 25", name, forest)
		}
	}
}
