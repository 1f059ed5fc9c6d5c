package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"emgo/internal/block"
	"emgo/internal/ml"
	"emgo/internal/table"
	"emgo/internal/umetrics"
)

// slice is one (left, right) table pair with the generator's truth.
//
// The records come from umetrics.Generate at dataSeed; -seed shuffles
// the row order of both tables (and with it the request order and the
// batch composition). Keeping the record *content* fixed is what lets
// the quality and allocation counts repeat: regenerating the content
// per seed moves the candidate count by +-7% and F1 by +-0.3%, which
// would force bounds too wide to gate on. -data-seed regenerates the
// content for a hold-out check.
type slice struct {
	left, right *table.Table
	leftID      []string // UniqueAwardNumber per left row
	rightID     []string // AccessionNumber per right row
	truth       *umetrics.Truth
	// truthInSlice counts true matches whose left record is in this
	// slice: the generator's truth also covers the extra slice that
	// only the development study matches.
	truthInSlice int

	generateS, preprocessS float64
}

func buildSlice(scale float64, dataSeed, seed int64) (*slice, error) {
	p := umetrics.TestParams(scale)
	p.Seed = dataSeed
	t0 := time.Now()
	ds, err := umetrics.Generate(p)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	t1 := time.Now()
	proj, _, err := umetrics.Preprocess(ds.AwardAgg, ds.Employees, ds.USDA, "u", "s")
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	if err := umetrics.AddProjectNumber(proj, ds.USDA); err != nil {
		return nil, fmt.Errorf("add project number: %w", err)
	}
	t2 := time.Now()

	rng := rand.New(rand.NewSource(seed))
	sl := &slice{
		left:        shuffled(proj.UMETRICS, rng),
		right:       shuffled(proj.USDA, rng),
		truth:       ds.Truth,
		generateS:   t1.Sub(t0).Seconds(),
		preprocessS: t2.Sub(t1).Seconds(),
	}
	if sl.leftID, err = column(sl.left, "AwardNumber"); err != nil {
		return nil, err
	}
	if sl.rightID, err = column(sl.right, "AccessionNumber"); err != nil {
		return nil, err
	}
	inSlice := make(map[string]bool, len(sl.leftID))
	for _, id := range sl.leftID {
		inSlice[id] = true
	}
	for _, k := range ds.Truth.Matches() {
		if inSlice[k.UAN] {
			sl.truthInSlice++
		}
	}
	return sl, nil
}

// shuffled returns a copy of t with its rows in rng's order.
func shuffled(t *table.Table, rng *rand.Rand) *table.Table {
	out := table.New(t.Name(), t.Schema())
	for _, i := range rng.Perm(t.Len()) {
		out.MustAppend(t.Row(i))
	}
	return out
}

func column(t *table.Table, name string) ([]string, error) {
	j, err := t.Col(name)
	if err != nil {
		return nil, err
	}
	out := make([]string, t.Len())
	for i := range out {
		out[i] = t.Row(i)[j].Str()
	}
	return out, nil
}

// score counts predicted pairs against the generator's truth the way
// the case study's gold confusion does: undecidable ("hard") pairs are
// skipped, and FN is the truth the predictions missed.
func (sl *slice) score(pairs []block.Pair) ml.Confusion {
	var c ml.Confusion
	for _, p := range pairs {
		uan, acc := sl.leftID[p.A], sl.rightID[p.B]
		switch {
		case sl.truth.IsHard(uan, acc):
		case sl.truth.IsMatch(uan, acc):
			c.TP++
		default:
			c.FP++
		}
	}
	c.FN = sl.truthInSlice - c.TP
	return c
}

// digest hashes the sorted business-key pairs, so two runs can be
// diffed by eye; it does not depend on row order.
func (sl *slice) digest(pairs []block.Pair) string {
	keys := make([]string, len(pairs))
	for i, p := range pairs {
		keys[i] = sl.leftID[p.A] + "\x00" + sl.rightID[p.B]
	}
	return digestKeys(keys)
}

func digestKeys(keys []string) string {
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// byLeft groups a match set's right indices by left row, sorted.
func byLeft(n int, pairs []block.Pair) [][]int {
	out := make([][]int, n)
	for _, p := range pairs {
		out[p.A] = append(out[p.A], p.B)
	}
	for _, bs := range out {
		sort.Ints(bs)
	}
	return out
}

// record renders one table row as a request record (nulls omitted).
func record(t *table.Table, i int) map[string]any {
	rec := make(map[string]any, t.Schema().Len())
	row := t.Row(i)
	for c := 0; c < t.Schema().Len(); c++ {
		if !row[c].IsNull() {
			rec[t.Schema().Field(c).Name] = row[c].Str()
		}
	}
	return rec
}
