package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded by
// the harness (the program under test gains no span from this). Spans
// of one operation share Op; Parent is -1 for a root.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the tracer was created
	EndUS   float64 `json:"end_us"`
}

func (s span) durS() float64 { return (s.EndUS - s.StartUS) / 1e6 }

// tracer keeps spans in memory until the run ends. It is used from the
// single load goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: t.now()})
	return id
}

func (t *tracer) end(id int) { t.spans[id].EndUS = t.now() }

// time runs f inside a span and returns the span's duration in seconds
// as the clock read it. The online pass times thousands of
// sub-millisecond calls this way and scales their medians by one factor
// for the whole pass.
func (t *tracer) time(name string, parent, op int, f func()) float64 {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
	return t.spans[id].durS()
}

// timeRef is time for a one-shot call: it brackets the call with
// reference-kernel samples on each side and returns the duration at
// reference speed, like every other timing here (speed.go). The span
// itself stays as the clock read it.
func (t *tracer) timeRef(name string, parent, op int, f func()) float64 {
	var around segment
	around.probe(traceBrackets)
	d := t.time(name, parent, op, f)
	around.probe(traceBrackets)
	return d * around.speed()
}

// selfSeconds derives each span's self time: its duration minus the
// part of its interval that its child spans cover (overlapping children
// are counted once).
func selfSeconds(spans []span) []float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUS < kids[b].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := k.StartUS, k.EndUS
			if lo < edge {
				lo = edge
			}
			if hi > s.EndUS {
				hi = s.EndUS
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.EndUS - s.StartUS - covered) / 1e6
	}
	return self
}

// traceFile is the on-disk form: the spans plus per-name totals so the
// file answers "where did the traced pass go" without a tool.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	TotalS   map[string]float64 `json:"total_s_by_name"`
	SelfS    map[string]float64 `json:"self_s_by_name"`
	Spans    []span             `json:"spans"`
}

// write stores the trace under dir as trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	tf := traceFile{Workload: workload, Seed: seed, TotalS: map[string]float64{}, SelfS: map[string]float64{}, Spans: t.spans}
	self := selfSeconds(t.spans)
	for i, s := range t.spans {
		tf.TotalS[s.Name] += s.durS()
		tf.SelfS[s.Name] += self[i]
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
