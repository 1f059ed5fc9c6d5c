// Package slo turns the serving tier's request stream into answerable
// reliability questions: declarative objectives (availability, latency
// thresholds) are evaluated over rolling windows into multi-window burn
// rates — the Google-SRE alerting idiom where a page requires the error
// budget to be burning fast over BOTH a short window (you are on fire
// right now) and a long window (it is not a blip). The output feeds
// /v1/status and the emmonitor slo check, so the same numbers drive
// dashboards and CI gates.
//
// The tracker is a fixed ring of 10-second buckets covering the slow
// window; Observe is O(1) under a mutex and Evaluate is a linear scan
// of at most SlowWindow/10s buckets, cheap enough to run on every
// status request.
package slo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Objective kinds.
const (
	KindAvailability = "availability"
	KindLatency      = "latency"
)

// The multi-window burn-rate horizons and the paging burn rate: an
// objective breaches only when BOTH windows burn at or above the
// threshold. 14.4 is the classic fast-burn factor: at that rate a
// 30-day error budget is gone in ~2 days.
const (
	FastWindow    = 5 * time.Minute
	SlowWindow    = time.Hour
	BurnThreshold = 14.4

	bucketSize = 10 * time.Second
)

// Objective is one declarative reliability target.
type Objective struct {
	// Name identifies the objective in reports and metrics
	// ("availability", "latency_250ms").
	Name string `json:"name"`
	// Kind is KindAvailability or KindLatency.
	Kind string `json:"kind"`
	// Target is the success percentage the objective demands (99.9 means
	// an error budget of 0.1%).
	Target float64 `json:"target"`
	// ThresholdMS is the latency bound for KindLatency: a request slower
	// than this burns budget.
	ThresholdMS float64 `json:"threshold_ms,omitempty"`
}

// budget is the tolerated bad fraction (1 - target%).
func (o Objective) budget() float64 { return 1 - o.Target/100 }

// DefaultObjectives is the always-on objective set used when the
// operator configures none: three nines of availability and 95% of
// requests under half a second.
func DefaultObjectives() []Objective {
	return []Objective{
		{Name: "availability", Kind: KindAvailability, Target: 99.9},
		{Name: "latency_500ms", Kind: KindLatency, Target: 95, ThresholdMS: 500},
	}
}

// ParseObjectives parses the -slo flag syntax: a comma-separated list
// of "availability=TARGET" and "latency=DURATION@TARGET" clauses, e.g.
//
//	availability=99.9,latency=250ms@99
//
// means "99.9% of requests succeed, and 99% complete within 250ms".
func ParseObjectives(s string) ([]Objective, error) {
	var out []Objective
	for _, clause := range strings.Split(s, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		kind, val, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("slo: %q: want kind=value", clause)
		}
		switch kind {
		case KindAvailability:
			target, err := parseTarget(val)
			if err != nil {
				return nil, fmt.Errorf("slo: %q: %w", clause, err)
			}
			out = append(out, Objective{Name: KindAvailability, Kind: KindAvailability, Target: target})
		case KindLatency:
			durStr, targetStr, ok := strings.Cut(val, "@")
			if !ok {
				return nil, fmt.Errorf("slo: %q: want latency=DURATION@TARGET", clause)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("slo: %q: bad duration %q", clause, durStr)
			}
			target, err := parseTarget(targetStr)
			if err != nil {
				return nil, fmt.Errorf("slo: %q: %w", clause, err)
			}
			out = append(out, Objective{
				Name:        "latency_" + strings.ReplaceAll(durStr, ".", "_"),
				Kind:        KindLatency,
				Target:      target,
				ThresholdMS: float64(d) / float64(time.Millisecond),
			})
		default:
			return nil, fmt.Errorf("slo: %q: unknown objective kind %q", clause, kind)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("slo: no objectives in %q", s)
	}
	names := map[string]bool{}
	for _, o := range out {
		if names[o.Name] {
			return nil, fmt.Errorf("slo: duplicate objective %q", o.Name)
		}
		names[o.Name] = true
	}
	return out, nil
}

// parseTarget parses a success percentage in (0, 100).
func parseTarget(s string) (float64, error) {
	t, err := strconv.ParseFloat(s, 64)
	if err != nil || t <= 0 || t >= 100 {
		return 0, fmt.Errorf("bad target %q (want a percentage in (0,100))", s)
	}
	return t, nil
}

// Config sizes a Tracker.
type Config struct {
	// Objectives to track; nil selects DefaultObjectives.
	Objectives []Objective
}

// bucket is one 10-second slice of the request stream.
type bucket struct {
	stamp  int64 // unix time / bucketSize; 0 = never used
	total  int64
	errors int64
	// over[i] counts requests slower than objectives' latency threshold
	// i (indexed by Tracker.latIdx order).
	over []int64
}

// Tracker accumulates request outcomes and evaluates the objectives.
// The nil *Tracker is valid: Observe no-ops and Evaluate returns nil.
type Tracker struct {
	cfg     Config
	latency []int // indices into cfg.Objectives with Kind latency
	now     func() time.Time

	mu      sync.Mutex
	buckets []bucket
}

// New builds a Tracker.
func New(cfg Config) *Tracker {
	if len(cfg.Objectives) == 0 {
		cfg.Objectives = DefaultObjectives()
	}
	t := &Tracker{
		cfg:     cfg,
		now:     time.Now,
		buckets: make([]bucket, int(SlowWindow/bucketSize)+1),
	}
	for i, o := range cfg.Objectives {
		if o.Kind == KindLatency {
			t.latency = append(t.latency, i)
		}
	}
	return t
}

// Observe records one finished request. failed means the request burned
// availability budget (5xx/timeout — not client errors or sheds by
// admission policy; the caller decides). Safe on nil and concurrently.
func (t *Tracker) Observe(latencyMS float64, failed bool) {
	if t == nil {
		return
	}
	stamp := t.now().UnixNano() / int64(bucketSize)
	t.mu.Lock()
	b := &t.buckets[int(stamp)%len(t.buckets)]
	if b.stamp != stamp {
		*b = bucket{stamp: stamp, over: make([]int64, len(t.latency))}
	} else if b.over == nil {
		b.over = make([]int64, len(t.latency))
	}
	b.total++
	if failed {
		b.errors++
	}
	for i, oi := range t.latency {
		if latencyMS > t.cfg.Objectives[oi].ThresholdMS {
			b.over[i]++
		}
	}
	t.mu.Unlock()
}

// ObjectiveStatus is one objective's evaluated state.
type ObjectiveStatus struct {
	Objective
	// FastBurn / SlowBurn are the burn rates over the two windows: the
	// observed bad fraction divided by the error budget. 1.0 means
	// burning exactly at budget; BurnThreshold means paging territory.
	FastBurn float64 `json:"fast_burn"`
	SlowBurn float64 `json:"slow_burn"`
	// FastBad/FastTotal and SlowBad/SlowTotal are the raw window counts
	// behind the burn rates.
	FastBad   int64 `json:"fast_bad"`
	FastTotal int64 `json:"fast_total"`
	SlowBad   int64 `json:"slow_bad"`
	SlowTotal int64 `json:"slow_total"`
	// Breached means both windows burn at or above the threshold.
	Breached bool `json:"breached"`
}

// Report is the full evaluation, serialized into /v1/status and read
// back by emmonitor slo.
type Report struct {
	GeneratedAt   time.Time         `json:"generated_at"`
	FastWindowMS  float64           `json:"fast_window_ms"`
	SlowWindowMS  float64           `json:"slow_window_ms"`
	BurnThreshold float64           `json:"burn_threshold"`
	Objectives    []ObjectiveStatus `json:"objectives"`
	// Breached means at least one objective breached.
	Breached bool `json:"breached"`
}

// Evaluate computes burn rates over both windows. Returns nil on a nil
// tracker.
func (t *Tracker) Evaluate() *Report {
	if t == nil {
		return nil
	}
	now := t.now()
	nowStamp := now.UnixNano() / int64(bucketSize)
	fastN := int64(FastWindow / bucketSize)
	slowN := int64(SlowWindow / bucketSize)

	type agg struct{ fastBad, fastTotal, slowBad, slowTotal int64 }
	sums := make([]agg, len(t.cfg.Objectives))

	t.mu.Lock()
	for i := range t.buckets {
		b := &t.buckets[i]
		if b.stamp == 0 {
			continue
		}
		age := nowStamp - b.stamp
		if age < 0 || age >= slowN {
			continue
		}
		fast := age < fastN
		li := 0
		for oi, o := range t.cfg.Objectives {
			var bad int64
			switch o.Kind {
			case KindAvailability:
				bad = b.errors
			case KindLatency:
				if li < len(b.over) {
					bad = b.over[li]
				}
				li++
			}
			sums[oi].slowBad += bad
			sums[oi].slowTotal += b.total
			if fast {
				sums[oi].fastBad += bad
				sums[oi].fastTotal += b.total
			}
		}
	}
	t.mu.Unlock()

	rep := &Report{
		GeneratedAt:   now,
		FastWindowMS:  float64(FastWindow) / float64(time.Millisecond),
		SlowWindowMS:  float64(SlowWindow) / float64(time.Millisecond),
		BurnThreshold: BurnThreshold,
	}
	for oi, o := range t.cfg.Objectives {
		st := ObjectiveStatus{
			Objective: o,
			FastBad:   sums[oi].fastBad, FastTotal: sums[oi].fastTotal,
			SlowBad: sums[oi].slowBad, SlowTotal: sums[oi].slowTotal,
		}
		st.FastBurn = burn(st.FastBad, st.FastTotal, o.budget())
		st.SlowBurn = burn(st.SlowBad, st.SlowTotal, o.budget())
		st.Breached = st.FastBurn >= BurnThreshold && st.SlowBurn >= BurnThreshold
		if st.Breached {
			rep.Breached = true
		}
		rep.Objectives = append(rep.Objectives, st)
	}
	sort.SliceStable(rep.Objectives, func(i, j int) bool {
		return rep.Objectives[i].Name < rep.Objectives[j].Name
	})
	return rep
}

// burn is badRatio / budget; 0 when the window is empty.
func burn(bad, total int64, budget float64) float64 {
	if total == 0 || budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}
