// Package fault provides deterministic, named fault-injection points for
// exercising the pipeline's recovery paths under test. Production code
// marks interesting sites with fault.Inject("block.join") (or InjectIdx
// when the site processes an indexed work item); the call is a single
// atomic load unless a test has armed the site with Enable, so shipping
// the hooks costs nothing.
//
// Injection is deterministic: a plan fires on exact call numbers
// (FailFirst, OnCall), exact work-item indices (Indices), or a seeded
// pseudo-random fraction of calls (Prob + Seed), never on wall-clock or
// global randomness. That is what lets a test assert "record 1 fails and
// the error names it" and have it hold under -race and in CI.
//
// Known sites wired through the repository:
//
//	block.join               each blocker run inside block.UnionBlockCtx
//	feature.vectorize        each pair vectorized by Set.VectorizeCtx
//	feature.bind             each Set.Bind of a right table's cells (a server's start and every reload)
//	ml.forest.fit            each tree trained by RandomForest.FitCtx
//	ml.predict               each row scored by PredictAllCtx
//	serve.match              each admitted request in the online matching service
package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"emgo/internal/obs"
)

// Mode selects what an armed site does when its plan fires.
type Mode int

const (
	// ModeError makes Inject return Plan.Err (or a generic error naming
	// the site).
	ModeError Mode = iota
	// ModePanic makes Inject panic, exercising panic-recovery paths.
	ModePanic
	// ModeSleep makes Inject sleep for Plan.Sleep, exercising deadlines.
	ModeSleep
)

// Plan describes when and how an armed site fires. The zero plan fires
// with ModeError on every call. Firing conditions compose as OR: the plan
// fires when any configured condition holds; if none of FailFirst, OnCall,
// Indices, or Prob is set, every call fires.
type Plan struct {
	// Mode is what happens on a firing call.
	Mode Mode
	// Err is returned by ModeError (nil = generic error naming the site).
	Err error
	// Sleep is the ModeSleep duration.
	Sleep time.Duration
	// FailFirst fires on the first N calls to the site — the transient
	// fault shape retry tests need.
	FailFirst int
	// OnCall fires on exactly the Nth call (1-based).
	OnCall int
	// Indices fires when InjectIdx is invoked with one of these work-item
	// indices, independent of call order — deterministic under parallel
	// schedulers.
	Indices []int
	// Prob fires on a seeded pseudo-random fraction of calls in (0,1];
	// deterministic for a fixed Seed and call sequence.
	Prob float64
	// Seed seeds the Prob stream.
	Seed int64
}

type site struct {
	plan  Plan
	calls int
	idx   map[int]bool
	rng   *rand.Rand
}

var (
	armed atomic.Bool // fast path: true only while any site is enabled
	mu    sync.Mutex
	sites map[string]*site
)

// Enable arms a site with a plan, replacing any previous plan and
// resetting the site's counters. Intended for tests only.
func Enable(name string, p Plan) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	s := &site{plan: p}
	if len(p.Indices) > 0 {
		s.idx = make(map[int]bool, len(p.Indices))
		for _, i := range p.Indices {
			s.idx[i] = true
		}
	}
	if p.Prob > 0 {
		s.rng = rand.New(rand.NewSource(p.Seed))
	}
	sites[name] = s
	armed.Store(true)
}

// Reset disarms every site. Tests should defer this after Enable.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	sites = nil
	armed.Store(false)
}

// Count returns how many times the named site has been reached since it
// was armed (firing or not).
func Count(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if s, ok := sites[name]; ok {
		return s.calls
	}
	return 0
}

// Inject is the injection point for sites without a natural work-item
// index. It returns nil unless the site is armed and its plan fires.
func Inject(name string) error {
	return InjectIdx(name, -1)
}

// InjectIdx is the injection point for sites processing item idx (a pair
// index, a tree index, ...). Plans using Indices only ever fire through
// this form.
func InjectIdx(name string, idx int) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	s, ok := sites[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	s.calls++
	fire := s.shouldFire(idx)
	p := s.plan
	mu.Unlock()
	if !fire {
		return nil
	}
	// A fired trip is an operational event a degraded run must expose:
	// count it globally and per site (the site vocabulary is small and
	// fixed, so the label cardinality is bounded). Only firing calls pay
	// the registry lookup; the unarmed hot path returned above.
	obs.C("fault.trips").Inc()
	obs.C("fault.trips." + name).Inc()
	switch p.Mode {
	case ModePanic:
		panic(fmt.Sprintf("fault: injected panic at site %q (idx %d)", name, idx))
	case ModeSleep:
		time.Sleep(p.Sleep)
		return nil
	default:
		if p.Err != nil {
			return fmt.Errorf("fault: site %q: %w", name, p.Err)
		}
		return fmt.Errorf("fault: injected error at site %q (idx %d)", name, idx)
	}
}

// shouldFire evaluates the plan's firing conditions; callers hold mu.
func (s *site) shouldFire(idx int) bool {
	p := s.plan
	conditioned := false
	if p.FailFirst > 0 {
		conditioned = true
		if s.calls <= p.FailFirst {
			return true
		}
	}
	if p.OnCall > 0 {
		conditioned = true
		if s.calls == p.OnCall {
			return true
		}
	}
	if s.idx != nil {
		conditioned = true
		if s.idx[idx] {
			return true
		}
	}
	if p.Prob > 0 {
		conditioned = true
		if s.rng.Float64() < p.Prob {
			return true
		}
	}
	return !conditioned
}
