// Package fault provides named fault-injection points for rehearsing the
// online service's two failure answers: a request that fails (500) and a
// learned stage that outlives its ML sub-budget (degraded
// matcher_timeout). Production code marks a site with
// fault.Inject("serve.match"); the call is a single atomic load unless a
// test (Enable) or emserve -inject has armed the site, so shipping the
// hooks costs nothing.
//
// A plan fires on every call or on exactly one call number (OnCall),
// never on wall-clock or global randomness, so what a test asserts holds
// under -race and in CI.
//
// The pipeline's own computations (block, feature, ml, workflow) carry no
// site: they fail for real only on a cancelled context or a panicking
// part, and their tests drive those with a cancelled context or a test
// double.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sites is every site the code passes to Inject; ParsePlan refuses any
// other name.
var Sites = []string{
	"serve.match",   // each admitted request or batch, before any stage runs
	"serve.predict", // each learned stage, inside its ML sub-budget
}

// Mode selects what an armed site does when its plan fires.
type Mode int

const (
	// ModeError makes Inject return an error naming the site.
	ModeError Mode = iota
	// ModeSleep makes Inject sleep for Plan.Sleep, exercising deadlines.
	ModeSleep
)

// Plan describes when and how an armed site fires. The zero plan fires
// with ModeError on every call.
type Plan struct {
	// Mode is what happens on a firing call.
	Mode Mode
	// Sleep is the ModeSleep duration.
	Sleep time.Duration
	// OnCall fires on exactly the Nth call (1-based); 0 fires on every
	// call.
	OnCall int
}

type site struct {
	plan  Plan
	calls int
}

var (
	armed atomic.Bool // fast path: true only while any site is enabled
	mu    sync.Mutex
	plans map[string]*site
)

// Enable arms a site with a plan, replacing any previous plan and
// resetting the site's call count.
func Enable(name string, p Plan) {
	mu.Lock()
	defer mu.Unlock()
	if plans == nil {
		plans = make(map[string]*site)
	}
	plans[name] = &site{plan: p}
	armed.Store(true)
}

// Reset disarms every site. Tests should defer this after Enable.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	plans = nil
	armed.Store(false)
}

// Inject is the injection point. It returns nil unless the site is armed
// and its plan fires.
func Inject(name string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	s, ok := plans[name]
	if ok {
		s.calls++
	}
	fire := ok && (s.plan.OnCall == 0 || s.calls == s.plan.OnCall)
	mu.Unlock()
	if !fire {
		return nil
	}
	if s.plan.Mode == ModeSleep { // a site's plan is never written after Enable
		time.Sleep(s.plan.Sleep)
		return nil
	}
	return fmt.Errorf("fault: injected error at site %q", name)
}
