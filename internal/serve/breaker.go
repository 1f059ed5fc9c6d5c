package serve

import (
	"sync"
	"time"

	"emgo/internal/obs"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed is normal operation: the ML matcher serves requests
	// and consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen is tripped: the ML matcher is bypassed entirely and
	// every request takes the rule-only degraded path until the cooldown
	// elapses.
	BreakerOpen
	// BreakerHalfOpen is the recovery probe: a single request is allowed
	// through to the matcher; success re-closes the breaker, failure
	// re-opens it for another cooldown.
	BreakerHalfOpen
)

// String returns the lowercase state name used in responses and metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes the circuit breaker around the ML matcher.
type BreakerConfig struct {
	// Failures is how many consecutive matcher failures trip the breaker
	// (<= 0 selects DefaultBreakerFailures).
	Failures int
	// Cooldown is how long the breaker stays open before probing
	// (<= 0 selects DefaultBreakerCooldown).
	Cooldown time.Duration
}

// Breaker defaults.
const (
	DefaultBreakerFailures = 5
	DefaultBreakerCooldown = 10 * time.Second
)

// Breaker is a circuit breaker guarding the learned-matcher stage.
// Callers bracket the guarded call with Allow / Record; when Allow says
// no, the caller takes the rule-only fallback. The zero Breaker is not
// valid; use NewBreaker.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // injectable clock for tests

	mu       sync.Mutex
	state    BreakerState
	failures int       // consecutive, in Closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
}

// NewBreaker builds a breaker with defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Failures <= 0 {
		cfg.Failures = DefaultBreakerFailures
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultBreakerCooldown
	}
	return &Breaker{cfg: cfg, now: time.Now}
}

// State reports the current state, advancing Open to HalfOpen when the
// cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.state
}

// advanceLocked moves Open -> HalfOpen once the cooldown elapses.
func (b *Breaker) advanceLocked() {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transitionLocked(BreakerHalfOpen)
	}
}

// transitionLocked switches state and counts the transition.
func (b *Breaker) transitionLocked(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	obs.C("serve.breaker.transitions").Inc()
}

// Allow reports whether the guarded call may proceed. In HalfOpen only
// one probe is admitted at a time; concurrent requests are refused (they
// degrade) until the probe's Record lands.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	default:
		return false
	}
}

// Record reports the outcome of a call Allow admitted: err != nil is a
// failure. A slow call is one the request's ML sub-budget cut short, so it
// arrives here as its deadline error.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Failures {
			b.openedAt = b.now()
			b.failures = 0
			b.transitionLocked(BreakerOpen)
		}
	case BreakerHalfOpen:
		b.probing = false
		if err != nil {
			b.openedAt = b.now()
			b.transitionLocked(BreakerOpen)
			return
		}
		b.transitionLocked(BreakerClosed)
	case BreakerOpen:
		// A late Record from a call admitted before the trip: the trip
		// already decided; consecutive-failure bookkeeping restarts when
		// the breaker half-opens.
	}
}

// Reset force-closes the breaker — called after a successful hot reload
// replaced the matcher the breaker was protecting against.
func (b *Breaker) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	b.transitionLocked(BreakerClosed)
}
