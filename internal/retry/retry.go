// Package retry computes capped exponential backoff schedules. Its one
// caller is the load generator's shed-retry loop (internal/load), which
// sleeps each scheduled delay, raised to the server's Retry-After hint
// when one arrived; workflow.Spec.BuildCtx still takes a Policy, which it
// ignores, so its callers keep their signature.
//
// Determinism is the point. A Policy's Schedule is a pure function of its
// fields — no global randomness — so tests can assert the exact delays a
// retrying client will sleep, and two clients retrying the same failure
// back off identically. When spreading load matters, Seed adds
// deterministic pseudo-jitter: still reproducible, but distinct per seed.
package retry

import (
	"math/rand"
	"time"
)

// Policy describes a capped exponential backoff schedule. The zero value
// means "try once, never sleep" — safe to embed in option structs where
// retrying is opt-in.
type Policy struct {
	// MaxAttempts is the total number of tries including the first
	// (<= 1 means a single attempt).
	MaxAttempts int
	// BaseDelay is the sleep before the first retry (default 10ms when
	// retries are enabled).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 1s); the delay doubles between
	// retries until it gets there.
	MaxDelay time.Duration
	// Seed, when non-zero, scales each delay by a deterministic
	// pseudo-jitter factor in [0.5, 1.5) drawn from a rand stream seeded
	// with it. Zero means jitter-free.
	Seed int64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	return p
}

// Schedule returns the exact delays to sleep between attempts —
// MaxAttempts-1 entries, none for a single attempt.
func (p Policy) Schedule() []time.Duration {
	p = p.withDefaults()
	if p.MaxAttempts <= 1 {
		return nil
	}
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	out := make([]time.Duration, p.MaxAttempts-1)
	d := float64(p.BaseDelay)
	for i := range out {
		v := d
		if v > float64(p.MaxDelay) {
			v = float64(p.MaxDelay)
		}
		if rng != nil {
			v *= 0.5 + rng.Float64()
		}
		out[i] = time.Duration(v)
		d *= 2
	}
	return out
}
