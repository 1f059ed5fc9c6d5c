// Package retry implements capped exponential backoff with deterministic
// schedules for the transient-fault boundaries: the serving tier's
// matcher-artifact reads and the load generator's shed-retry schedule.
//
// Determinism is the point. A Policy's Schedule is a pure function of its
// fields — no global randomness — so tests can assert the exact delays a
// retried stage will sleep, and two replicas retrying the same failure
// back off identically. When spreading load matters, Seed adds
// deterministic pseudo-jitter: still reproducible, but distinct per seed.
package retry

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"emgo/internal/obs"
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

// Schedule returns the exact delays Do will sleep between attempts —
// MaxAttempts-1 entries. It is what tests assert against.
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

// Do runs fn under the policy: on a transient error it sleeps the next
// scheduled delay (abandoning the wait if ctx is done) and tries again.
// It returns nil on the first success, ctx's error when cancelled
// mid-backoff, or the last attempt's error once the schedule is
// exhausted.
func Do(ctx context.Context, p Policy, fn func() error) (err error) {
	p = p.withDefaults()
	schedule := p.Schedule()
	for attempts := 0; ; {
		if cerr := ctx.Err(); cerr != nil {
			if err != nil {
				return fmt.Errorf("retry: cancelled after %d attempts: %w (last error: %v)", attempts, cerr, err)
			}
			return cerr
		}
		attempts++
		obs.C("retry.attempts").Inc()
		if attempts > 1 {
			// A retry beyond the first attempt is the signal operators
			// count; it also lands on the active trace span so a run
			// report shows where the backoff time went.
			obs.C("retry.retries").Inc()
			obs.AddEvent(ctx, "retry", fmt.Sprintf("attempt %d after %v", attempts, err))
		}
		err = fn()
		if err == nil {
			return nil
		}
		if attempts > len(schedule) {
			if attempts > 1 {
				return fmt.Errorf("retry: %d attempts exhausted: %w", attempts, err)
			}
			return err
		}
		timer := time.NewTimer(schedule[attempts-1])
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("retry: cancelled after %d attempts: %w (last error: %v)", attempts, ctx.Err(), err)
		case <-timer.C:
		}
	}
}
