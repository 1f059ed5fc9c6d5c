package serve

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"emgo/internal/obs"
)

// Admission errors. ErrShed maps to 429 with a Retry-After hint;
// ErrDraining maps to 503 (the readiness probe has already flipped, the
// balancer should stop sending here).
var (
	ErrShed     = errors.New("serve: admission queue full, request shed")
	ErrDraining = errors.New("serve: draining, not admitting requests")
)

// AdmissionConfig bounds concurrent work and the wait line behind it.
type AdmissionConfig struct {
	// MaxInFlight is how many requests may execute the matching pipeline
	// concurrently (<= 0 selects DefaultMaxInFlight).
	MaxInFlight int
	// MaxQueue is how many requests may wait for a slot before new
	// arrivals are shed with 429. 0 selects DefaultMaxQueue; a negative
	// value disables waiting entirely (no slot free = immediate 429).
	MaxQueue int
}

// Admission defaults.
const (
	DefaultMaxInFlight = 8
	DefaultMaxQueue    = 64
)

// Admission is the bounded two-stage admission gate: MaxInFlight
// executing plus at most MaxQueue waiting; everything beyond that is
// shed immediately. Shedding at the door instead of queueing without
// bound is what keeps latency bounded under overload — an unbounded
// queue converts overload into timeouts for every request instead of
// fast 429s for the excess.
type Admission struct {
	slots    chan struct{}
	maxQueue int64
	queued   atomic.Int64
	draining atomic.Bool

	// avgNanos is an EWMA of recent service times, feeding Retry-After.
	avgNanos atomic.Int64
}

// NewAdmission builds the gate with defaults applied.
func NewAdmission(cfg AdmissionConfig) *Admission {
	inflight := cfg.MaxInFlight
	if inflight <= 0 {
		inflight = DefaultMaxInFlight
	}
	queue := int64(cfg.MaxQueue)
	if cfg.MaxQueue == 0 {
		queue = DefaultMaxQueue
	}
	if cfg.MaxQueue < 0 {
		queue = 0
	}
	return &Admission{
		slots:    make(chan struct{}, inflight),
		maxQueue: queue,
	}
}

// Acquire admits the request or sheds it. On success the returned
// release must be called exactly once when the request finishes; it
// records the service time for Retry-After estimation. Acquire returns
// ErrShed when the wait line is full, ErrDraining when the server has
// stopped admitting, and ctx.Err() when the request's deadline expires
// while waiting in line.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a.draining.Load() {
		obs.C("serve.shed.draining").Inc()
		return nil, ErrDraining
	}
	select {
	case a.slots <- struct{}{}:
		// Fast path: a slot was free, the request never queued.
	default:
		// No free slot: join the wait line if there is room. The
		// post-increment value each arrival observes is unique (atomic),
		// so exactly maxQueue requests can be waiting at once; the rest
		// are shed immediately with a Retry-After hint.
		if q := a.queued.Add(1); q > a.maxQueue {
			a.queued.Add(-1)
			obs.C("serve.shed.queue_full").Inc()
			return nil, ErrShed
		}
		select {
		case a.slots <- struct{}{}:
			a.queued.Add(-1)
		case <-ctx.Done():
			a.queued.Add(-1)
			obs.C("serve.shed.deadline_in_queue").Inc()
			return nil, ctx.Err()
		}
	}
	if a.draining.Load() {
		// Drain raced our admission: give the slot back so the drain
		// waiter does not count us.
		<-a.slots
		obs.C("serve.shed.draining").Inc()
		return nil, ErrDraining
	}
	start := time.Now()
	var released atomic.Bool
	return func() {
		if !released.CompareAndSwap(false, true) {
			return
		}
		a.observe(time.Since(start))
		<-a.slots
	}, nil
}

// observe folds one service time into the EWMA (alpha = 1/8).
func (a *Admission) observe(d time.Duration) {
	for {
		old := a.avgNanos.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = old + (int64(d)-old)/8
		}
		if a.avgNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// RetryAfter estimates how long a shed client should wait before
// retrying: the current line length divided by the service rate,
// clamped to [1s, 60s]. A coarse hint beats none — it spreads the
// retry storm instead of synchronizing it.
func (a *Admission) RetryAfter() time.Duration {
	avg := time.Duration(a.avgNanos.Load())
	if avg <= 0 {
		avg = 100 * time.Millisecond
	}
	waiting := a.queued.Load() + int64(len(a.slots))
	per := int64(cap(a.slots))
	if per < 1 {
		per = 1
	}
	est := avg * time.Duration((waiting+per)/per)
	if est < time.Second {
		return time.Second
	}
	if est > time.Minute {
		return time.Minute
	}
	return est
}

// StartDrain stops admitting new requests. In-flight requests keep
// their slots; Drain waits for them.
func (a *Admission) StartDrain() { a.draining.Store(true) }

// Drain blocks until every admitted request has released its slot or
// the timeout elapses; it reports whether the drain completed clean.
// Call StartDrain first or new arrivals will keep the slots busy.
func (a *Admission) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if len(a.slots) == 0 && a.queued.Load() == 0 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// InFlight reports how many requests currently hold slots.
func (a *Admission) InFlight() int { return len(a.slots) }

// Queued reports how many requests are waiting for a slot.
func (a *Admission) Queued() int64 { return max(a.queued.Load(), 0) }
