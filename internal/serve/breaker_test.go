package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"emgo/internal/fault"
	"emgo/internal/obs"
)

// fakeClock drives the breaker's cooldown deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func testBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	b := NewBreaker(cfg)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b.now = clk.now
	return b, clk
}

var errBoom = errors.New("boom")

func TestBreakerStartsClosed(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{})
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker must allow")
	}
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	b, _ := testBreaker(BreakerConfig{Failures: 3, Cooldown: time.Minute})
	// Two failures, then a success: the consecutive counter must reset.
	b.Record(errBoom)
	b.Record(errBoom)
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after reset-by-success = %v, want closed", b.State())
	}
	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		b.Record(errBoom)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker must not allow")
	}
}

func TestBreakerHalfOpenSingleProbeThenClose(t *testing.T) {
	b, clk := testBreaker(BreakerConfig{Failures: 1, Cooldown: time.Minute})
	b.Record(errBoom)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Before the cooldown: still refusing.
	clk.advance(30 * time.Second)
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown elapsed")
	}
	// After the cooldown: exactly one probe admitted.
	clk.advance(31 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v, want half_open", b.State())
	}
	if !b.Allow() {
		t.Fatal("half-open breaker must admit the first probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// Probe succeeds: breaker closes and counting restarts.
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker must allow")
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := testBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second})
	b.Record(errBoom)
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Record(errBoom)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	// The re-open restarts the cooldown from the probe failure.
	clk.advance(900 * time.Millisecond)
	if b.Allow() {
		t.Fatal("breaker allowed during restarted cooldown")
	}
	clk.advance(200 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused after restarted cooldown elapsed")
	}
}

func TestBreakerResetForceCloses(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	b, _ := testBreaker(BreakerConfig{Failures: 1, Cooldown: time.Hour})
	b.Record(errBoom)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	before := obs.C("serve.breaker.transitions").Value()
	b.Reset()
	if b.State() != BreakerClosed {
		t.Fatalf("state after Reset = %v, want closed", b.State())
	}
	if obs.C("serve.breaker.transitions").Value() == before {
		t.Fatal("Reset must count as a transition")
	}
	if !b.Allow() {
		t.Fatal("reset breaker must allow")
	}
}

func TestBreakerLateRecordWhileOpenIgnored(t *testing.T) {
	obs.Enable()
	defer obs.Disable()
	b, _ := testBreaker(BreakerConfig{Failures: 1, Cooldown: time.Hour})
	b.Record(errBoom)
	before := obs.C("serve.breaker.transitions").Value()
	// A straggler call admitted before the trip reports in: no state
	// churn, no counter corruption.
	b.Record(errBoom)
	b.Record(nil)
	if moved := obs.C("serve.breaker.transitions").Value() - before; b.State() != BreakerOpen || moved != 0 {
		t.Fatalf("late records disturbed the open breaker: state=%v after %d transition(s), want open after none", b.State(), moved)
	}
}

// TestBreakerTransitionsCountedOnce: closed → open → half-open → closed
// through matchSet reads three on serve.breaker.transitions — each
// transition once, whether a request's Record made it (the trip, the
// re-close) or the cooldown did (open → half-open, which only the breaker
// itself sees).
func TestBreakerTransitionsCountedOnce(t *testing.T) {
	defer fault.Reset()
	obs.Enable()
	defer obs.Disable()
	s, _ := newTestServer(t, Config{Breaker: BreakerConfig{Failures: 1, Cooldown: time.Minute}})
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	s.breaker.now = clk.now
	row, err := RecordRow(s.left.Schema(), l1Record("q1"))
	if err != nil {
		t.Fatal(err)
	}
	before := obs.C("serve.breaker.transitions").Value()
	answer := func(wantReason string, want BreakerState) {
		t.Helper()
		resp, err := s.matchOne(context.Background(), row, false)
		if err != nil {
			t.Fatal(err)
		}
		if resp.DegradedReason != wantReason || s.breaker.State() != want {
			t.Fatalf("degraded %q with the breaker %v, want %q and %v", resp.DegradedReason, s.breaker.State(), wantReason, want)
		}
	}

	fault.Enable("ml.predict", fault.Plan{})
	answer(ReasonMatcherError, BreakerOpen)
	fault.Reset()
	clk.advance(time.Minute)
	answer("", BreakerClosed) // the half-open probe
	if got := obs.C("serve.breaker.transitions").Value() - before; got != 3 {
		t.Fatalf("serve.breaker.transitions moved by %d over closed→open→half-open→closed, want 3", got)
	}
}
