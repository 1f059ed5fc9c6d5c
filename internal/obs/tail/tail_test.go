package tail

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"emgo/internal/obs"
)

// fakeClock drives rotation deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestBuffer(cfg Config) (*Buffer, *fakeClock) {
	b := New(cfg)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	b.now = clk.now
	return b, clk
}

func ev(outcome string, durMS float64) *obs.WideEvent {
	return &obs.WideEvent{
		RequestID:  fmt.Sprintf("req-%s-%g", outcome, durMS),
		Route:      "/v1/match",
		Outcome:    outcome,
		DurationMS: durMS,
	}
}

func TestSlowestRetainsTopN(t *testing.T) {
	b, _ := newTestBuffer(Config{SlowN: 3})
	for i := 1; i <= 10; i++ {
		b.Add(ev(obs.OutcomeOK, float64(i)), nil)
	}
	snap := b.Snapshot()
	if len(snap.Slowest) != 3 {
		t.Fatalf("slowest len = %d, want 3", len(snap.Slowest))
	}
	want := []float64{10, 9, 8}
	for i, e := range snap.Slowest {
		if e.Event.DurationMS != want[i] {
			t.Fatalf("slowest[%d] = %g, want %g", i, e.Event.DurationMS, want[i])
		}
	}
	if snap.Seen != 10 {
		t.Fatalf("seen = %d, want 10", snap.Seen)
	}
}

func TestErroredAndDegradedAlwaysKept(t *testing.T) {
	b, _ := newTestBuffer(Config{SlowN: 2, errN: 8})
	b.Add(ev(obs.OutcomeError, 0.1), nil)
	b.Add(ev(obs.OutcomeTimeout, 0.2), nil)
	b.Add(ev(obs.OutcomeShed, 0.01), nil)
	b.Add(ev(obs.OutcomeDegraded, 0.02), nil)
	b.Add(ev(obs.OutcomeDraining, 0.03), nil)
	snap := b.Snapshot()
	if len(snap.Errored) != 2 {
		t.Fatalf("errored len = %d, want 2", len(snap.Errored))
	}
	if len(snap.Degraded) != 3 {
		t.Fatalf("degraded len = %d, want 3", len(snap.Degraded))
	}
}

func TestErroredCapEvictsOldest(t *testing.T) {
	b, _ := newTestBuffer(Config{errN: 2})
	for i := 0; i < 5; i++ {
		e := ev(obs.OutcomeError, float64(i))
		e.RequestID = fmt.Sprintf("e%d", i)
		b.Add(e, nil)
	}
	snap := b.Snapshot()
	if len(snap.Errored) != 2 {
		t.Fatalf("errored len = %d, want 2", len(snap.Errored))
	}
	if got := snap.Errored[1].Event.RequestID; got != "e4" {
		t.Fatalf("newest errored = %q, want e4", got)
	}
	if snap.DroppedErrored != 3 {
		t.Fatalf("dropped = %d, want 3", snap.DroppedErrored)
	}
}

func TestWindowRotationKeepsPreviousWindow(t *testing.T) {
	b, clk := newTestBuffer(Config{SlowN: 4})
	b.Add(ev(obs.OutcomeOK, 100), nil)

	clk.advance(DefaultWindow * 3 / 2) // into the next window
	b.Add(ev(obs.OutcomeOK, 5), nil)
	snap := b.Snapshot()
	if len(snap.Slowest) != 2 {
		t.Fatalf("after one rotation: slowest len = %d, want 2 (cur+prev)", len(snap.Slowest))
	}
	if snap.Slowest[0].Event.DurationMS != 100 {
		t.Fatalf("prev-window outlier lost: slowest[0] = %g", snap.Slowest[0].Event.DurationMS)
	}

	clk.advance(2 * DefaultWindow) // both windows stale
	snap = b.Snapshot()
	if len(snap.Slowest) != 0 {
		t.Fatalf("after expiry: slowest len = %d, want 0", len(snap.Slowest))
	}
}

func TestFastPathFloorDoesNotLoseSlowEntries(t *testing.T) {
	b, _ := newTestBuffer(Config{SlowN: 2})
	b.Add(ev(obs.OutcomeOK, 10), nil)
	b.Add(ev(obs.OutcomeOK, 20), nil)
	// Heap full; floor is 10. A 5ms ok request takes the fast path out.
	b.Add(ev(obs.OutcomeOK, 5), nil)
	// A 15ms request must displace the 10ms one.
	b.Add(ev(obs.OutcomeOK, 15), nil)
	snap := b.Snapshot()
	if len(snap.Slowest) != 2 || snap.Slowest[0].Event.DurationMS != 20 || snap.Slowest[1].Event.DurationMS != 15 {
		t.Fatalf("slowest = %+v, want [20 15]", durations(snap.Slowest))
	}
}

func durations(es []*Entry) []float64 {
	out := make([]float64, len(es))
	for i, e := range es {
		out[i] = e.Event.DurationMS
	}
	return out
}

func TestNilBufferSafe(t *testing.T) {
	var b *Buffer
	b.Add(ev(obs.OutcomeError, 1), nil)
	if snap := b.Snapshot(); snap.Seen != 0 || len(snap.Slowest) != 0 {
		t.Fatalf("nil buffer snapshot not empty: %+v", snap)
	}
}

func TestHandlerServesJSON(t *testing.T) {
	b, _ := newTestBuffer(Config{SlowN: 2})
	e := ev(obs.OutcomeError, 42)
	e.Err = "boom"
	_, root := obs.NewTrace(context.Background(), "serve.http")
	root.End()
	b.Add(e, root)
	rr := httptest.NewRecorder()
	b.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/tail", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var snap Snapshot
	if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
		t.Fatalf("unmarshal: %v\nbody: %s", err, rr.Body.String())
	}
	if len(snap.Errored) != 1 || snap.Errored[0].Event.Err != "boom" {
		t.Fatalf("errored = %+v", snap.Errored)
	}
	if snap.Errored[0].Trace == nil || snap.Errored[0].Trace.Name != "serve.http" {
		t.Fatalf("trace not captured: %+v", snap.Errored[0].Trace)
	}
}

func TestConcurrentAdds(t *testing.T) {
	b, _ := newTestBuffer(Config{SlowN: 8, errN: 8})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				out := obs.OutcomeOK
				if i%50 == 0 {
					out = obs.OutcomeError
				}
				b.Add(ev(out, float64(i%37)), nil)
			}
		}(g)
	}
	wg.Wait()
	snap := b.Snapshot()
	if snap.Seen != 1600 {
		t.Fatalf("seen = %d, want 1600", snap.Seen)
	}
	if len(snap.Slowest) == 0 {
		t.Fatal("no slow entries retained")
	}
}
