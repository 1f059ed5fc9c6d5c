package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

func TestAdmissionFastPath(t *testing.T) {
	leakcheck.Check(t)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2})
	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1", got)
	}
	rel2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel1.Release()
	rel2.Release()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight after release = %d, want 0", got)
	}
}

func TestAdmissionReleaseIdempotent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1})
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel.Release()
	rel.Release() // second call must not double-free the slot
	var zero Slot
	zero.Release() // nor may releasing a Slot that holds nothing
	if got := a.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
	if _, err := a.Acquire(context.Background()); err != nil {
		t.Fatalf("slot not reusable after release: %v", err)
	}
}

func TestAdmissionShedsWhenQueueFull(t *testing.T) {
	leakcheck.Check(t)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1})
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// One waiter fills the line.
	waiting := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(waiting)
		r, werr := a.Acquire(context.Background())
		if werr == nil {
			r.Release()
		}
		done <- werr
	}()
	<-waiting
	// Poll until the waiter is actually queued (it signalled before the
	// Acquire call; give it a moment to join the line).
	deadline := time.Now().Add(2 * time.Second)
	for a.Queued() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// The line is full: the next arrival is shed immediately.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("Acquire with full queue = %v, want ErrShed", err)
	}
	rel.Release()
	if werr := <-done; werr != nil {
		t.Fatalf("queued request should be admitted once the slot frees: %v", werr)
	}
	if got := a.Shed(); got != (ShedCounts{QueueFull: 1}) {
		t.Fatalf("shed counts %+v, want the one queue_full", got)
	}
}

func TestAdmissionNoQueueShedsImmediately(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: -1})
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Release()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("Acquire with waiting disabled = %v, want ErrShed", err)
	}
}

func TestAdmissionDeadlineInQueue(t *testing.T) {
	leakcheck.Check(t)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 4})
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire with expiring deadline = %v, want DeadlineExceeded", err)
	}
	if got := a.Queued(); got != 0 {
		t.Fatalf("Queued after deadline = %d, want 0 (waiter must leave the line)", got)
	}
	if got := a.Shed(); got != (ShedCounts{DeadlineInQueue: 1}) {
		t.Fatalf("shed counts %+v, want the one deadline_in_queue", got)
	}
}

func TestAdmissionDrain(t *testing.T) {
	leakcheck.Check(t)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2})
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a.StartDrain()
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Acquire while draining = %v, want ErrDraining", err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var clean bool
	go func() {
		defer wg.Done()
		clean = a.Drain(2 * time.Second)
	}()
	time.Sleep(10 * time.Millisecond)
	rel.Release()
	wg.Wait()
	if !clean {
		t.Fatal("drain should complete once the in-flight request releases")
	}
}

func TestAdmissionDrainTimesOut(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1})
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Release()
	a.StartDrain()
	if a.Drain(30 * time.Millisecond) {
		t.Fatal("drain reported clean with a request still in flight")
	}
}

func TestRetryAfterClamped(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1})
	// No observations yet: still at least a second.
	if got := a.RetryAfter(); got < time.Second || got > time.Minute {
		t.Fatalf("RetryAfter with no data = %v, want within [1s, 60s]", got)
	}
	// A huge observed service time clamps at the ceiling.
	a.observe(10 * time.Minute)
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Release()
	if got := a.RetryAfter(); got != time.Minute {
		t.Fatalf("RetryAfter with slow service = %v, want 60s clamp", got)
	}
}

func TestRetryAfterNonZeroWhileSaturated(t *testing.T) {
	leakcheck.Check(t)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2, MaxQueue: 4})
	// Sustained overload: both slots held, a full wait line behind them,
	// and slow observed service times feeding the EWMA.
	a.observe(4 * time.Second)
	rel1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rel2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rel, err := a.Acquire(ctx); err == nil {
				rel.Release()
			}
		}()
	}
	// Wait for the line to actually form.
	for i := 0; i < 200 && a.Queued() < 4; i++ {
		time.Sleep(time.Millisecond)
	}
	if a.Queued() != 4 {
		cancel()
		wg.Wait()
		t.Fatalf("queued %d waiters, want 4", a.Queued())
	}

	// Saturated: the hint must be meaningfully non-zero (the line is 4
	// deep over 2 slots at ~4s each -> well past the 1s floor) and still
	// bounded by the 60s ceiling.
	got := a.RetryAfter()
	if got <= time.Second {
		t.Fatalf("RetryAfter while saturated = %v, want > 1s", got)
	}
	if got > time.Minute {
		t.Fatalf("RetryAfter while saturated = %v, want <= 60s clamp", got)
	}

	cancel()
	wg.Wait()
	rel1.Release()
	rel2.Release()
}

func TestRetryAfterDecaysAfterLoadDrops(t *testing.T) {
	leakcheck.Check(t)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 2})
	// Overload era: slow service times push the EWMA (and the hint) up.
	for i := 0; i < 8; i++ {
		a.observe(10 * time.Second)
	}
	rel, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := a.RetryAfter(); got < 5*time.Second {
		t.Fatalf("RetryAfter during overload = %v, want a large hint", got)
	}
	rel.Release()

	// Load drops: fast requests flow through and the EWMA (alpha 1/8)
	// must decay the hint back toward the 1s floor, not remember the
	// overload forever.
	for i := 0; i < 100; i++ {
		a.observe(time.Millisecond)
	}
	if got := a.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter after recovery = %v, want the 1s floor", got)
	}
}

func TestRetryAfterEWMABoundedByOutliers(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1})
	// Converge on a steady 100ms service time...
	for i := 0; i < 100; i++ {
		a.observe(100 * time.Millisecond)
	}
	// ...then one pathological 10s request. An alpha-1/8 EWMA moves at
	// most 1/8 of the gap per sample, so one outlier cannot swing the
	// hint to the outlier's magnitude.
	a.observe(10 * time.Second)
	avg := time.Duration(a.avgNanos.Load())
	if avg > 2*time.Second {
		t.Fatalf("one 10s outlier dragged the EWMA to %v — not bounded", avg)
	}
	if avg <= 100*time.Millisecond {
		t.Fatalf("EWMA %v ignored the outlier entirely", avg)
	}
}

func TestAdmissionBurstShedsOnlyTheExcess(t *testing.T) {
	leakcheck.Check(t)
	a := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 2})
	// Hold the only slot, then land a 20-request burst at once: exactly
	// MaxQueue may wait, the other 17 must shed immediately with ErrShed
	// (the burst path — queued.Add races resolved by the unique
	// post-increment each arrival observes).
	hold, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	const burst = 20
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		shed, ok   int
		unexpected []error
	)
	shedSeen := make(chan struct{}, burst)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := a.Acquire(ctx)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
				rel.Release()
			case errors.Is(err, ErrShed):
				shed++
				shedSeen <- struct{}{}
			default:
				unexpected = append(unexpected, err)
			}
		}()
	}
	// The slot stays held until the whole burst has landed — until every
	// arrival beyond the queue has shed. Freeing it as soon as two are
	// queued lets the queue drain while the burst is still arriving, and
	// late arrivals are then rightly admitted instead of shed.
	for i := 0; i < burst-2; i++ {
		select {
		case <-shedSeen:
		case <-ctx.Done():
			t.Fatalf("only %d of the burst shed with the slot held, want %d", i, burst-2)
		}
	}
	hold.Release()
	wg.Wait()

	if len(unexpected) > 0 {
		t.Fatalf("unexpected acquire errors: %v", unexpected)
	}
	if shed != burst-2 {
		t.Fatalf("burst of %d against queue 2: %d shed, want %d", burst, shed, burst-2)
	}
	if ok != 2 {
		t.Fatalf("%d queued requests eventually admitted, want 2", ok)
	}
	if a.InFlight() != 0 || a.Queued() != 0 {
		t.Fatalf("gate not empty after the burst: inflight %d queued %d", a.InFlight(), a.Queued())
	}
}

// TestQueuedRequestEndsAtItsDeadline: a request's deadline is a time, not
// a timer that closes its context's Done, so the admission queue arms a
// timer of its own. With the one slot held, a request of timeout_ms 30 —
// single or batch — answers 429 deadline_in_queue at its deadline, not
// when the slot frees, and leaves the line.
func TestQueuedRequestEndsAtItsDeadline(t *testing.T) {
	leakcheck.Check(t)
	log := &syncBuffer{}
	s, ts := newTestServer(t, Config{
		Admission: AdmissionConfig{MaxInFlight: 1},
		AccessLog: log,
	})
	rel, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer rel.Release()
	const timeoutMS = 30
	for i, c := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/match", map[string]any{"record": l1Record("q1"), "timeout_ms": timeoutMS}},
		{"/v1/match/batch", map[string]any{"records": []map[string]any{l0Record("q0"), l1Record("q1")}, "timeout_ms": timeoutMS}},
	} {
		data, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+c.path, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("queued-%d", i)
		req.Header.Set("X-Request-Id", id)
		start := time.Now()
		// A wait that no timer ends would last as long as the held slot.
		resp, err := (&http.Client{Timeout: 2 * time.Second}).Do(req)
		if err != nil {
			t.Fatalf("%s queued behind a held slot: %v", c.path, err)
		}
		var answer ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&answer)
		resp.Body.Close()
		took := time.Since(start)
		if err != nil || resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(answer.Error, "deadline expired in admission queue") {
			t.Fatalf("%s queued behind a held slot: status %d, %+v (err %v), want 429 deadline expired", c.path, resp.StatusCode, answer, err)
		}
		if took < timeoutMS*time.Millisecond || took > time.Second/2 {
			t.Fatalf("%s answered its %d ms deadline in the queue after %v", c.path, timeoutMS, took)
		}
		ev := eventFor(log.waitEvents(t, i+1), id)
		if ev == nil || ev["admission"] != AdmissionDeadlineInQueue || ev["outcome"] != "shed" {
			t.Fatalf("%s: wide event %v, want admission %s, outcome shed", c.path, ev, AdmissionDeadlineInQueue)
		}
		if q := s.adm.Queued(); q != 0 {
			t.Fatalf("%s: %d still queued after the deadline, want 0", c.path, q)
		}
	}
}
