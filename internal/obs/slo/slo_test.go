package slo

import (
	"sync"
	"testing"
	"time"
)

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

// near tolerates float64 division rounding.
func near(got, want float64) bool {
	return got > want-1e-9 && got < want+1e-9
}

func newTestTracker(cfg Config) (*Tracker, *fakeClock) {
	t := New(cfg)
	clk := &fakeClock{t: time.Unix(1700000000, 0)}
	t.now = clk.now
	return t, clk
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("availability=99.9,latency=250ms@99")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives", len(objs))
	}
	if objs[0].Kind != KindAvailability || objs[0].Target != 99.9 {
		t.Fatalf("availability = %+v", objs[0])
	}
	if objs[1].Kind != KindLatency || objs[1].ThresholdMS != 250 || objs[1].Target != 99 {
		t.Fatalf("latency = %+v", objs[1])
	}
	if objs[1].Name != "latency_250ms" {
		t.Fatalf("latency name = %q", objs[1].Name)
	}
}

func TestParseObjectivesRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"", "availability", "availability=101", "availability=0",
		"latency=250ms", "latency=@99", "latency=-1s@99",
		"bogus=1", "availability=99,availability=98",
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) = nil error, want failure", bad)
		}
	}
}

func TestHealthyWindowNoBreach(t *testing.T) {
	tr, _ := newTestTracker(Config{
		Objectives: []Objective{{Name: "availability", Kind: KindAvailability, Target: 99}},
	})
	for i := 0; i < 1000; i++ {
		tr.Observe(1, false)
	}
	rep := tr.Evaluate()
	if rep.Breached {
		t.Fatalf("healthy window breached: %+v", rep.Objectives)
	}
	st := rep.Objectives[0]
	if st.FastBurn != 0 || st.SlowBurn != 0 {
		t.Fatalf("burn = %g/%g, want 0/0", st.FastBurn, st.SlowBurn)
	}
	if st.FastTotal != 1000 || st.SlowTotal != 1000 {
		t.Fatalf("totals = %d/%d, want 1000/1000", st.FastTotal, st.SlowTotal)
	}
}

func TestAvailabilityBreachNeedsBothWindows(t *testing.T) {
	tr, _ := newTestTracker(Config{
		Objectives: []Objective{{Name: "availability", Kind: KindAvailability, Target: 99}},
	})
	// 100% failure: burn = 1.0/0.01 = 100 in both windows (same buckets).
	for i := 0; i < 100; i++ {
		tr.Observe(1, true)
	}
	rep := tr.Evaluate()
	if !rep.Breached {
		t.Fatalf("want breach, got %+v", rep.Objectives[0])
	}
	if got := rep.Objectives[0].FastBurn; !near(got, 100) {
		t.Fatalf("fast burn = %g, want ~100", got)
	}
}

func TestOldErrorsAgeOutOfFastWindow(t *testing.T) {
	tr, clk := newTestTracker(Config{
		Objectives: []Objective{{Name: "availability", Kind: KindAvailability, Target: 99}},
	})
	for i := 0; i < 100; i++ {
		tr.Observe(1, true)
	}
	// Past the fast window, with healthy traffic since: fast burn falls
	// to zero, slow burn still sees the spike — no page.
	clk.advance(2 * FastWindow)
	for i := 0; i < 100; i++ {
		tr.Observe(1, false)
	}
	rep := tr.Evaluate()
	st := rep.Objectives[0]
	if st.FastBurn != 0 {
		t.Fatalf("fast burn = %g, want 0 (errors aged out)", st.FastBurn)
	}
	if st.SlowBurn <= 0 {
		t.Fatalf("slow burn = %g, want > 0 (spike inside slow window)", st.SlowBurn)
	}
	if rep.Breached {
		t.Fatal("one-window burn must not breach")
	}

	// Past the slow window too: everything healthy.
	clk.advance(SlowWindow + time.Minute)
	tr.Observe(1, false)
	rep = tr.Evaluate()
	if st := rep.Objectives[0]; st.SlowBurn != 0 || st.SlowBad != 0 {
		t.Fatalf("slow window did not age out: %+v", st)
	}
}

func TestLatencyObjective(t *testing.T) {
	tr, _ := newTestTracker(Config{
		Objectives: []Objective{
			{Name: "latency_100ms", Kind: KindLatency, Target: 90, ThresholdMS: 100},
		},
	})
	for i := 0; i < 50; i++ {
		tr.Observe(10, false) // fast
	}
	for i := 0; i < 50; i++ {
		tr.Observe(500, false) // slow: 50% over budget of 10%
	}
	rep := tr.Evaluate()
	st := rep.Objectives[0]
	if st.FastBad != 50 {
		t.Fatalf("fast bad = %d, want 50", st.FastBad)
	}
	if !near(st.FastBurn, 5) { // 0.5 bad ratio / 0.1 budget
		t.Fatalf("fast burn = %g, want ~5", st.FastBurn)
	}
	if rep.Breached { // 5 < 14.4
		t.Fatal("burn below threshold must not breach")
	}
}

func TestEmptyTrackerAndNil(t *testing.T) {
	var nilT *Tracker
	nilT.Observe(1, true)
	if rep := nilT.Evaluate(); rep != nil {
		t.Fatalf("nil tracker Evaluate = %+v", rep)
	}
	tr, _ := newTestTracker(Config{})
	rep := tr.Evaluate()
	if rep.Breached || len(rep.Objectives) != 2 {
		t.Fatalf("empty default tracker: %+v", rep)
	}
}

func TestConcurrentObserve(t *testing.T) {
	tr, _ := newTestTracker(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Observe(float64(i%700), i%10 == 0)
			}
		}()
	}
	wg.Wait()
	rep := tr.Evaluate()
	for _, st := range rep.Objectives {
		if st.SlowTotal != 4000 {
			t.Fatalf("%s slow total = %d, want 4000", st.Name, st.SlowTotal)
		}
	}
}
