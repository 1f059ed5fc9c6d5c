package load

import (
	"context"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

// mkResult synthesizes a Result with the given class counts.
func mkResult(classes map[string]int64) *Result {
	res := &Result{}
	res.Classes = classes
	for _, n := range classes {
		res.Completed += n
	}
	res.Scheduled = res.Completed
	res.Sent = res.Completed
	return res
}

func gateCheck(t *testing.T, gr *GateResult, name string) GateCheck {
	t.Helper()
	for _, c := range gr.Checks {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("gate has no check %q: %+v", name, gr.Checks)
	return GateCheck{}
}

func mustObjectives(t *testing.T, spec string) []Objective {
	t.Helper()
	obj, err := ParseObjectives(spec)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestGateAvailabilityExcludesSheds(t *testing.T) {
	leakcheck.Check(t)
	gate := Gate{Objectives: mustObjectives(t, "availability=99")}
	// 1000 ok + 500 shed + 5 server errors: availability over non-shed
	// answers is 1000/1005 = 99.5% — passing, because sheds are
	// admission policy, not failures.
	res := mkResult(map[string]int64{ClassOK: 1000, ClassShed: 500, ClassServerError: 5})
	gr := gate.Evaluate(res)
	if c := gateCheck(t, gr, "availability"); !c.Pass {
		t.Fatalf("availability check failed with sheds excluded: %s", c.Detail)
	}
	// 20 server errors: 1000/1020 = 98.0% — breached.
	res = mkResult(map[string]int64{ClassOK: 1000, ClassShed: 500, ClassServerError: 20})
	gr = gate.Evaluate(res)
	if c := gateCheck(t, gr, "availability"); c.Pass {
		t.Fatal("2% server errors passed a 99% availability objective")
	}
	if gr.Pass {
		t.Fatal("gate passed with a breached objective")
	}
}

func TestGateLatencyObjective(t *testing.T) {
	leakcheck.Check(t)
	gate := Gate{Objectives: mustObjectives(t, "latency=100ms@99")}

	rec := NewRecorder()
	rec.Start()
	for i := 0; i < 100; i++ {
		rec.Observe(Outcome{Kind: KindSingle, Class: ClassOK}, 20e6) // 20ms
	}
	res := &Result{Snapshot: rec.Snapshot()}
	res.Scheduled, res.Sent = res.Completed, res.Completed
	if gr := gate.Evaluate(res); !gr.Pass {
		t.Fatalf("20ms p99 failed a 100ms objective: %+v", gr.Checks)
	}

	slow := NewRecorder()
	slow.Start()
	for i := 0; i < 100; i++ {
		slow.Observe(Outcome{Kind: KindSingle, Class: ClassOK}, 400e6) // 400ms
	}
	res = &Result{Snapshot: slow.Snapshot()}
	res.Scheduled, res.Sent = res.Completed, res.Completed
	if gr := gate.Evaluate(res); gr.Pass {
		t.Fatal("400ms p99 passed a 100ms objective")
	}
}

func TestGateUnexpectedAnswers(t *testing.T) {
	gate := Gate{}
	res := mkResult(map[string]int64{ClassOK: 100, ClassUnexpected: 1})
	if gr := gate.Evaluate(res); gr.Pass {
		t.Fatal("an unexpected answer passed the zero-tolerance gate")
	}
	res = mkResult(map[string]int64{ClassOK: 100})
	if gr := gate.Evaluate(res); !gr.Pass {
		t.Fatalf("a run with no unexpected answer failed the gate: %+v", gr.Checks)
	}
}

func TestGateShedRetryAfterContract(t *testing.T) {
	gate := Gate{}
	res := mkResult(map[string]int64{ClassOK: 100, ClassShed: 10})
	res.ShedNoRetryAfter = 3
	gr := gate.Evaluate(res)
	if c := gateCheck(t, gr, "shed_retry_after"); c.Pass {
		t.Fatal("sheds without Retry-After passed the contract check")
	}
	res.ShedNoRetryAfter = 0
	gr = gate.Evaluate(res)
	if c := gateCheck(t, gr, "shed_retry_after"); !c.Pass {
		t.Fatalf("clean sheds failed the contract check: %s", c.Detail)
	}
}

func TestGateGeneratorDrops(t *testing.T) {
	gate := Gate{}
	res := mkResult(map[string]int64{ClassOK: 100})
	res.Scheduled = 200
	res.Dropped = 100 // 50% dropped: the measurement is garbage
	if gr := gate.Evaluate(res); gr.Pass {
		t.Fatal("50% generator drops passed the gate")
	}
}

// TestCapacityStepVerdicts: a capacity step is judged by the gate over
// the -slo objectives plus its own two bars; every row is one step.
func TestCapacityStepVerdicts(t *testing.T) {
	objectives := mustObjectives(t, "availability=99,latency=500ms@99")
	step := func(n int, latency time.Duration, class func(i int) string) *Result {
		rec := NewRecorder()
		rec.Start()
		for i := 0; i < n; i++ {
			rec.Observe(Outcome{Kind: KindSingle, Class: class(i)}, latency)
		}
		res := &Result{Snapshot: rec.Snapshot(), AchievedQPS: 100}
		res.Scheduled, res.Sent = res.Completed, res.Completed
		return res
	}
	ok := func(int) string { return ClassOK }
	for _, tc := range []struct {
		name   string
		res    *Result
		failed string // the check that fails the step; "" = the step passes
	}{
		{"healthy", step(200, 10*time.Millisecond, ok), ""},
		{"900ms p99 over a 500ms bar", step(200, 900*time.Millisecond, ok), "latency_500ms"},
		{"20% shed over the 5% budget", step(100, 10*time.Millisecond, func(i int) string {
			if i < 20 {
				return ClassShed
			}
			return ClassOK
		}), "shed"},
		{"one unexpected answer", step(200, 10*time.Millisecond, func(i int) string {
			if i == 0 {
				return ClassUnexpected
			}
			return ClassOK
		}), "unexpected_answers"},
		{"nothing completed", step(0, 0, ok), "completed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := judgeStep(objectives, tc.res)
			if tc.failed == "" {
				if !g.Pass {
					t.Fatalf("step failed: %s", g.verdict())
				}
				return
			}
			if g.Pass {
				t.Fatalf("step passed, want check %s to fail", tc.failed)
			}
			if c := gateCheck(t, g, tc.failed); c.Pass {
				t.Fatalf("check %s passed (%s); the step failed on: %s", tc.failed, c.Detail, g.verdict())
			}
		})
	}
}

func TestSearchCapacityStopsAtFirstFailingStep(t *testing.T) {
	leakcheck.Check(t)
	ts := newDelayServer(t, 5*time.Millisecond)
	first := RunConfig{
		Schedule: ScheduleConfig{Profile: ProfileUniform, Rate: 10, Duration: 500 * time.Millisecond, PickN: 8},
		Client:   ClientConfig{BaseURL: ts.URL},
		Pool:     testPool(8),
	}
	cres, err := SearchCapacity(context.Background(), CapacityConfig{
		RunConfig:  first,
		MaxQPS:     40,
		Factor:     2,
		Objectives: mustObjectives(t, "availability=99,latency=1ms@99"), // unholdable: a 5ms service time can never pass
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cres.Steps) != 1 {
		t.Fatalf("search ran %d steps past a failing first step", len(cres.Steps))
	}
	if cres.MaxSustainableQPS != 0 {
		t.Fatalf("max sustainable %.1f with no passing step", cres.MaxSustainableQPS)
	}

	ok, err := SearchCapacity(context.Background(), CapacityConfig{
		RunConfig:  first,
		MaxQPS:     20,
		Factor:     2,
		Objectives: mustObjectives(t, "availability=99,latency=5s@99"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok.MaxSustainableQPS != 20 {
		t.Fatalf("max sustainable %.1f, want 20 (both steps hold a 5s bar)", ok.MaxSustainableQPS)
	}
	if len(ok.Steps) != 2 {
		t.Fatalf("search ran %d steps, want 2", len(ok.Steps))
	}
}

// TestSearchCapacityNeverJudgesACutStep: a step the context cuts short
// is not judged, so an interrupted search sustains nothing it did not
// finish measuring.
func TestSearchCapacityNeverJudgesACutStep(t *testing.T) {
	leakcheck.Check(t)
	ts := newDelayServer(t, time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	cres, err := SearchCapacity(ctx, CapacityConfig{
		RunConfig: RunConfig{
			Schedule: ScheduleConfig{Profile: ProfileUniform, Rate: 20, Duration: 500 * time.Millisecond, PickN: 8},
			Client:   ClientConfig{BaseURL: ts.URL},
			Pool:     testPool(8),
		},
		MaxQPS:     20,
		Objectives: mustObjectives(t, "availability=99,latency=5s@99"),
	})
	if err == nil {
		t.Fatal("a search cut short returned no error")
	}
	if cres.MaxSustainableQPS != 0 || len(cres.Steps) != 0 {
		t.Fatalf("a step cut short was judged: max sustainable %.1f over %d step(s)", cres.MaxSustainableQPS, len(cres.Steps))
	}
}
