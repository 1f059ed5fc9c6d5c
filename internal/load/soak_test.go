package load

import (
	"context"
	"testing"
	"time"

	"emgo/internal/leakcheck"
	"emgo/internal/obs/slo"
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

func mustObjectives(t *testing.T, spec string) []slo.Objective {
	t.Helper()
	obj, err := slo.ParseObjectives(spec)
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
	gr := gate.Evaluate(context.Background(), res)
	if c := gateCheck(t, gr, "availability"); !c.Pass {
		t.Fatalf("availability check failed with sheds excluded: %s", c.Detail)
	}
	// 20 server errors: 1000/1020 = 98.0% — breached.
	res = mkResult(map[string]int64{ClassOK: 1000, ClassShed: 500, ClassServerError: 20})
	gr = gate.Evaluate(context.Background(), res)
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
	if gr := gate.Evaluate(context.Background(), res); !gr.Pass {
		t.Fatalf("20ms p99 failed a 100ms objective: %+v", gr.Checks)
	}

	slow := NewRecorder()
	slow.Start()
	for i := 0; i < 100; i++ {
		slow.Observe(Outcome{Kind: KindSingle, Class: ClassOK}, 400e6) // 400ms
	}
	res = &Result{Snapshot: slow.Snapshot()}
	res.Scheduled, res.Sent = res.Completed, res.Completed
	if gr := gate.Evaluate(context.Background(), res); gr.Pass {
		t.Fatal("400ms p99 passed a 100ms objective")
	}
}

func TestGateUnexpectedAnswers(t *testing.T) {
	gate := Gate{}
	res := mkResult(map[string]int64{ClassOK: 100, ClassUnexpected: 1})
	if gr := gate.Evaluate(context.Background(), res); gr.Pass {
		t.Fatal("an unexpected answer passed the zero-tolerance gate")
	}
	res = mkResult(map[string]int64{ClassOK: 100})
	if gr := gate.Evaluate(context.Background(), res); !gr.Pass {
		t.Fatalf("a run with no unexpected answer failed the gate: %+v", gr.Checks)
	}
}

func TestGateShedRetryAfterContract(t *testing.T) {
	gate := Gate{}
	res := mkResult(map[string]int64{ClassOK: 100, ClassShed: 10})
	res.ShedNoRetryAfter = 3
	gr := gate.Evaluate(context.Background(), res)
	if c := gateCheck(t, gr, "shed_retry_after"); c.Pass {
		t.Fatal("sheds without Retry-After passed the contract check")
	}
	res.ShedNoRetryAfter = 0
	gr = gate.Evaluate(context.Background(), res)
	if c := gateCheck(t, gr, "shed_retry_after"); !c.Pass {
		t.Fatalf("clean sheds failed the contract check: %s", c.Detail)
	}
}

func TestGateJobFailures(t *testing.T) {
	gate := Gate{}
	res := mkResult(map[string]int64{ClassOK: 10})
	res.JobsSubmitted, res.JobsFailed = 3, 1
	if gr := gate.Evaluate(context.Background(), res); gr.Pass {
		t.Fatal("a failed job passed the zero-tolerance gate")
	}
	res.JobsFailed = 0
	if gr := gate.Evaluate(context.Background(), res); !gr.Pass {
		t.Fatal("healthy jobs failed the gate")
	}
}

func TestGateGeneratorDrops(t *testing.T) {
	gate := Gate{}
	res := mkResult(map[string]int64{ClassOK: 100})
	res.Scheduled = 200
	res.Dropped = 100 // 50% dropped: the measurement is garbage
	if gr := gate.Evaluate(context.Background(), res); gr.Pass {
		t.Fatal("50% generator drops passed the gate")
	}
}

func TestEvaluateStepVerdicts(t *testing.T) {
	cfg := CapacityConfig{}.withDefaults()

	rec := NewRecorder()
	rec.Start()
	for i := 0; i < 200; i++ {
		rec.Observe(Outcome{Kind: KindSingle, Class: ClassOK}, 10e6)
	}
	res := &Result{Snapshot: rec.Snapshot(), AchievedQPS: 100}
	res.Scheduled, res.Sent = res.Completed, res.Completed
	if step := evaluateStep(cfg, 100, res); !step.Pass {
		t.Fatalf("healthy step failed: %s", step.Reason)
	}

	slow := NewRecorder()
	slow.Start()
	for i := 0; i < 200; i++ {
		slow.Observe(Outcome{Kind: KindSingle, Class: ClassOK}, 900e6) // 900ms > 500ms target
	}
	res = &Result{Snapshot: slow.Snapshot()}
	res.Scheduled, res.Sent = res.Completed, res.Completed
	if step := evaluateStep(cfg, 100, res); step.Pass {
		t.Fatal("900ms p99 passed a 500ms capacity bar")
	}

	shed := NewRecorder()
	shed.Start()
	for i := 0; i < 100; i++ {
		class := ClassOK
		if i < 20 {
			class = ClassShed // 20% shed > 5% budget
		}
		shed.Observe(Outcome{Kind: KindSingle, Class: class}, 10e6)
	}
	res = &Result{Snapshot: shed.Snapshot()}
	res.Scheduled, res.Sent = res.Completed, res.Completed
	if step := evaluateStep(cfg, 100, res); step.Pass {
		t.Fatal("20% sheds passed the 5% capacity budget")
	}
}

func TestSearchCapacityStopsAtFirstFailingStep(t *testing.T) {
	leakcheck.Check(t)
	ts := newDelayServer(t, 5*time.Millisecond)
	cres, err := SearchCapacity(context.Background(), CapacityConfig{
		StartQPS:     10,
		MaxQPS:       40,
		Factor:       2,
		StepDuration: 500 * time.Millisecond,
		P99TargetMS:  1, // unholdable: a 5ms service time can never pass
		Schedule:     ScheduleConfig{Profile: ProfileUniform, PickN: 8},
		Client:       ClientConfig{BaseURL: ts.URL},
		Pool:         testPool(8),
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
		StartQPS:     10,
		MaxQPS:       20,
		Factor:       2,
		StepDuration: 500 * time.Millisecond,
		P99TargetMS:  5000,
		Schedule:     ScheduleConfig{Profile: ProfileUniform, PickN: 8},
		Client:       ClientConfig{BaseURL: ts.URL},
		Pool:         testPool(8),
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
