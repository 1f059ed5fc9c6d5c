package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestDisarmedIsNoop(t *testing.T) {
	Reset()
	if err := Inject("nowhere"); err != nil {
		t.Fatalf("disarmed inject: %v", err)
	}
	if Count("nowhere") != 0 {
		t.Fatal("disarmed site must not count")
	}
}

func TestEveryCallFiresByDefault(t *testing.T) {
	defer Reset()
	Enable("s", Plan{})
	for i := 0; i < 3; i++ {
		if err := Inject("s"); err == nil {
			t.Fatalf("call %d should fire", i)
		}
	}
	if Count("s") != 3 {
		t.Fatalf("count=%d", Count("s"))
	}
	// Other sites stay silent.
	if err := Inject("other"); err != nil {
		t.Fatalf("unarmed site fired: %v", err)
	}
}

func TestFailFirstIsTransient(t *testing.T) {
	defer Reset()
	sentinel := errors.New("boom")
	Enable("s", Plan{FailFirst: 2, Err: sentinel})
	if err := Inject("s"); !errors.Is(err, sentinel) {
		t.Fatalf("call 1: %v", err)
	}
	if err := Inject("s"); !errors.Is(err, sentinel) {
		t.Fatalf("call 2: %v", err)
	}
	if err := Inject("s"); err != nil {
		t.Fatalf("call 3 should recover: %v", err)
	}
}

func TestOnCall(t *testing.T) {
	defer Reset()
	Enable("s", Plan{OnCall: 2})
	if err := Inject("s"); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	if err := Inject("s"); err == nil {
		t.Fatal("call 2 should fire")
	}
	if err := Inject("s"); err != nil {
		t.Fatalf("call 3: %v", err)
	}
}

func TestIndicesFireRegardlessOfOrder(t *testing.T) {
	defer Reset()
	Enable("s", Plan{Indices: []int{5, 1}})
	for _, idx := range []int{3, 5, 0, 1, 2} {
		err := InjectIdx("s", idx)
		want := idx == 5 || idx == 1
		if (err != nil) != want {
			t.Fatalf("idx %d: err=%v want fire=%v", idx, err, want)
		}
	}
	// Plain Inject never matches an index plan.
	if err := Inject("s"); err != nil {
		t.Fatalf("index plan fired on indexless inject: %v", err)
	}
}

func TestPanicMode(t *testing.T) {
	defer Reset()
	Enable("s", Plan{Mode: ModePanic})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(r.(string), `site "s"`) {
			t.Fatalf("panic message: %v", r)
		}
	}()
	Inject("s")
}

func TestSleepMode(t *testing.T) {
	defer Reset()
	Enable("s", Plan{Mode: ModeSleep, Sleep: 20 * time.Millisecond})
	start := time.Now()
	if err := Inject("s"); err != nil {
		t.Fatalf("sleep mode returned error: %v", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("sleep mode did not sleep")
	}
}

func TestSeededProbIsDeterministic(t *testing.T) {
	defer Reset()
	run := func() []bool {
		Enable("s", Plan{Prob: 0.5, Seed: 7})
		out := make([]bool, 20)
		for i := range out {
			out[i] = Inject("s") != nil
		}
		return out
	}
	a, b := run(), run()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs across identically seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob 0.5 fired %d/%d times", fired, len(a))
	}
}

func TestDisable(t *testing.T) {
	defer Reset()
	Enable("a", Plan{})
	Enable("b", Plan{})
	Disable("a")
	if err := Inject("a"); err != nil {
		t.Fatalf("disabled site fired: %v", err)
	}
	if err := Inject("b"); err == nil {
		t.Fatal("remaining site should still fire")
	}
}
