package retry

import (
	"fmt"
	"testing"
	"time"
)

// TestZeroPolicySingleAttempt: the zero policy schedules no retry, so a
// client built with it (emload without -shed-retries) tries once and
// never sleeps.
func TestZeroPolicySingleAttempt(t *testing.T) {
	for _, p := range []Policy{{}, {MaxAttempts: 1, BaseDelay: time.Second}} {
		if got := p.Schedule(); len(got) != 0 {
			t.Fatalf("%+v schedules retries %v, want a single attempt", p, got)
		}
	}
}

func TestScheduleDeterministicAndCapped(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 40}
	got := p.Schedule()
	if len(got) != len(want) {
		t.Fatalf("schedule: %v", got)
	}
	for i := range want {
		if got[i] != want[i]*time.Millisecond {
			t.Fatalf("delay %d = %v, want %v", i, got[i], want[i]*time.Millisecond)
		}
	}
	// Identical policies produce identical schedules.
	if fmt.Sprint(p.Schedule()) != fmt.Sprint(got) {
		t.Fatal("schedule not reproducible")
	}
}

func TestSeededJitterDeterministicPerSeed(t *testing.T) {
	base := Policy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	a := base
	a.Seed = 1
	b := base
	b.Seed = 2
	if fmt.Sprint(a.Schedule()) != fmt.Sprint(a.Schedule()) {
		t.Fatal("seeded schedule not reproducible")
	}
	if fmt.Sprint(a.Schedule()) == fmt.Sprint(b.Schedule()) {
		t.Fatal("different seeds should jitter differently")
	}
	for i, d := range a.Schedule() {
		lo := base.Schedule()[i] / 2
		hi := base.Schedule()[i] * 3 / 2
		if d < lo || d >= hi {
			t.Fatalf("jittered delay %d = %v outside [%v,%v)", i, d, lo, hi)
		}
	}
}
