package retry

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestZeroPolicySingleAttempt(t *testing.T) {
	calls := 0
	sentinel := errors.New("boom")
	err := Do(context.Background(), Policy{}, func() error {
		calls++
		return sentinel
	})
	if calls != 1 {
		t.Fatalf("calls=%d", calls)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("err: %v", err)
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

func TestTransientThenSuccess(t *testing.T) {
	calls := 0
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond}
	err := Do(context.Background(), p, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

func TestExhaustedReportsAttempts(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond}
	calls := 0
	err := Do(context.Background(), p, func() error { calls++; return errors.New("always") })
	if calls != 3 {
		t.Fatalf("calls = %d", calls)
	}
	if err == nil || !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("err: %v", err)
	}
}

func TestCancelledDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 3, BaseDelay: time.Hour} // would sleep forever
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	calls := 0
	err := Do(ctx, p, func() error { calls++; return errors.New("transient") })
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancel did not interrupt backoff")
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Do(ctx, Policy{MaxAttempts: 3}, func() error { calls++; return nil })
	if calls != 0 {
		t.Fatalf("calls=%d", calls)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
}
