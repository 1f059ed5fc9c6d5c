package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"emgo/internal/leakcheck"
)

func TestForCtxMatchesSerial(t *testing.T) {
	const n = 1000
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	got := make([]int, n)
	if err := ForCtx(context.Background(), n, func(i int) error {
		got[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestForCtxChunksCoverEveryIndexOnce: whatever n and the worker count
// make of the chunk size — one index, a ragged last chunk, the cap — a
// successful run calls fn exactly once per index.
func TestForCtxChunksCoverEveryIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 7, 255, 256, 257, 1000, 4097, 70001} {
		for _, workers := range []int{1, 2, 3, 8, 64} {
			calls := make([]atomic.Int32, n)
			if err := ForWorkersCtx(context.Background(), n, workers, func(i int) error {
				calls[i].Add(1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d called %d times", n, workers, i, c)
				}
			}
		}
	}
}

func TestForCtxWorkerPanicBecomesError(t *testing.T) {
	out := make([]int, 100)
	err := ForWorkersCtx(context.Background(), 100, 4, func(i int) error {
		if i == 37 {
			panic("kaboom")
		}
		out[i] = 1
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Index != 37 {
		t.Fatalf("panic index = %d", pe.Index)
	}
	if !strings.Contains(err.Error(), "index 37") || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("error message: %v", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic error should carry a stack")
	}
	if idx, ok := FailingIndex(err); !ok || idx != 37 {
		t.Fatalf("FailingIndex = %d, %v", idx, ok)
	}
}

func TestForCtxErrorCarriesIndex(t *testing.T) {
	sentinel := errors.New("bad row")
	err := ForWorkersCtx(context.Background(), 50, 4, func(i int) error {
		if i == 12 {
			return sentinel
		}
		return nil
	})
	var ie *IndexError
	if !errors.As(err, &ie) || ie.Index != 12 {
		t.Fatalf("err: %v", err)
	}
	if !errors.Is(err, sentinel) {
		t.Fatal("wrapped error lost")
	}
	if idx, ok := FailingIndex(err); !ok || idx != 12 {
		t.Fatalf("FailingIndex = %d, %v", idx, ok)
	}
}

func TestForCtxLowestIndexWinsWhenSerial(t *testing.T) {
	// Serial path: the first failing index is returned even when later
	// ones would fail too.
	err := ForWorkersCtx(context.Background(), 10, 1, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if idx, ok := FailingIndex(err); !ok || idx != 3 {
		t.Fatalf("err: %v", err)
	}
}

func TestForCtxStopsDispatchAfterFailure(t *testing.T) {
	var calls atomic.Int64
	err := ForWorkersCtx(context.Background(), 10000, 4, func(i int) error {
		calls.Add(1)
		if i == 0 {
			return errors.New("early")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := calls.Load(); n >= 10000 {
		t.Fatalf("failure did not stop dispatch: %d calls", n)
	}
}

func TestForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := ForCtx(ctx, 100, func(i int) error { calls++; return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	if calls != 0 {
		t.Fatalf("pre-cancelled run executed %d calls", calls)
	}
	if _, ok := FailingIndex(err); ok {
		t.Fatal("cancellation has no failing index")
	}
}

func TestForCtxCancellationPromptNoLeak(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 5000
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		done <- ForWorkersCtx(ctx, n, 4, func(i int) error {
			started.Add(1)
			// Each in-flight item blocks until cancellation, so the run
			// can only finish early by honouring ctx.
			<-ctx.Done()
			return nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled ForCtx did not return")
	}
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err: %v", err)
	}
	if got := started.Load(); got >= n {
		t.Fatalf("cancellation did not stop dispatch: %d items started", got)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("cancelled run took %v", elapsed)
	}
}

func TestForCtxNoLeakAfterPanic(t *testing.T) {
	leakcheck.Check(t)
	for round := 0; round < 10; round++ {
		err := ForWorkersCtx(context.Background(), 200, 8, func(i int) error {
			if i == 100 {
				panic("leak check")
			}
			return nil
		})
		if err == nil {
			t.Fatal("expected error")
		}
	}
}

func TestForCtxZeroAndNegativeN(t *testing.T) {
	if err := ForCtx(context.Background(), 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForCtx(context.Background(), -3, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}
