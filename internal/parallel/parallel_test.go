package parallel

import (
	"context"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	f := func(n uint8) bool {
		nn := int(n)
		counts := make([]int32, nn)
		if err := ForCtx(context.Background(), nn, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		}); err != nil {
			return false
		}
		for _, c := range counts {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestForWorkersBothPaths: a worker count below 2 takes the serial path,
// one above n is cut to n; either way every index runs once.
func TestForWorkersBothPaths(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 100} {
		out := make([]int32, 50)
		if err := ForWorkersCtx(context.Background(), 50, workers, func(i int) error {
			atomic.AddInt32(&out[i], 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range out {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}
