package parallel

import (
	"context"
	"runtime"
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

// TestFreeListKeepsItsCountAcrossCollections: a free list keeps as many
// idle values as it was made for, through collections, and drops the
// rest of a burst.
func TestFreeListKeepsItsCountAcrossCollections(t *testing.T) {
	made := 0
	l := NewFreeList(2, func() *[]int { made++; return new([]int) })
	burst := []*[]int{l.Get(), l.Get(), l.Get()}
	for _, v := range burst {
		l.Put(v)
	}
	runtime.GC()
	runtime.GC()
	kept := map[*[]int]bool{l.Get(): true, l.Get(): true}
	if !kept[burst[0]] || !kept[burst[1]] || made != 3 {
		t.Fatalf("after a burst of 3 and two collections the list gave back %v, made %d; want the first two, 3 made", kept, made)
	}
	if l.Get(); made != 4 {
		t.Fatalf("the list kept a third value past its count of 2")
	}
}

// TestEmptiedDropsLargeLists: a list is emptied in place up to 64 Ki
// elements' room, and let go past that.
func TestEmptiedDropsLargeLists(t *testing.T) {
	small := make([]int32, 10, 1<<16)
	if got := Emptied(small); len(got) != 0 || cap(got) != 1<<16 {
		t.Fatalf("Emptied(room 64 Ki) = len %d cap %d, want the same room emptied", len(got), cap(got))
	}
	if got := Emptied(make([]int32, 1, 1<<16+1)); got != nil {
		t.Fatalf("Emptied(room 64 Ki + 1) kept cap %d, want nil", cap(got))
	}
}
