// Package parallel provides the deterministic fan-out helper the
// compute-heavy stages share (vectorization, forest training,
// leave-one-out debugging): work is split by index across workers and
// results land in preallocated slots, so concurrency never changes any
// output.
//
// ForCtx and ForWorkersCtx are the hardened runtime: they stop
// dispatching chunks on cancellation or first failure,
// recover worker panics into errors carrying the failing index and
// stack, and leak no goroutines — every worker has exited by the time
// they return.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError is a worker panic recovered by ForCtx, carrying the failing
// index and the worker's stack.
type PanicError struct {
	// Index is the work item whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking worker's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: worker panic at index %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// IndexError wraps an error returned by fn(i) with the index it failed
// at, so callers can name the failing item.
type IndexError struct {
	Index int
	Err   error
}

// Error implements error.
func (e *IndexError) Error() string {
	return fmt.Sprintf("parallel: index %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *IndexError) Unwrap() error { return e.Err }

// FailingIndex extracts the work-item index from an error returned by
// ForCtx/ForWorkersCtx (a PanicError or IndexError anywhere in the
// chain). ok is false for errors with no index, e.g. cancellation.
func FailingIndex(err error) (idx int, ok bool) {
	for err != nil {
		switch e := err.(type) {
		case *PanicError:
			return e.Index, true
		case *IndexError:
			return e.Index, true
		}
		u, isWrapped := err.(interface{ Unwrap() error })
		if !isWrapped {
			return 0, false
		}
		err = u.Unwrap()
	}
	return 0, false
}

// ForCtx runs fn(i) for every i in [0, n) across min(GOMAXPROCS, n)
// workers, honouring ctx. It returns nil when every call succeeded;
// otherwise the first failure by lowest index (*IndexError for returned
// errors, *PanicError for recovered panics), or ctx.Err() when cancelled
// before any failure. On cancellation or failure no new work is
// dispatched; already-running calls finish, and ForCtx returns only once
// every worker has exited (no goroutine leaks).
func ForCtx(ctx context.Context, n int, fn func(i int) error) error {
	return ForWorkersCtx(ctx, n, runtime.GOMAXPROCS(0), fn)
}

// maxChunk bounds how many consecutive indices one dispatch hands a
// worker, and with it how much work can still start after cancellation.
const maxChunk = 256

// ForWorkersCtx is ForCtx with an explicit worker count (values below 2
// run serially). The deterministic-output guarantee holds: a successful
// run executes fn for every index exactly once regardless of workers.
//
// Indices are dispatched in contiguous chunks — one channel send per
// chunk, not per index — sized so every worker still gets several
// (n/(8·workers), at most maxChunk, and 1 when n is small, so a few heavy
// items spread evenly). fn still runs, recovers and fails per index; a
// worker abandons the rest of its chunk on a failure, and cancellation
// is honoured between chunks.
func ForWorkersCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := call(i, fn); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(i int, err error) {
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}
	abort := make(chan struct{}) // closed on first failure to stop dispatch
	var closeAbort sync.Once

	chunk := min(max(n/(8*workers), 1), maxChunk)
	next := make(chan int) // carries each chunk's first index
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lo := range next {
				for i := lo; i < min(lo+chunk, n); i++ {
					if err := call(i, fn); err != nil {
						record(i, err)
						closeAbort.Do(func() { close(abort) })
						break
					}
				}
			}
		}()
	}

	done := ctx.Done()
	cancelled := false
dispatch:
	for lo := 0; lo < n; lo += chunk {
		// A ready worker must not win the race against a cancellation or
		// failure that is already visible: look before offering a chunk.
		select {
		case <-done:
			cancelled = true
			break dispatch
		case <-abort:
			break dispatch
		default:
		}
		select {
		case next <- lo:
		case <-done:
			cancelled = true
			break dispatch
		case <-abort:
			break dispatch
		}
	}
	close(next)
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// call invokes fn(i), converting a panic into a *PanicError and a
// returned error into an *IndexError.
func call(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if ferr := fn(i); ferr != nil {
		return &IndexError{Index: i, Err: ferr}
	}
	return nil
}
