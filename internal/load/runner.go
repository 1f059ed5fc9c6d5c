package load

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// defaultMaxOutstanding is the in-flight cap every emload run uses.
const defaultMaxOutstanding = 4096

// RunConfig drives one open-loop load phase.
type RunConfig struct {
	// Schedule describes the arrivals; Client the server and request
	// shapes; Pool the record source (may be nil for record-free blends).
	Schedule ScheduleConfig
	Client   ClientConfig
	Pool     *RecordPool
	// maxOutstanding caps concurrently in-flight requests — generator
	// self-protection, not pacing (0 = defaultMaxOutstanding; only tests
	// lower it). An arrival finding the cap full is counted as dropped,
	// never delayed: delaying it would re-introduce coordinated omission
	// through the back door.
	maxOutstanding int
	// ReportEvery prints a live eps/percentile line to Report at this
	// period (0 = silent).
	ReportEvery time.Duration
	// Report receives live lines (default io.Discard).
	Report io.Writer
	// JobWait bounds how long the end of the run waits for async jobs
	// submitted by the blend to finish (default 30s; 0 keeps default,
	// negative skips waiting).
	JobWait time.Duration
}

// Result is one load phase's full accounting.
type Result struct {
	Snapshot
	// Scheduled is how many arrivals the schedule held; Sent how many
	// were issued; Dropped how many the outstanding cap refused;
	// Unsent how many were abandoned on context cancellation.
	Scheduled int64
	Sent      int64
	Dropped   int64
	Unsent    int64
	// OfferedQPS is the schedule's rate over the wall clock; AchievedQPS
	// counts completed requests.
	OfferedQPS  float64
	AchievedQPS float64
	// JobsSubmitted/JobsCompleted/JobsFailed track blend-submitted async
	// jobs through their poll/fetch lifecycle.
	JobsSubmitted int64
	JobsCompleted int64
	JobsFailed    int64
}

// bad counts the answers every bar holds against the server: server
// errors, timeouts, net errors and unexpected answers. A shed answer is
// not bad; the bars count it apart.
func (r *Result) bad() int64 {
	return r.Classes[ClassServerError] + r.Classes[ClassTimeout] +
		r.Classes[ClassNetError] + r.Classes[ClassUnexpected]
}

// Run executes one open-loop phase: walk the schedule on the wall
// clock, dispatch every arrival the instant it is due, and account for
// every completion with its latency charged from the scheduled send
// time. Cancelling ctx abandons unsent arrivals (counted) and returns
// what was measured so far.
func Run(ctx context.Context, cfg RunConfig) (*Result, error) {
	sched, err := BuildSchedule(cfg.Schedule)
	if err != nil {
		return nil, err
	}
	if cfg.maxOutstanding <= 0 {
		cfg.maxOutstanding = defaultMaxOutstanding
	}
	if cfg.Report == nil {
		cfg.Report = io.Discard
	}
	if cfg.JobWait == 0 {
		cfg.JobWait = 30 * time.Second
	}
	needsRecords := cfg.Schedule.Blend.total() == 0 ||
		cfg.Schedule.Blend.Single > 0 || cfg.Schedule.Blend.Batch > 0 || cfg.Schedule.Blend.Job > 0
	if cfg.Pool == nil && needsRecords {
		return nil, fmt.Errorf("load: blend %q carries record-bearing requests but no record pool was given", cfg.Schedule.Blend.String())
	}

	client := NewClient(cfg.Client, cfg.Pool)
	defer client.CloseIdle()
	rec := NewRecorder()
	res := &Result{Scheduled: int64(len(sched))}
	watcher := newJobWatcher(client)

	// Live reporting rides its own ticker so a stalled server cannot
	// silence the heartbeat.
	repDone := make(chan struct{})
	var repWG sync.WaitGroup
	if cfg.ReportEvery > 0 {
		repWG.Add(1)
		go func() {
			defer repWG.Done()
			rep := &reporter{rec: rec, out: cfg.Report}
			t := time.NewTicker(cfg.ReportEvery)
			defer t.Stop()
			for {
				select {
				case <-repDone:
					return
				case <-t.C:
					rep.line()
				}
			}
		}()
	}

	rec.Start()
	start := time.Now()
	sem := make(chan struct{}, cfg.maxOutstanding)
	var wg sync.WaitGroup
	var sent, dropped int64

dispatch:
	for i, arr := range sched {
		if wait := time.Until(start.Add(arr.At)); wait > 0 {
			select {
			case <-ctx.Done():
				res.Unsent = int64(len(sched) - i)
				break dispatch
			case <-time.After(wait):
			}
		} else if ctx.Err() != nil {
			res.Unsent = int64(len(sched) - i)
			break dispatch
		}
		select {
		case sem <- struct{}{}:
		default:
			// The cap is full: drop the send and say so. Silently queueing
			// it would shift its send time and corrupt the measurement.
			dropped++
			continue
		}
		wg.Add(1)
		sent++
		go func(i int, arr Arrival) {
			defer wg.Done()
			defer func() { <-sem }()
			out := client.Do(ctx, i, arr)
			rec.Observe(out, time.Since(start.Add(arr.At)))
			if out.JobID != "" {
				watcher.track(out.JobID)
			}
		}(i, arr)
	}
	wg.Wait()
	if cfg.JobWait > 0 {
		watcher.wait(ctx, cfg.JobWait)
	}
	elapsed := time.Since(start)

	close(repDone)
	repWG.Wait()

	res.Snapshot = rec.Snapshot()
	res.Sent = sent
	res.Dropped = dropped
	if elapsed > 0 {
		res.OfferedQPS = float64(res.Scheduled) / elapsed.Seconds()
		res.AchievedQPS = float64(res.Completed) / elapsed.Seconds()
	}
	res.JobsSubmitted, res.JobsCompleted, res.JobsFailed = watcher.counts()
	return res, ctx.Err()
}

// jobWatcher follows blend-submitted async jobs to their end, so a soak
// asserts the full submit -> poll -> fetch lifecycle, not just the 202.
type jobWatcher struct {
	client *Client

	mu        sync.Mutex
	pending   map[string]bool
	submitted int64

	completed, failed int64 // written by wait, which runs after the last track
}

func newJobWatcher(c *Client) *jobWatcher {
	return &jobWatcher{client: c, pending: map[string]bool{}}
}

// track registers one submitted job id (idempotent — content-addressed
// resubmissions collapse to one watch).
func (w *jobWatcher) track(id string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.submitted++
	w.pending[id] = true
}

// wait finishes every tracked job — awaited, then fetched — inside one
// shared deadline; a job that failed, or is still running when the
// deadline lapses, counts as failed.
func (w *jobWatcher) wait(ctx context.Context, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for id := range w.pending {
		if _, _, err := w.client.FinishJob(ctx, id, time.Until(deadline)); err != nil {
			w.failed++
		} else {
			w.completed++
		}
	}
}

func (w *jobWatcher) counts() (submitted, completed, failed int64) {
	return w.submitted, w.completed, w.failed
}
