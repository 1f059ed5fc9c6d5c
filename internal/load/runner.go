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
}

// Result is one load phase, recorded once: the schedule it ran, its
// full accounting and, once a mode has judged it, the gate's verdict.
// It is also what the summary document writes for the phase.
type Result struct {
	Name string `json:"name,omitempty"`
	ScheduleConfig
	DurationS float64 `json:"duration_s"`
	// Scheduled is how many arrivals the schedule held; Sent how many
	// were issued; Dropped how many the outstanding cap refused;
	// Unsent how many were abandoned on context cancellation.
	Scheduled int64 `json:"scheduled"`
	Sent      int64 `json:"sent"`
	Dropped   int64 `json:"dropped,omitempty"`
	Unsent    int64 `json:"unsent,omitempty"`
	Snapshot
	// OfferedQPS is the schedule's rate over the phase's wall clock;
	// AchievedQPS counts completed requests. The clock stops once the
	// last request is answered.
	OfferedQPS  float64        `json:"offered_qps"`
	AchievedQPS float64        `json:"achieved_qps"`
	Latency     LatencySummary `json:"latency"`
	// Gate is the verdict of the mode that judged the phase.
	Gate *GateResult `json:"gate,omitempty"`
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
// what was measured so far with ctx's error: a phase cut short is
// never judged.
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
	b := cfg.Schedule.Blend
	needsRecords := b.total() == 0 || b[KindSingle]+b[KindBatch] > 0
	if cfg.Pool == nil && needsRecords {
		return nil, fmt.Errorf("load: blend %q carries record-bearing requests but no record pool was given", cfg.Schedule.Blend.String())
	}

	client := NewClient(cfg.Client, cfg.Pool)
	defer client.CloseIdle()
	rec := NewRecorder()
	res := &Result{
		ScheduleConfig: cfg.Schedule.withDefaults(),
		DurationS:      cfg.Schedule.Duration.Seconds(),
		Scheduled:      int64(len(sched)),
	}
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
		}(i, arr)
	}
	wg.Wait()
	elapsed := time.Since(start)

	close(repDone)
	repWG.Wait()

	res.Snapshot = rec.Snapshot()
	res.Latency = latencySummary(res.Hist)
	res.Sent = sent
	res.Dropped = dropped
	if elapsed > 0 {
		res.OfferedQPS = float64(res.Scheduled) / elapsed.Seconds()
		res.AchievedQPS = float64(res.Completed) / elapsed.Seconds()
	}
	return res, ctx.Err()
}
