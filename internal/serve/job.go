package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/fault"
	"emgo/internal/obs"
	"emgo/internal/parallel"
	"emgo/internal/table"
)

// The async job tier turns the one-record service into the offline shape
// the paper actually deployed: submit a whole table, poll, fetch the
// results later. Robustness is the organizing principle:
//
//   - every job is split into fixed-size shards, and every shard is a
//     crash-safe unit: its result is written through the ckpt store
//     (temp + fsync + atomic rename, SHA-256 manifest, fingerprint
//     binding), so a SIGKILL at any instant loses at most the shard in
//     flight and a restart resumes from the last durable shard with
//     byte-identical output;
//   - each shard runs once and its answer is final: a shard whose
//     matcher fails commits the rule-only answer /v1/match would give,
//     under a breaker of its own so it neither opens nor reads the
//     online one; an execution or commit error fails the job, naming
//     the shard, and a resubmission re-runs only the missing shards;
//   - shard executors take slots from the same admission gate online
//     requests use, so batch work is backpressured by interactive
//     traffic (and shows up in the same EWMA Retry-After hints) instead
//     of starving it;
//   - a drain stops new shards but lets the in-flight shard commit, so
//     graceful shutdown checkpoints instead of discarding work.

// Job states.
const (
	JobQueued      = "queued"
	JobRunning     = "running"
	JobCompleted   = "completed"
	JobFailed      = "failed"
	JobInterrupted = "interrupted" // stopped by drain/shutdown; resumes on restart
)

// Job-tier defaults.
const (
	DefaultJobShardSize    = 32
	DefaultJobWorkers      = 2
	DefaultJobMaxQueued    = 8
	DefaultJobMaxRecords   = 100000
	DefaultJobMaxBodyBytes = 64 << 20
	DefaultJobShardTimeout = 60 * time.Second
)

// jobSlotWait is how long a shard waits before asking the admission gate
// again when online traffic has filled its wait line.
const jobSlotWait = 25 * time.Millisecond

// ErrJobShed is returned by Submit when the job queue is full; the HTTP
// layer maps it to 429 + Retry-After, the same shedding contract the
// single-record path uses.
var ErrJobShed = errors.New("serve: job queue full, submission shed")

// errJobStopped surfaces drain/shutdown inside a shard. runShard turns
// it into a skipped shard, never an error: an error from runShard fails
// the job (the fan-out stops dispatching; shards already running still
// finish and commit), while the drain contract parks the job resumable —
// in-flight shards commit, untouched shards are skipped, the job settles
// interrupted.
var errJobStopped = errors.New("serve: job tier stopping")

// JobConfig tunes the async job tier. The zero value disables it (Dir
// is required: jobs are durable by construction).
type JobConfig struct {
	// Dir is the root directory job checkpoints live under, one
	// subdirectory per job. Empty disables the job tier.
	Dir string
	// ShardSize is the default records-per-shard when a submission does
	// not pick its own (default DefaultJobShardSize).
	ShardSize int
	// Workers bounds how many shards execute concurrently (default
	// DefaultJobWorkers). Keep it below the admission MaxInFlight or
	// batch work can occupy every pipeline slot.
	Workers int
	// MaxQueued bounds jobs queued or running at once; submissions
	// beyond it are shed with ErrJobShed (default DefaultJobMaxQueued).
	MaxQueued int
	// maxRecords caps records per job (DefaultJobMaxRecords; only tests
	// shrink it).
	maxRecords int
}

// withDefaults fills zero fields.
func (c JobConfig) withDefaults() JobConfig {
	if c.ShardSize <= 0 {
		c.ShardSize = DefaultJobShardSize
	}
	if c.Workers <= 0 {
		c.Workers = DefaultJobWorkers
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = DefaultJobMaxQueued
	}
	if c.maxRecords <= 0 {
		c.maxRecords = DefaultJobMaxRecords
	}
	return c
}

// jobSpec is the durable identity of a job (artifact "job.json"): what
// to match, in which shard geometry. It deliberately carries no
// timestamps or host state so the job fingerprint — and therefore the
// job ID — is a pure function of the submitted work.
type jobSpec struct {
	ID        string           `json:"id"`
	ShardSize int              `json:"shard_size"`
	Records   []map[string]any `json:"records"`
}

// JobRecordResult is one record's deterministic match answer inside a
// job: MatchResponse minus the run-varying fields (latency, breaker
// state), so completed shards are byte-identical across runs and
// restarts.
type JobRecordResult struct {
	// Index is the record's position in the submitted job.
	Index int `json:"index"`
	// Matches are the final matches, in the same order and with the
	// same provenance as the online endpoint.
	Matches []Match `json:"matches"`
	// Degraded and DegradedReason mirror MatchResponse.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Candidates and Vetoed mirror MatchResponse.
	Candidates int `json:"candidates"`
	Vetoed     int `json:"vetoed"`
}

// shardArtifact is the durable unit of job progress: one shard's
// results. Quarantined is read, never written: a store from an older
// build may hold a marker for a shard it gave up on, and validShard
// refuses such an artifact so the shard is recomputed.
type shardArtifact struct {
	Shard       int               `json:"shard"`
	Quarantined bool              `json:"quarantined,omitempty"`
	Records     []JobRecordResult `json:"records,omitempty"`
}

// validShard is the fetch-side validator of a shard artifact: a
// quarantine marker carries no records, so it is condemned.
func validShard(a *shardArtifact) error {
	if a.Quarantined {
		return fmt.Errorf("shard %d is a quarantine marker, not an answer", a.Shard)
	}
	return nil
}

// JobStatus is the poll document for one job.
type JobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Records int    `json:"records"`
	Shards  int    `json:"shards"`
	// DoneShards counts shards committed durably; ResumedShards is the
	// subset inherited from a previous process instead of computed by
	// this one.
	DoneShards    int `json:"done_shards"`
	ResumedShards int `json:"resumed_shards"`
	// DegradedRecords counts records answered without the learned
	// matcher.
	DegradedRecords int    `json:"degraded_records"`
	Error           string `json:"error,omitempty"`
}

// Job is one submitted bulk-matching job.
type Job struct {
	ID string

	// origin is the request ID of the submission that created the job
	// in this process ("" for recovered jobs) — the join key between
	// the submit wide event and the job's execution trace.
	origin string

	// shardSize and rows are all a job keeps of its submission; the
	// record maps are durable in job.json and are not held beside them.
	shardSize int
	rows      []table.Row
	store     *ckpt.Store
	shards    int

	mu       sync.Mutex
	state    string
	resumed  int
	degraded int
	errMsg   string

	// interrupted records that at least one shard was skipped because
	// the tier was stopping; the settle logic parks the job resumable.
	interrupted atomic.Bool
}

// shardName is the ckpt artifact name of one shard; the chaos harness
// targets these names with EMCKPT_KILL (e.g. "mid:shard_00002.json").
func shardName(idx int) string { return fmt.Sprintf("shard_%05d.json", idx) }

// shardLen is how many records shard idx carries (the last shard may
// be short).
func (j *Job) shardLen(idx int) int {
	lo := idx * j.shardSize
	hi := lo + j.shardSize
	if hi > len(j.rows) {
		hi = len(j.rows)
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// doneShards counts the shards committed durably. The store's manifest
// is the one record of that: a commit adds to it and a shard found
// corrupt at fetch time leaves it, so no counter has to be kept in step.
func (j *Job) doneShards() int {
	n := 0
	for i := 0; i < j.shards; i++ {
		if j.store.Has(shardName(i)) {
			n++
		}
	}
	return n
}

// jobArtifact is the durable job-spec artifact name.
const jobArtifact = "job.json"

// Jobs is the async job manager: a FIFO queue of jobs executed one at a
// time, each fanning its shards across a bounded worker pool.
type Jobs struct {
	cfg JobConfig
	srv *Server

	// streamKey signs resume cursors for the streaming results
	// transport; it persists under cfg.Dir so cursors outlive restarts.
	streamKey []byte

	ctx    context.Context
	cancel context.CancelFunc

	submitMu  sync.Mutex // serializes Submit's lookup-or-open; taken before mu
	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*Job
	queue     []*Job
	stopped   bool
	recovered int

	wg       sync.WaitGroup
	stopOnce sync.Once
}

// newJobs builds the manager (defaults applied, root dir created).
func newJobs(cfg JobConfig, srv *Server) (*Jobs, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: job tier needs a checkpoint directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job dir: %w", err)
	}
	key, err := loadStreamKey(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("serve: stream cursor key: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	jm := &Jobs{cfg: cfg, srv: srv, streamKey: key, ctx: ctx, cancel: cancel, jobs: make(map[string]*Job)}
	jm.cond = sync.NewCond(&jm.mu)
	return jm, nil
}

// Start spawns the dispatcher that executes queued jobs.
func (jm *Jobs) Start() {
	jm.wg.Add(1)
	go jm.dispatch()
}

// Recovered reports how many unfinished jobs the last Recover re-queued.
func (jm *Jobs) Recovered() int {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.recovered
}

// matcherChecksum identifies the live matcher for fingerprint binding:
// resumed shards are only trusted when they were computed by the same
// artifact (and the same right table / feature stack implied by it).
func (jm *Jobs) matcherChecksum() string {
	if art := jm.srv.Artifact(); art != nil {
		return art.Checksum
	}
	return "rule-only"
}

// jobFingerprint binds a job directory to its exact work: the canonical
// record bytes, the shard geometry, the live matcher, and the request
// schema. Any mismatch makes ckpt.Open quarantine the old manifest and
// recompute every shard rather than mixing results from two worlds.
func (jm *Jobs) jobFingerprint(canonical []byte, shardSize int) string {
	return ckpt.Fingerprint(
		string(canonical),
		strconv.Itoa(shardSize),
		jm.matcherChecksum(),
		jm.srv.left.Schema().String(),
	)
}

// decodeJobRecords decodes records with the same number-preserving
// posture the HTTP decoders use, so recovering a spec from disk parses
// cells exactly as the original submission did (json.Number round-trips
// "1.00" as "1.00"; float64 would collapse it to "1" and change what
// table.Parse sees).
func decodeJobRecords(data []byte) (jobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var spec jobSpec
	if err := dec.Decode(&spec); err != nil {
		return jobSpec{}, err
	}
	return spec, nil
}

// Submit validates, persists, and enqueues a job. Submission is
// idempotent: the job ID is derived from the work's fingerprint, so
// resubmitting identical records returns the existing job (completed
// shards and all) instead of redoing the work. A full queue sheds with
// ErrJobShed. origin is the submitting request's ID ("" when unknown);
// it is carried into the job's execution trace so asynchronous work
// joins back to the request that caused it.
func (jm *Jobs) Submit(records []map[string]any, shardSize int, origin string) (*Job, error) {
	if shardSize <= 0 {
		shardSize = jm.cfg.ShardSize
	}
	if len(records) == 0 {
		return nil, badRequest(`job needs a non-empty "records" array`)
	}
	if len(records) > jm.cfg.maxRecords {
		return nil, &RequestError{
			Status: 413,
			Msg:    fmt.Sprintf("job has %d records, cap is %d", len(records), jm.cfg.maxRecords),
		}
	}
	rows, err := recordRows(jm.srv.left.Schema(), records)
	if err != nil {
		return nil, err
	}
	canonical, err := json.Marshal(records)
	if err != nil {
		return nil, badRequest("encode records: %v", err)
	}
	fp := jm.jobFingerprint(canonical, shardSize)
	id := "j" + fp[:16]

	// One submission at a time looks its job up or opens its store:
	// identical ones arriving together register one job, not a store each.
	jm.submitMu.Lock()
	defer jm.submitMu.Unlock()

	// A job's state is read through its own lock (order jm.mu -> job.mu,
	// as in enqueue): the dispatcher writes it holding only that.
	jm.mu.Lock()
	if existing, ok := jm.jobs[id]; ok {
		st := existing.State()
		jm.mu.Unlock()
		if st == JobFailed || st == JobInterrupted {
			jm.enqueue(existing)
		}
		return existing, nil
	}
	pending := 0
	for _, j := range jm.jobs {
		if st := j.State(); st == JobQueued || st == JobRunning {
			pending++
		}
	}
	if pending >= jm.cfg.MaxQueued {
		jm.mu.Unlock()
		return nil, ErrJobShed
	}
	jm.mu.Unlock()

	spec := jobSpec{ID: id, ShardSize: shardSize, Records: records}
	job, err := jm.openJob(id, spec, rows, fp)
	if err != nil {
		return nil, err
	}
	job.origin = origin
	completed := job.state == JobCompleted // before anyone else can see the job
	jm.mu.Lock()
	jm.jobs[id] = job
	jm.mu.Unlock()
	if !completed {
		jm.enqueue(job)
	}
	return job, nil
}

// openJob opens (or creates) a job's durable store, persists its spec,
// and notes the shards a previous process already committed.
func (jm *Jobs) openJob(id string, spec jobSpec, rows []table.Row, fp string) (*Job, error) {
	store, err := ckpt.Open(filepath.Join(jm.cfg.Dir, id), fp)
	if err != nil {
		return nil, fmt.Errorf("serve: open job store: %w", err)
	}
	if !store.Has(jobArtifact) {
		if err := store.WriteJSON(jobArtifact, spec); err != nil {
			return nil, fmt.Errorf("serve: persist job spec: %w", err)
		}
	}
	shards := (len(rows) + spec.ShardSize - 1) / spec.ShardSize
	job := &Job{
		ID:        id,
		shardSize: spec.ShardSize,
		rows:      rows,
		store:     store,
		shards:    shards,
		state:     JobQueued,
	}
	job.resumed = job.doneShards()
	if job.resumed == shards {
		job.state = JobCompleted
	}
	return job, nil
}

// Recover scans the job root for directories a previous process left
// behind, re-registers every job it can decode, and re-queues the
// unfinished ones. Undecodable directories are skipped, never fatal:
// recovery must not take the service down.
func (jm *Jobs) Recover() (int, error) {
	entries, err := os.ReadDir(jm.cfg.Dir)
	if err != nil {
		return 0, fmt.Errorf("serve: scan job dir: %w", err)
	}
	requeued := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		jm.mu.Lock()
		_, known := jm.jobs[id]
		jm.mu.Unlock()
		if known {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(jm.cfg.Dir, id, jobArtifact))
		if err != nil {
			continue
		}
		spec, err := decodeJobRecords(raw)
		if err != nil || len(spec.Records) == 0 || spec.ShardSize <= 0 {
			continue
		}
		rows, err := recordRows(jm.srv.left.Schema(), spec.Records)
		if err != nil {
			continue
		}
		canonical, err := json.Marshal(spec.Records)
		if err != nil {
			continue
		}
		fp := jm.jobFingerprint(canonical, spec.ShardSize)
		spec.ID = id
		job, err := jm.openJob(id, spec, rows, fp)
		if err != nil {
			continue
		}
		jm.mu.Lock()
		jm.jobs[id] = job
		jm.mu.Unlock()
		if job.state != JobCompleted {
			jm.enqueue(job)
			requeued++
		}
	}
	jm.mu.Lock()
	jm.recovered = requeued
	jm.mu.Unlock()
	return requeued, nil
}

// enqueue puts a job (back) on the FIFO queue.
func (jm *Jobs) enqueue(job *Job) {
	jm.mu.Lock()
	for _, q := range jm.queue {
		if q == job {
			jm.mu.Unlock()
			return
		}
	}
	job.mu.Lock()
	job.state = JobQueued
	job.errMsg = ""
	job.mu.Unlock()
	job.interrupted.Store(false)
	jm.queue = append(jm.queue, job)
	jm.mu.Unlock()
	jm.cond.Signal()
}

// Get returns a job by ID (nil when unknown).
func (jm *Jobs) Get(id string) *Job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.jobs[id]
}

// StartDrain stops the dispatcher from picking up new jobs or shards;
// the shard in flight finishes and commits.
func (jm *Jobs) StartDrain() {
	jm.mu.Lock()
	jm.stopped = true
	jm.mu.Unlock()
	jm.cond.Broadcast()
}

// stopping reports whether a drain or stop has begun.
func (jm *Jobs) stopping() bool {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	return jm.stopped
}

// Stop drains and waits for the dispatcher to exit; past timeout it
// hard-cancels the in-flight shard (crash-safe by construction — the
// shard simply is not committed and recomputes on resume). It reports
// whether shutdown was graceful. Safe to call more than once.
func (jm *Jobs) Stop(timeout time.Duration) bool {
	jm.StartDrain()
	graceful := true
	jm.stopOnce.Do(func() {
		done := make(chan struct{})
		go func() {
			jm.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(timeout):
			graceful = false
			jm.cancel()
			<-done
		}
	})
	jm.cancel()
	return graceful
}

// dispatch is the job loop: pop a job, run its shards, repeat.
func (jm *Jobs) dispatch() {
	defer jm.wg.Done()
	for {
		job := jm.next()
		if job == nil {
			return
		}
		jm.runJob(job)
	}
}

// next blocks for the next queued job; nil means the tier is stopping.
func (jm *Jobs) next() *Job {
	jm.mu.Lock()
	defer jm.mu.Unlock()
	for {
		if jm.stopped {
			return nil
		}
		if len(jm.queue) > 0 {
			job := jm.queue[0]
			jm.queue = jm.queue[1:]
			return job
		}
		jm.cond.Wait()
	}
}

// runJob executes every missing shard of one job across the bounded
// worker pool and settles the job's final state.
func (jm *Jobs) runJob(job *Job) {
	job.mu.Lock()
	job.state = JobRunning
	job.resumed = job.doneShards() // what this execution inherits
	job.degraded = 0
	job.mu.Unlock()
	// One wide event per job execution — the async mirror of the
	// per-request contract, joined to the submitting request by the
	// propagated ID.
	ev := &obs.WideEvent{Time: time.Now(), RequestID: job.origin, Route: jobRoute, Records: len(job.rows), JobID: job.ID}
	ctx, span := obs.NewTrace(jm.ctx, "serve.job")
	if job.origin != "" {
		ctx = obs.WithRequestID(ctx, job.origin)
	}
	span.SetItems(job.shards)

	err := parallel.ForWorkersCtx(ctx, job.shards, jm.cfg.Workers, func(i int) error {
		return jm.runShard(ctx, job, i)
	})
	// runShard's error names its shard; the work index adds nothing.
	var ie *parallel.IndexError
	if errors.As(err, &ie) {
		err = ie.Err
	}

	stopped := job.interrupted.Load() || jm.stopping() || jm.ctx.Err() != nil
	job.mu.Lock()
	switch {
	case err == nil && job.doneShards() == job.shards:
		job.state = JobCompleted
		span.SetOutcome(obs.OutcomeOK)
	case stopped:
		// Drain or shutdown: everything committed so far is durable;
		// Recover (or a resubmit) picks the job back up.
		job.state = JobInterrupted
		span.SetOutcome(obs.OutcomeInterrupted)
	default:
		// A shard that failed to execute or commit — or no error yet
		// shards missing, which should be impossible: fail loudly rather
		// than report a hole-ridden job as complete. Resubmitting re-runs
		// only the missing shards.
		job.state = JobFailed
		if err != nil {
			job.errMsg = err.Error()
		} else {
			job.errMsg = fmt.Sprintf("job finished with %d/%d shards committed", job.doneShards(), job.shards)
		}
		span.SetOutcome(obs.OutcomeFailed)
	}
	ev.Outcome, ev.Err = jobOutcome(job.state, job.degraded), job.errMsg
	job.mu.Unlock()
	jm.srv.finish(ev, span, false)
}

// jobOutcome maps a settled job state onto the wide-event vocabulary.
func jobOutcome(state string, degraded int) string {
	switch state {
	case JobFailed:
		return obs.OutcomeError
	case JobInterrupted:
		return obs.OutcomeDraining
	case JobCompleted:
		if degraded > 0 {
			return obs.OutcomeDegraded
		}
	}
	return obs.OutcomeOK
}

// runShard makes shard idx durable: skip it if already committed, else
// execute it once and commit its answer. An execution or commit error is
// returned naming the shard, and fails the job; a stop condition (drain,
// shutdown) skips the shard without one.
func (jm *Jobs) runShard(ctx context.Context, job *Job, idx int) error {
	name := shardName(idx)
	if job.store.Has(name) {
		return nil
	}
	if jm.stopping() || ctx.Err() != nil {
		job.interrupted.Store(true)
		return nil
	}
	art, tally, err := jm.execShard(ctx, job, idx)
	if err == nil {
		err = job.store.WriteJSON(name, art)
	}
	if err != nil {
		if errors.Is(err, errJobStopped) || ctx.Err() != nil {
			job.interrupted.Store(true)
			return nil
		}
		return fmt.Errorf("shard %d: %w", idx, err)
	}
	job.mu.Lock()
	job.degraded += tally.degraded
	job.mu.Unlock()
	return nil
}

// execShard runs one shard: take an admission slot (the backpressure
// coupling with online traffic), run the amortized match pipeline under
// the shard deadline, and shape the deterministic result records. The
// breaker lives for this shard: a poisoned shard must not open the
// online one, and an open online one must never be committed into a
// durable shard.
func (jm *Jobs) execShard(ctx context.Context, job *Job, idx int) (art *shardArtifact, tally matchTally, err error) {
	if err := fault.InjectIdx("serve.job.exec", idx); err != nil {
		return nil, tally, err
	}
	ctx, spShard := obs.StartSpan(ctx, "serve.job.shard")
	defer spShard.End()
	release, err := jm.acquireSlot(ctx)
	if err != nil {
		return nil, tally, err
	}
	defer release()
	shardCtx, cancel := context.WithTimeout(ctx, DefaultJobShardTimeout)
	defer cancel()
	lo := idx * job.shardSize
	sub, err := jm.srv.rowsTable("job:"+job.ID, job.rows[lo:lo+job.shardLen(idx)])
	if err != nil {
		return nil, tally, err
	}
	resps, tally, _, err := jm.srv.matchSet(shardCtx, sub, NewBreaker(BreakerConfig{}), false)
	if err != nil {
		return nil, tally, err
	}
	art = &shardArtifact{Shard: idx, Records: make([]JobRecordResult, len(resps))}
	for i, r := range resps {
		art.Records[i] = JobRecordResult{
			Index:          lo + i,
			Matches:        r.Matches,
			Degraded:       r.Degraded,
			DegradedReason: r.DegradedReason,
			Candidates:     r.Candidates,
			Vetoed:         r.Vetoed,
		}
	}
	return art, tally, nil
}

// acquireSlot takes a pipeline slot from the shared admission gate.
// When online traffic has filled the wait line, the shard waits
// jobSlotWait and asks again instead of competing — batch work yields to
// interactive work, which is the whole point of sharing the gate.
// Draining and shutdown surface as errJobStopped.
func (jm *Jobs) acquireSlot(ctx context.Context) (func(), error) {
	for {
		release, err := jm.srv.adm.Acquire(ctx)
		switch {
		case err == nil:
			return release, nil
		case errors.Is(err, ErrShed):
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(jobSlotWait):
			}
		case errors.Is(err, ErrDraining):
			return nil, errJobStopped
		default:
			return nil, err
		}
	}
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the poll document.
func (j *Job) Status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobStatus{
		ID:              j.ID,
		State:           j.state,
		Records:         len(j.rows),
		Shards:          j.shards,
		DoneShards:      j.doneShards(),
		ResumedShards:   j.resumed,
		DegradedRecords: j.degraded,
		Error:           j.errMsg,
	}
}
