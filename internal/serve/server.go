// Package serve is the online matching service: it wraps a deployed EM
// workflow (blockers, rule layers, fitted matcher) behind an HTTP/JSON
// API and keeps it answering under hostile conditions. The paper's
// endgame is a deployed workflow matching production slices; this
// package is that deployment as a long-running service rather than a
// batch run.
//
// The machinery is overload-robustness first, routing second:
//
//   - bounded admission (MaxInFlight executing, MaxQueue waiting,
//     everything else shed with 429 + Retry-After),
//   - per-request deadlines propagated through the existing ctx plumbing
//     into blocking, vectorization, and prediction,
//   - a circuit breaker around the learned matcher that degrades to the
//     always-available rule-only path (responses marked "degraded"),
//   - atomic hot reload of the matcher artifact with checksum
//     verification and rollback on bad loads,
//   - health/readiness/status endpoints, a SIGTERM-driven drain, and the
//     standard obs debug surface (expvar, pprof).
//
// Whether a deployed matcher's quality still holds is the offline check's
// question (emmatch -drift-baseline, emmonitor check), not a request's.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"emgo/internal/block"
	"emgo/internal/ckpt"
	"emgo/internal/fault"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/obs/slo"
	"emgo/internal/obs/tail"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// specArtifactPath marks a matcher that came embedded in the workflow
// spec rather than from a standalone artifact file (not hot-reloadable).
const specArtifactPath = "<spec>"

// latencyMSBuckets are the upper bounds (milliseconds) of the request
// latency histogram "serve.latency_ms".
var latencyMSBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Degraded-response reasons.
const (
	ReasonBreakerOpen  = "breaker_open"
	ReasonMatcherError = "matcher_error"
	ReasonMatcherSlow  = "matcher_timeout"
	ReasonNoMatcher    = "no_matcher"
	ReasonBlockerError = "blocker_error"
)

// mlBudgetFrac is the fraction of a request's remaining deadline budget
// granted to the learned-matcher stage, so a slow matcher times out with
// room left to fall back to rules.
const mlBudgetFrac = 0.7

// Config tunes the service. The zero value serves with defaults.
type Config struct {
	// Admission bounds concurrency and the wait line.
	Admission AdmissionConfig
	// Breaker tunes the matcher circuit breaker.
	Breaker BreakerConfig
	// RequestTimeout is the per-request deadline (default 5s). A
	// request's timeout_ms may lower it, never raise it.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default DefaultMaxBodyBytes).
	MaxBodyBytes int64
	// MaxBatchRecords caps how many records one /v1/match/batch request
	// may carry (default DefaultMaxBatchRecords).
	MaxBatchRecords int
	// maxBatchBodyBytes caps batch request bodies
	// (DefaultMaxBatchBodyBytes; only tests shrink it).
	maxBatchBodyBytes int64
	// Jobs configures the async job tier; a zero Dir disables it (the
	// job endpoints answer 503).
	Jobs JobConfig
	// Stream tunes the streaming results transport (slow-reader budget,
	// concurrent-stream cap, flush geometry).
	Stream StreamConfig
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// (default 10s).
	DrainTimeout time.Duration
	// MatcherPath is the standalone matcher artifact to load and serve
	// (hot-reloadable). Empty uses the spec-embedded matcher, if any.
	MatcherPath string
	// RightIDCol names the right table's identifier column echoed in
	// responses (default "RecordId"; missing column falls back to row
	// indices).
	RightIDCol string
	// AccessLog, when set, receives one JSON wide event per request.
	// Nil disables wide-event logging (tail capture and SLO tracking
	// stay on regardless).
	AccessLog io.Writer
	// AccessSampleN logs 1 in N successful requests to the access log
	// (<= 1 logs all); errors, sheds, timeouts, and degraded responses
	// are always logged.
	AccessSampleN int
	// TailN is how many slowest requests the tail buffer retains per
	// window (default tail.DefaultSlowN).
	TailN int
	// SLOs are the service objectives evaluated into burn rates on
	// /v1/status and emmonitor slo; nil selects slo.DefaultObjectives.
	SLOs []slo.Objective
}

// Server is the online matching service.
type Server struct {
	cfg      Config
	left     *table.Table // schema donor for request records
	right    *table.Table
	rightIDs []string
	width    int // the feature-vector width (0 = rule-only)

	// live is the artifact with its deployment, swapped whole by Reload; a
	// rule-only server's has no Matcher.
	live     atomic.Pointer[Artifact]
	breaker  *Breaker
	adm      *Admission
	reloadMu sync.Mutex

	events  *obs.EventLog
	tailBuf *tail.Buffer
	sloTrk  *slo.Tracker

	jobs *Jobs // nil when the job tier is disabled

	// streamSem gates how many result streams hold shard files open at
	// once; a drain acquires every slot to wait for active streams to
	// reach their flush-boundary exit.
	streamSem chan struct{}

	// requests and degraded count records answered, and answered without
	// the learned matcher, for /v1/status: batch and job shards count
	// each of their records.
	requests, degraded atomic.Int64

	started   time.Time
	draining  atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

// New builds the service around a deployed workflow. left donates the
// request schema (its rows are ignored); right is the table requests
// are matched against. When cfg.MatcherPath is set the matcher artifact
// is loaded from it (and becomes hot-reloadable); otherwise the
// spec-embedded matcher, if any, serves. With neither, the service runs
// rule-only and every response is marked degraded.
func New(ctx context.Context, cfg Config, wf *workflow.Workflow, left, right *table.Table) (*Server, error) {
	if wf == nil {
		return nil, fmt.Errorf("serve: nil workflow")
	}
	if left == nil || right == nil {
		return nil, fmt.Errorf("serve: nil table")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxBatchRecords <= 0 {
		cfg.MaxBatchRecords = DefaultMaxBatchRecords
	}
	if cfg.maxBatchBodyBytes <= 0 {
		cfg.maxBatchBodyBytes = DefaultMaxBatchBodyBytes
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.RightIDCol == "" {
		cfg.RightIDCol = "RecordId"
	}
	cfg.Stream = cfg.Stream.withDefaults()
	s := &Server{
		cfg:       cfg,
		left:      left,
		right:     right,
		breaker:   NewBreaker(cfg.Breaker),
		adm:       NewAdmission(cfg.Admission),
		events:    obs.NewEventLog(cfg.AccessLog, cfg.AccessSampleN),
		tailBuf:   tail.New(tail.Config{SlowN: cfg.TailN}),
		sloTrk:    slo.New(slo.Config{Objectives: cfg.SLOs}),
		started:   time.Now(),
		drained:   make(chan struct{}),
		streamSem: make(chan struct{}, cfg.Stream.MaxStreams),
	}
	if wf.Features != nil {
		s.width = wf.Features.Len()
	}
	// Resolve right IDs up front; a missing ID column degrades to row
	// indices rather than failing every request.
	if j, err := right.Col(cfg.RightIDCol); err == nil {
		s.rightIDs = make([]string, right.Len())
		for i := 0; i < right.Len(); i++ {
			s.rightIDs[i] = right.Row(i)[j].Str()
		}
	}
	// Deploy the artifact's matcher, else the spec's, else none: rule keys,
	// blocking indexes and feature cells are built here, once.
	art := &Artifact{}
	var err error
	switch {
	case cfg.MatcherPath != "":
		if art, err = LoadArtifact(cfg.MatcherPath, s.width); err != nil {
			return nil, err
		}
	case wf.Matcher != nil:
		spec, err := ml.ExportMatcher(wf.Matcher)
		if err != nil {
			return nil, fmt.Errorf("serve: fingerprint spec-embedded matcher: %w", err)
		}
		data, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: fingerprint spec-embedded matcher: %w", err)
		}
		art = &Artifact{
			Matcher:  wf.Matcher,
			Checksum: ckpt.Fingerprint(string(data)),
			Path:     specArtifactPath,
			LoadedAt: time.Now(),
		}
	}
	if art.deployment, err = wf.Deploy(ctx, art.Matcher, right); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.live.Store(art)
	if cfg.Jobs.Dir != "" {
		jm, err := newJobs(cfg.Jobs, s)
		if err != nil {
			return nil, err
		}
		s.jobs = jm
		jm.Start()
		if _, err := jm.Recover(); err != nil {
			jm.Stop(time.Second)
			return nil, err
		}
	}
	return s, nil
}

// JobTier returns the async job manager (nil when disabled).
func (s *Server) JobTier() *Jobs { return s.jobs }

// Close releases background resources (the job workers) without a
// graceful drain; tests and non-serving callers use it. Safe to call
// more than once and after StartDrain.
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.Stop(time.Second)
	}
}

// Artifact returns the live matcher artifact (nil = rule-only service).
func (s *Server) Artifact() *Artifact {
	if art := s.live.Load(); art.Matcher != nil {
		return art
	}
	return nil
}

// TailSnapshot returns the tail-capture buffer's current contents, the
// same document /debug/tail serves; emserve dumps it on drain.
func (s *Server) TailSnapshot() tail.Snapshot { return s.tailBuf.Snapshot() }

// Handler builds the service's HTTP routes, each wrapped in the
// request-observability middleware (request IDs, wide events, tail
// capture); match and job routes additionally feed the SLO tracker.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, trackSLO bool, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.observe(routeOf(pattern), trackSLO, h))
	}
	handle("POST /v1/match", true, s.handleMatch)
	handle("POST /v1/match/batch", true, s.handleMatchBatch)
	handle("POST /v1/jobs", true, s.handleJobSubmit)
	handle("GET /v1/jobs/{id}", true, s.handleJobStatus)
	handle("GET /v1/jobs/{id}/results", true, s.handleJobResults)
	handle("GET /healthz", false, s.handleHealth)
	handle("GET /readyz", false, s.handleReady)
	handle("POST /-/reload", false, s.handleReload)
	handle("GET /v1/status", false, s.handleStatus)
	// The exact pattern takes precedence over the /debug/ prefix: the tail
	// buffer is always on. The service has no authentication (a reload
	// reads any path it is given), so its listen address is the boundary,
	// for expvar and pprof too.
	mux.Handle("GET /debug/tail", s.tailBuf.Handler())
	mux.Handle("/debug/", obs.NewDebugMux())
	return mux
}

// writeJSON writes one JSON response with status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone = nothing to do
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, status int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", waitHint(retryAfter)))
		writeJSON(w, status, ErrorResponse{Error: msg, Status: status, RetryAfterS: waitHint(retryAfter)})
		return
	}
	writeJSON(w, status, ErrorResponse{Error: msg, Status: status})
}

// refuseDraining is the first step of every handler that takes on work
// (match, batch, job submit, stream start): a draining server answers
// 503 + Retry-After, and the wide event says why. It reports whether it
// answered.
func (s *Server) refuseDraining(w http.ResponseWriter, ev *obs.WideEvent) bool {
	if !s.draining.Load() {
		return false
	}
	obs.C("serve.shed.draining").Inc()
	annotateAdmission(ev, AdmissionShedDraining, 0)
	writeError(w, http.StatusServiceUnavailable, "draining", s.adm.RetryAfter())
	return true
}

// admit takes a pipeline slot for the request, or answers the refusal
// and returns nil: 429 when the wait line is full or the deadline
// expired in it, 503 when a drain raced the admission. Either way the
// verdict and the queue wait land on the wide event. A non-nil release
// must be called exactly once.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, ev *obs.WideEvent) (release func()) {
	queued := time.Now()
	release, err := s.adm.Acquire(ctx)
	wait := time.Since(queued)
	switch {
	case errors.Is(err, ErrShed):
		annotateAdmission(ev, AdmissionShedQueueFull, wait)
		writeError(w, http.StatusTooManyRequests, "overloaded: admission queue full", s.adm.RetryAfter())
		return nil
	case errors.Is(err, ErrDraining):
		annotateAdmission(ev, AdmissionShedDraining, wait)
		writeError(w, http.StatusServiceUnavailable, "draining", s.adm.RetryAfter())
		return nil
	case err != nil: // deadline expired while queued
		annotateAdmission(ev, AdmissionDeadlineInQueue, wait)
		writeError(w, http.StatusTooManyRequests, "overloaded: deadline expired in admission queue", s.adm.RetryAfter())
		return nil
	}
	annotateAdmission(ev, AdmissionAdmitted, wait)
	return release
}

// writeRunError answers a failed pipeline pass: 504 when the request's
// deadline is what ended it, 500 otherwise.
func (s *Server) writeRunError(ctx context.Context, w http.ResponseWriter, ev *obs.WideEvent, err error) {
	ev.Err = err.Error()
	if ctx.Err() != nil {
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded", 0)
		return
	}
	writeError(w, http.StatusInternalServerError, "internal error: "+err.Error(), 0)
}

// handleMatch is the matching endpoint under the full admission /
// deadline / degradation machinery.
func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	ev := eventFrom(r.Context())
	if s.refuseDraining(w, ev) {
		return
	}
	// Decode before admission: a malformed request must never occupy a
	// pipeline slot, and the decoder is panic-proof on arbitrary bytes.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, err := DecodeMatchRequest(r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	row, err := RecordRow(s.left.Schema(), req.Record)
	if err != nil {
		s.writeRequestError(w, err)
		return
	}
	// The single-record endpoint is the batch engine at n=1.
	left, err := s.rowsTable("request", []table.Row{row})
	if err != nil {
		s.writeRequestError(w, badRequest("%v", err))
		return
	}

	budget := requestBudget(s.cfg.RequestTimeout, req.TimeoutMS)
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	release := s.admit(ctx, w, ev)
	if release == nil {
		return
	}
	defer release()

	start := time.Now()
	resps, tally, trace, err := s.matchSet(ctx, left, s.breaker, req.Trace)
	elapsed := time.Since(start)
	obs.H("serve.latency_ms", latencyMSBuckets).Observe(float64(elapsed) / float64(time.Millisecond))
	if err != nil {
		s.writeRunError(ctx, w, ev, err)
		return
	}
	tally.record(ev)
	resp := resps[0]
	resp.Trace = trace
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	writeJSON(w, http.StatusOK, resp)
}

// requestBudget is a route's deadline, lowered — never raised — by the
// request's own timeout_ms.
func requestBudget(route time.Duration, timeoutMS int) time.Duration {
	if d := time.Duration(timeoutMS) * time.Millisecond; timeoutMS > 0 && d < route {
		return d
	}
	return route
}

// matchTally is what one matchSet pass returned, counted once: the wide
// event, BatchResponse.Degraded and a job's degraded-record count all
// read this.
type matchTally struct {
	records, candidates, matches int
	// degraded is how many records were answered without the learned
	// matcher — all of the set or none — and reason is why.
	degraded int
	reason   string
	breaker  string
}

// record writes an online answer on the request's wide event.
func (t matchTally) record(ev *obs.WideEvent) {
	ev.Records, ev.Candidates, ev.Matches = t.records, t.candidates, t.matches
	ev.Degraded, ev.DegradedReason, ev.Breaker = t.degraded > 0, t.reason, t.breaker
}

// writeRequestError maps a decode/validation failure to its status.
func (s *Server) writeRequestError(w http.ResponseWriter, err error) {
	var re *RequestError
	if errors.As(err, &re) {
		writeError(w, re.Status, re.Msg, 0)
		return
	}
	writeError(w, http.StatusBadRequest, err.Error(), 0)
}

// matchSet runs the deployed workflow for every row of a request-shaped
// left table in one pass: sure rules per row, a single union-blocking
// pass, a single vectorize+impute+predict call over every surviving
// candidate, then the veto layer — the amortization that makes the bulk
// endpoint and the async job shards cheaper than len(left) one-record
// requests. br guards the learned-matcher stage: the server's breaker
// for online traffic, one that lives for a single attempt inside a job
// shard. A recovered panic is returned as an error: one poison record
// must never take the service (or a job worker) down.
func (s *Server) matchSet(ctx context.Context, left *table.Table, br *Breaker, wantTrace bool) (resps []*MatchResponse, tally matchTally, trace json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: match panicked: %v", r)
		}
	}()
	// Under the HTTP middleware (or a job trace) the match pipeline is a
	// child span of the request's tree, so tail capture sees the whole
	// request; standalone callers still get their own root.
	var root *obs.Span
	if obs.SpanFromContext(ctx) != nil {
		ctx, root = obs.StartSpan(ctx, "serve.match")
	} else {
		ctx, root = obs.NewTrace(ctx, "serve.match")
	}
	defer root.End()
	root.SetItems(left.Len())
	if err := fault.Inject("serve.match"); err != nil {
		return nil, tally, nil, err
	}
	d := s.live.Load().deployment // every stage's parts, whatever a reload swaps in

	n := left.Len()
	resps = make([]*MatchResponse, n)
	for i := range resps {
		resps[i] = &MatchResponse{}
	}

	// Stage 1: positive rules straight against the right table — the
	// always-available path that keeps the service useful when the
	// learned matcher is down. The engine's keyed index over s.right was
	// bound at deployment; a request only looks its own keys up.
	sure := block.NewCandidateSet(left, s.right)
	sureRule := map[block.Pair]string{}
	sctx, spSure := obs.StartSpan(ctx, "serve.sure_rules")
	if d.SureRules != nil && d.SureRules.Len() > 0 {
		hits, herr := d.SureRules.SureHitsCtx(sctx, left, s.right)
		if herr != nil {
			spSure.End()
			return nil, tally, nil, herr
		}
		for _, h := range hits {
			sure.Add(h.Pair)
			sureRule[h.Pair] = h.Rule
		}
	}
	spSure.SetItems(sure.Len())
	spSure.End()

	// Stage 2: blocking, once for the whole set. A blocker failure (not
	// a deadline) degrades every row to its sure-rule answer instead of
	// failing the request; one that cannot run at all failed Deploy.
	degraded, reason := false, ""
	var candidates *block.CandidateSet
	bctx, spBlock := obs.StartSpan(ctx, "serve.block")
	blocked, berr := block.UnionBlockCtx(bctx, left, s.right, d.Blockers...)
	spBlock.End()
	switch {
	case berr != nil && ctx.Err() != nil:
		return nil, tally, nil, berr
	case berr != nil:
		degraded = true
		reason = ReasonBlockerError
		candidates = block.NewCandidateSet(left, s.right)
	default:
		candidates, berr = blocked.Minus(sure)
		if berr != nil {
			return nil, tally, nil, berr
		}
	}
	perRow := candidates.PerLeftCounts()
	spBlock.SetItems(candidates.Len())

	// Stage 3: the learned matcher behind the circuit breaker, over all
	// candidates of all rows at once.
	learned := block.NewCandidateSet(left, s.right)
	scores := map[block.Pair]float64{}
	if !degraded && candidates.Len() > 0 {
		pctx, spPredict := obs.StartSpan(ctx, "serve.predict")
		learned, scores, reason = s.predict(pctx, d, left, candidates, br)
		spPredict.SetItems(candidates.Len())
		if reason != "" {
			spPredict.SetOutcome(obs.OutcomeDegraded)
		}
		spPredict.End()
		degraded = reason != ""
		if cerr := ctx.Err(); cerr != nil {
			return nil, tally, nil, cerr
		}
	} else if d.Matcher == nil && !degraded {
		degraded = true
		reason = ReasonNoMatcher
	}

	// Stage 4: negative rules veto learned matches (sure matches bypass
	// them, as in the batch workflow).
	kept := learned
	if d.NegativeRules != nil && d.NegativeRules.Len() > 0 && learned.Len() > 0 {
		_, spVeto := obs.StartSpan(ctx, "serve.veto")
		kept, _ = d.NegativeRules.FilterMatches(learned)
		spVeto.SetItems(learned.Len() - kept.Len())
		spVeto.End()
	}
	learnedPer := learned.PerLeftCounts()
	keptPer := kept.PerLeftCounts()

	// Assemble per row: sure matches first, then surviving learned
	// matches, both in deterministic (A, B) order.
	tally = matchTally{
		records: n, candidates: candidates.Len(), matches: sure.Len() + kept.Len(),
		reason: reason, breaker: br.State().String(),
	}
	if degraded {
		tally.degraded = n
	}
	for i := 0; i < n; i++ {
		resps[i].Candidates = perRow[i]
		resps[i].Degraded = degraded
		resps[i].DegradedReason = reason
		resps[i].Vetoed = learnedPer[i] - keptPer[i]
		resps[i].Breaker = tally.breaker
	}
	for _, p := range sure.Sorted() {
		resps[p.A].Matches = append(resps[p.A].Matches, Match{
			RightID:    s.rightID(p.B),
			RightIndex: p.B,
			Source:     "rule:" + sureRule[p],
		})
	}
	for _, p := range kept.Sorted() {
		m := Match{RightID: s.rightID(p.B), RightIndex: p.B, Source: "matcher"}
		if sc, ok := scores[p]; ok {
			score := sc
			m.Score = &score
		}
		resps[p.A].Matches = append(resps[p.A].Matches, m)
	}

	s.requests.Add(int64(n))
	s.degraded.Add(int64(tally.degraded))

	if wantTrace {
		root.End()
		if data, merr := json.Marshal(root.Snapshot()); merr == nil {
			trace = data
		}
	}
	return resps, tally, trace, nil
}

// predict runs d's vectorize + impute + predict under br and an ML
// sub-budget of the request deadline. It returns the learned match set,
// per-pair scores, and a degradation reason ("" = the learned path
// served normally).
func (s *Server) predict(ctx context.Context, d *workflow.Workflow, left *table.Table, candidates *block.CandidateSet, br *Breaker) (*block.CandidateSet, map[block.Pair]float64, string) {
	learned := block.NewCandidateSet(left, s.right)
	scores := map[block.Pair]float64{}
	if d.Matcher == nil {
		return learned, scores, ReasonNoMatcher
	}
	if !br.Allow() {
		return learned, scores, ReasonBreakerOpen
	}

	// Grant the matcher a fraction of the remaining budget so its
	// timeout leaves room to respond with the rule-only answer.
	mlCtx := ctx
	var cancel context.CancelFunc = func() {}
	if deadline, ok := ctx.Deadline(); ok {
		sub := time.Duration(float64(time.Until(deadline)) * mlBudgetFrac)
		mlCtx, cancel = context.WithTimeout(ctx, sub)
	}
	defer cancel()

	preds, x, err := workflow.PredictPairs(mlCtx, d.Features, d.Imputer, d.Matcher, left, s.right, candidates.Pairs())
	br.Record(err)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		// The whole request deadline died: the caller turns this into
		// 504; the slow call has still counted against the breaker.
		return learned, scores, ReasonMatcherError
	default:
		obs.C("serve.ml_failures").Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			return learned, scores, ReasonMatcherSlow
		}
		return learned, scores, ReasonMatcherError
	}
	pm, _ := d.Matcher.(ml.ProbabilisticMatcher)
	for i, p := range candidates.Pairs() {
		if preds[i] == 1 {
			learned.Add(p)
			if pm != nil {
				scores[p] = pm.Proba(x[i])
			}
		}
	}
	return learned, scores, ""
}

// rightID maps a right row index to its identifier.
func (s *Server) rightID(j int) string {
	if s.rightIDs != nil && j < len(s.rightIDs) {
		return s.rightIDs[j]
	}
	return fmt.Sprintf("#%d", j)
}

// handleHealth is liveness: 200 whenever the process can answer at all,
// draining included (the balancer uses readyz to steer traffic).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: 503 once draining so load balancers stop
// routing here before the listener actually closes.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// reloadRequest is the optional /-/reload body.
type reloadRequest struct {
	Path string `json:"path"`
}

// handleReload hot-swaps the matcher artifact; failures roll back.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if r.Body != nil {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "reload request body too large", 0)
			return
		}
		if len(data) > 0 {
			if jerr := json.Unmarshal(data, &req); jerr != nil {
				writeError(w, http.StatusBadRequest, "parse reload request: "+jerr.Error(), 0)
				return
			}
		}
	}
	art, err := s.Reload(r.Context(), req.Path)
	if err != nil {
		prev := s.Artifact()
		msg := "reload failed (previous matcher still serving): " + err.Error()
		status := http.StatusUnprocessableEntity
		resp := map[string]any{"error": msg, "status": status}
		if prev != nil {
			resp["active_checksum"] = prev.Checksum
			resp["active_path"] = prev.Path
		}
		writeJSON(w, status, resp)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "reloaded",
		"path":      art.Path,
		"checksum":  art.Checksum,
		"loaded_at": art.LoadedAt,
	})
}

// StatusData is the /v1/status document.
type StatusData struct {
	UptimeS   float64 `json:"uptime_s"`
	Requests  int64   `json:"requests"`
	Degraded  int64   `json:"degraded"`
	InFlight  int     `json:"inflight"`
	Queued    int64   `json:"queued"`
	Breaker   string  `json:"breaker"`
	Draining  bool    `json:"draining"`
	RightRows int     `json:"right_rows"`
	Matcher   any     `json:"matcher,omitempty"`
	// SLO is the burn-rate evaluation of the configured objectives;
	// emmonitor slo reads this section.
	SLO *slo.Report `json:"slo,omitempty"`
}

// handleStatus reports the operational state in one JSON document.
func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := StatusData{
		UptimeS:   time.Since(s.started).Seconds(),
		Requests:  s.requests.Load(),
		Degraded:  s.degraded.Load(),
		InFlight:  s.adm.InFlight(),
		Queued:    s.adm.Queued(),
		Breaker:   s.breaker.State().String(),
		Draining:  s.draining.Load(),
		RightRows: s.right.Len(),
		SLO:       s.sloTrk.Evaluate(),
	}
	if art := s.Artifact(); art != nil {
		st.Matcher = map[string]any{
			"name":      art.Matcher.Name(),
			"path":      art.Path,
			"checksum":  art.Checksum,
			"loaded_at": art.LoadedAt,
		}
	}
	writeJSON(w, http.StatusOK, st)
}

// StartDrain flips readiness, stops admitting match requests, and
// (once) begins waiting out in-flight work in the background; Drained
// closes when the pipeline is empty or DrainTimeout passes.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		s.adm.StartDrain()
		if s.jobs != nil {
			// Job workers stop pulling new shards; the shard each is
			// executing completes and commits durably, so a restart
			// resumes from it instead of recomputing it.
			s.jobs.StartDrain()
		}
		go func() {
			s.adm.Drain(s.cfg.DrainTimeout)
			// Active result streams see the drain flag at their next
			// flush boundary and end with a resumable cursor. Owning
			// every stream slot is the proof they have: the semaphore is
			// the live-stream count, and unlike a WaitGroup it tolerates
			// acquires racing the wait (late arrivals just shed).
			streamsDone := make(chan struct{})
			go func() {
				for i := 0; i < cap(s.streamSem); i++ {
					s.streamSem <- struct{}{}
				}
				close(streamsDone)
			}()
			select {
			case <-streamsDone:
			case <-time.After(s.cfg.DrainTimeout):
			}
			if s.jobs != nil {
				s.jobs.Stop(s.cfg.DrainTimeout)
			}
			close(s.drained)
		}()
	})
}

// Drained returns a channel closed once in-flight work has finished
// (or the drain timeout passed) after StartDrain.
func (s *Server) Drained() <-chan struct{} { return s.drained }
