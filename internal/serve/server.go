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
//   - an ML sub-budget of the request deadline, so a learned stage that
//     runs out of time degrades to the always-available rule-only answer
//     (responses marked "degraded") while a learned stage that fails
//     fails the request,
//   - health/readiness/status endpoints, a SIGTERM-driven drain, and the
//     standard obs debug surface (expvar, pprof).
//
// Whether a deployed matcher's quality still holds is an offline
// question, not a request's: docs/OPERATIONS.md#did-quality-drift.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emgo/internal/block"
	"emgo/internal/fault"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/parallel"
	"emgo/internal/rules"
	"emgo/internal/table"
	"emgo/internal/workflow"
)

// latencyMSBuckets are the upper bounds (milliseconds) of the /v1/match
// pipeline latency histogram (/v1/status latency_ms).
var latencyMSBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// Degraded-response reasons.
const (
	ReasonMatcherSlow = "matcher_timeout"
	ReasonNoMatcher   = "no_matcher"
)

// mlBudgetFrac is the fraction of a request's remaining deadline budget
// granted to the learned-matcher stage, so a slow matcher times out with
// room left to fall back to rules.
const mlBudgetFrac = 0.7

// Config tunes the service. The zero value serves with defaults.
type Config struct {
	// Admission bounds concurrency and the wait line.
	Admission AdmissionConfig
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
	// DrainTimeout bounds how long Drain waits for in-flight requests
	// (default 10s).
	DrainTimeout time.Duration
	// RightIDCol names the right table's identifier column echoed in
	// responses (default "RecordId"; missing column falls back to row
	// indices).
	RightIDCol string
	// AccessLog, when set, receives one JSON wide event per request, the
	// server's one record of what each request did. Nil disables
	// wide-event logging.
	AccessLog io.Writer
	// AccessSampleN logs 1 in N successful requests to the access log
	// (<= 1 logs all); errors, sheds, timeouts, degraded responses and
	// ok requests of 500 ms or more are always logged.
	AccessSampleN int
}

// Server is the online matching service.
type Server struct {
	cfg      Config
	left     *table.Table // schema donor for request records
	right    *table.Table
	rightIDs []string

	// deployment is the workflow New deployed over right, for the server's
	// whole life: every part a request runs. A rule-only server's has no
	// Matcher.
	deployment *workflow.Workflow
	adm        *Admission

	// sources is the Source of each sure rule's matches, by rule name: a
	// hit names one of the deployment's sure rules.
	sources map[string]string
	// scratch keeps matchSet's per-pass state (matchScratch), one an
	// admission slot, and reqs each request's record (request), one a
	// slot or a place in the wait line, for the next to take.
	scratch parallel.FreeList[matchScratch]
	reqs    parallel.FreeList[request]

	events *obs.EventLog

	// requests and degraded count records answered, and answered without
	// the learned matcher, for /v1/status: a batch counts each of its
	// records.
	requests, degraded atomic.Int64
	// latency is each /v1/match pipeline pass's wall time (ms), admission
	// wait excluded, for /v1/status.
	latency *obs.Histogram

	started   time.Time
	drained   chan struct{}
	drainOnce sync.Once
}

// New builds the service around a deployed workflow. left donates the
// request schema (its rows are ignored); right is the table requests
// are matched against. The workflow's matcher, if any, serves; without
// one the service runs rule-only and every response is marked degraded.
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
	adm := NewAdmission(cfg.Admission)
	s := &Server{
		cfg:     cfg,
		left:    left,
		right:   right,
		adm:     adm,
		events:  obs.NewEventLog(cfg.AccessLog, cfg.AccessSampleN),
		scratch: parallel.NewFreeList(cap(adm.slots), func() *matchScratch { return &matchScratch{} }),
		reqs:    parallel.NewFreeList(cap(adm.slots)+int(adm.maxQueue), func() *request { return &request{} }),
		latency: obs.NewHistogram(latencyMSBuckets),
		started: time.Now(),
		drained: make(chan struct{}),
	}
	// Resolve right IDs up front; a missing ID column degrades to row
	// indices rather than failing every request.
	if j, err := right.Col(cfg.RightIDCol); err == nil {
		s.rightIDs = make([]string, right.Len())
		for i := 0; i < right.Len(); i++ {
			s.rightIDs[i] = right.Row(i)[j].Str()
		}
	}
	// Rule keys, blocking indexes and feature cells are built here, once.
	var err error
	if s.deployment, err = wf.Deploy(ctx, wf.Matcher, right); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s.sources = map[string]string{}
	if sr := s.deployment.SureRules; sr != nil {
		for _, r := range sr.Rules() {
			s.sources[r.Name()] = "rule:" + r.Name()
		}
	}
	return s, nil
}

// Close ends a server that is not being drained. A server runs no
// background work of its own, so there is nothing to release; Close is
// safe to call more than once and after StartDrain.
func (s *Server) Close() {}

// Handler builds the service's HTTP routes, each wrapped in the
// request-observability middleware (request IDs, wide events).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h func(*request, *http.Request)) {
		mux.HandleFunc(pattern, s.observe(routeOf(pattern), h))
	}
	handle("POST /v1/match", s.handleMatch)
	handle("POST /v1/match/batch", s.handleMatchBatch)
	handle("GET /healthz", s.handleHealth)
	handle("GET /readyz", s.handleReady)
	handle("GET /v1/status", s.handleStatus)
	// The service has no authentication, so its listen address is the
	// boundary, for expvar and pprof too.
	mux.Handle("/debug/", obs.NewDebugMux())
	return mux
}

// refuseDraining is the first step of every handler that takes on work
// (match, batch): a draining server answers
// 503 + Retry-After, and the wide event says why. It reports whether it
// answered.
func (s *Server) refuseDraining(q *request) bool {
	if !s.adm.Draining() {
		return false
	}
	s.adm.shedDraining()
	annotateAdmission(&q.ev, AdmissionShedDraining, 0)
	q.writeError(http.StatusServiceUnavailable, "draining", s.adm.RetryAfter())
	return true
}

// admit takes a pipeline slot for the request, or answers the refusal
// and returns nil: 429 when the wait line is full or the deadline
// expired in it, 503 when a drain raced the admission. Either way the
// verdict and the queue wait land on the wide event. On admission the
// slot is q.slot, which the handler releases.
func (s *Server) admit(ctx context.Context, q *request) bool {
	queued := time.Now()
	var err error
	q.slot, err = s.adm.Acquire(ctx)
	wait := time.Since(queued)
	switch {
	case errors.Is(err, ErrShed):
		annotateAdmission(&q.ev, AdmissionShedQueueFull, wait)
		q.writeError(http.StatusTooManyRequests, "overloaded: admission queue full", s.adm.RetryAfter())
		return false
	case errors.Is(err, ErrDraining):
		annotateAdmission(&q.ev, AdmissionShedDraining, wait)
		q.writeError(http.StatusServiceUnavailable, "draining", s.adm.RetryAfter())
		return false
	case err != nil: // deadline expired while queued
		annotateAdmission(&q.ev, AdmissionDeadlineInQueue, wait)
		q.writeError(http.StatusTooManyRequests, "overloaded: deadline expired in admission queue", s.adm.RetryAfter())
		return false
	}
	annotateAdmission(&q.ev, AdmissionAdmitted, wait)
	return true
}

// writeRunError answers a failed pipeline pass: 504 when the request's
// deadline is what ended it, 500 otherwise. A worker panic's stack is
// the operator's: the wide event keeps it, the client's error does not.
func (s *Server) writeRunError(ctx context.Context, q *request, err error) {
	msg := err.Error()
	q.ev.Err = msg
	if ctx.Err() != nil {
		q.writeError(http.StatusGatewayTimeout, "deadline exceeded", 0)
		return
	}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		msg = strings.Replace(msg, "\n"+string(pe.Stack), "", 1)
	}
	q.writeError(http.StatusInternalServerError, "internal error: "+msg, 0)
}

// handleMatch is the matching endpoint under the full admission /
// deadline / degradation machinery.
func (s *Server) handleMatch(q *request, r *http.Request) {
	if s.refuseDraining(q) {
		return
	}
	// Decode before admission: a malformed request must never occupy a
	// pipeline slot, and the decoder is panic-proof on arbitrary bytes.
	req, err := decodeMatch(&q.body, r.Body, s.cfg.MaxBodyBytes)
	if err != nil {
		s.writeRequestError(q, err)
		return
	}
	row := make(table.Row, s.left.Schema().Len())
	if err := fillRow(s.left.Schema(), &req.Record, row); err != nil {
		s.writeRequestError(q, err)
		return
	}
	// The single-record endpoint is the batch engine at n=1.
	left, err := table.FromRows("request", s.left.Schema(), []table.Row{row})
	if err != nil {
		s.writeRequestError(q, badRequest("%v", err))
		return
	}

	ctx := q.within(requestBudget(s.cfg.RequestTimeout, req.TimeoutMS))
	if !s.admit(ctx, q) {
		return
	}
	defer q.slot.Release()

	start := time.Now()
	resps, tally, trace, err := s.matchSet(ctx, left, req.Trace)
	elapsed := time.Since(start)
	s.latency.Observe(float64(elapsed) / float64(time.Millisecond))
	if err != nil {
		s.writeRunError(ctx, q, err)
		return
	}
	tally.record(&q.ev)
	resp := &resps[0]
	resp.Trace = trace
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	q.writeJSON(http.StatusOK, resp)
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
// event and BatchResponse.Degraded both read this.
type matchTally struct {
	records, candidates, matches int
	// degraded is how many records were answered without the learned
	// matcher — all of the set or none — and reason is why.
	degraded int
	reason   string
}

// record writes an online answer on the request's wide event.
func (t matchTally) record(ev *obs.WideEvent) {
	ev.Records, ev.Candidates, ev.Matches = t.records, t.candidates, t.matches
	ev.Degraded, ev.DegradedReason = t.degraded > 0, t.reason
}

// writeRequestError maps a decode/validation failure to its status.
func (s *Server) writeRequestError(q *request, err error) {
	var re *RequestError
	if errors.As(err, &re) {
		q.writeError(re.Status, re.Msg, 0)
		return
	}
	q.writeError(http.StatusBadRequest, err.Error(), 0)
}

// matchSet runs the deployed workflow for every row of a request-shaped
// left table in one pass: sure rules per row, a single union-blocking
// pass, a single vectorize+impute+predict call over every surviving
// candidate, then the veto layer — the amortization that makes the bulk
// endpoint cheaper than len(left) one-record requests. The pass walks one
// candidate list, in kept scratch (matchScratch), and answers from one
// slab of responses and one of matches. A stage that fails fails the
// pass, and a matcher error names the failing record by its row in left;
// only the learned stage's own sub-budget running out (or a spec without
// a matcher) degrades the set to its rule-only answer. A recovered panic
// is returned as an error: one poison record must never take the service
// down.
func (s *Server) matchSet(ctx context.Context, left *table.Table, wantTrace bool) (resps []MatchResponse, tally matchTally, trace json.RawMessage, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: match panicked: %v", r)
		}
	}()
	// Under the HTTP middleware the match pipeline is a child span of the
	// request's tree, so the access log's stages cover the whole request;
	// standalone callers still get their own root.
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
	d := s.deployment
	sc := s.scratch.Get()
	defer s.putScratch(sc)

	n := left.Len()
	resps = make([]MatchResponse, n)

	// Stage 1: positive rules straight against the right table — the
	// always-available path that keeps the service useful when the
	// learned matcher is down. The engine's keyed index over s.right was
	// bound at deployment; a request only looks its own keys up. The hits
	// come in (A, B) order.
	var hits []rules.Hit
	sctx, spSure := obs.StartSpan(ctx, "serve.sure_rules")
	if d.SureRules != nil && d.SureRules.Len() > 0 {
		if hits, err = d.SureRules.SureHitsCtx(sctx, left, s.right); err != nil {
			spSure.End()
			return nil, tally, nil, err
		}
	}
	spSure.SetItems(len(hits))
	spSure.End()

	// Stages 2 and 3 run for a matcher only: a rule-only answer is its
	// sure matches, and nothing would judge the candidates.
	reason, learned := "", 0
	if d.Matcher == nil {
		reason = ReasonNoMatcher
	} else {
		// Stage 2: blocking, once for the whole set; a blocker that cannot
		// run at all failed Deploy.
		bctx, spBlock := obs.StartSpan(ctx, "serve.block")
		blocked, err := block.UnionBlockCtx(bctx, left, s.right, d.Blockers...)
		spBlock.End()
		if err != nil {
			return nil, tally, nil, err
		}
		sc.cands = candidateList(sc.cands, blocked, hits, resps)
		spBlock.SetItems(len(sc.cands))

		// Stage 3: the learned matcher over all candidates of all rows at
		// once.
		if len(sc.cands) > 0 {
			pctx, spPredict := obs.StartSpan(ctx, "serve.predict")
			learned, reason, err = s.predict(pctx, d, left, sc)
			spPredict.SetItems(len(sc.cands))
			switch {
			case err != nil:
				spPredict.SetOutcome(obs.OutcomeAborted)
			case reason != "":
				spPredict.SetOutcome(obs.OutcomeDegraded)
			}
			spPredict.End()
			if err == nil {
				err = ctx.Err()
			}
			if err != nil {
				return nil, tally, nil, err
			}
		}
	}

	// Stage 4: negative rules veto learned matches (sure matches bypass
	// them, as in the batch workflow).
	vetoed := 0
	if learned > 0 && d.NegativeRules != nil && d.NegativeRules.Len() > 0 {
		_, spVeto := obs.StartSpan(ctx, "serve.veto")
		for i, p := range sc.cands {
			if sc.verdicts[i] == 1 && d.NegativeRules.Judge(left.Row(p.A), s.right.Row(p.B)) == rules.NonMatch {
				sc.verdicts[i] = 0
				resps[p.A].Vetoed++
				vetoed++
			}
		}
		spVeto.SetItems(vetoed)
		spVeto.End()
	}

	// Assemble per row: sure matches first, then surviving learned
	// matches, both in (A, B) order.
	kept := learned - vetoed
	tally = matchTally{
		records: n, candidates: len(sc.cands), matches: len(hits) + kept,
		reason: reason,
	}
	if reason != "" {
		tally.degraded = n
		for i := range resps {
			resps[i].Degraded, resps[i].DegradedReason = true, reason
		}
	}
	matches := make([]Match, 0, len(hits)+kept)
	var scores []float64 // what the learned matches' Score points into
	if kept > 0 && len(sc.scores) > 0 {
		scores = make([]float64, 0, kept)
	}
	h, c := 0, 0
	for i := range resps {
		from := len(matches)
		for ; h < len(hits) && hits[h].Pair.A == i; h++ {
			b := hits[h].Pair.B
			matches = append(matches, Match{RightID: s.rightID(b), RightIndex: b, Source: s.sources[hits[h].Rule]})
		}
		for ; kept > 0 && c < len(sc.cands) && sc.cands[c].A == i; c++ {
			if sc.verdicts[c] != 1 {
				continue
			}
			b := sc.cands[c].B
			m := Match{RightID: s.rightID(b), RightIndex: b, Source: "matcher"}
			if scores != nil {
				scores = append(scores, sc.scores[c])
				m.Score = &scores[len(scores)-1]
			}
			matches = append(matches, m)
		}
		if len(matches) > from {
			resps[i].Matches = matches[from:len(matches):len(matches)]
		}
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

// matchScratch is one matchSet pass's working state, kept on the server
// and only read by the pass that holds it.
type matchScratch struct {
	// cands is the pass's candidate list: the blocked pairs in (A, B)
	// order, less the sure matches.
	cands []block.Pair
	// verdicts and scores are the learned stage's answer, aligned with
	// cands: 1 for a match (0 once vetoed), and a probabilistic matcher's
	// score of each match — scores is empty for any other matcher.
	verdicts []int
	scores   []float64
	// budget is the learned stage's share of the request's deadline.
	budget deadline
}

// putScratch empties sc and gives it back for the next pass.
func (s *Server) putScratch(sc *matchScratch) {
	sc.cands, sc.verdicts, sc.scores = parallel.Emptied(sc.cands), nil, parallel.Emptied(sc.scores)
	sc.budget = deadline{}
	s.scratch.Put(sc)
}

// candidateList appends to dst, emptied, blocked's pairs in (A, B) order
// less the sure hits — ascending too, so one merge drops them — and counts
// each left row's candidates on its response.
func candidateList(dst []block.Pair, blocked *block.CandidateSet, hits []rules.Hit, resps []MatchResponse) []block.Pair {
	all := blocked.AppendSorted(dst[:0])
	out, h := all[:0], 0
	for _, p := range all {
		for h < len(hits) && (hits[h].Pair.A < p.A || hits[h].Pair.A == p.A && hits[h].Pair.B < p.B) {
			h++
		}
		if h < len(hits) && hits[h].Pair == p {
			continue
		}
		out = append(out, p)
		resps[p.A].Candidates++
	}
	return out
}

// deadline is a context that ends at a time, held against its parent
// rather than by a timer: Deadline and Err report the time, and Done and
// Value are the parent's. That bends the context contract — Err turns
// non-nil at the deadline while Done stays open until the parent's ends
// (the connection's) — which what runs under it allows: the stages ask
// Err between units of work (parallel.ForWorkersCtx, before each item run
// serially and each chunk fanned out), and the one wait for the end of a
// budget, the admission queue's, arms a timer from Deadline
// (Admission.Acquire). A request's deadline lives in its record and the
// learned stage's share of it in the pass's scratch, so holding either
// allocates nothing and starts no timer.
type deadline struct {
	context.Context
	at time.Time
}

func (d *deadline) Deadline() (time.Time, bool) { return d.at, true }

func (d *deadline) Err() error {
	if err := d.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(d.at) {
		return context.DeadlineExceeded
	}
	return nil
}

// predict runs d's vectorize + impute + predict over sc.cands under an ML
// sub-budget of the request deadline, into sc.verdicts and sc.scores. It
// returns how many candidates matched and a degradation reason ("" = the
// learned path served normally): the sub-budget running out weakens the
// answer to its rules, any other error fails the pass and names the record
// its pair came from — the first in (A, B) order of those that failed.
func (s *Server) predict(ctx context.Context, d *workflow.Workflow, left *table.Table, sc *matchScratch) (learned int, reason string, err error) {
	// Grant the matcher a fraction of the remaining budget so its
	// timeout leaves room to respond with the rule-only answer.
	mlCtx := ctx
	if at, ok := ctx.Deadline(); ok {
		now := time.Now()
		sc.budget = deadline{Context: ctx, at: now.Add(time.Duration(float64(at.Sub(now)) * mlBudgetFrac))}
		mlCtx = &sc.budget
	}
	// A sleep armed here runs out the sub-budget, not the request's.
	if err := fault.Inject("serve.predict"); err != nil {
		return 0, "", err
	}

	preds, x, err := workflow.PredictPairs(mlCtx, d.Features, d.Imputer, d.Matcher, left, s.right, sc.cands)
	switch {
	case err == nil:
	case ctx.Err() == nil && errors.Is(err, context.DeadlineExceeded):
		return 0, ReasonMatcherSlow, nil
	default:
		// The whole request deadline dying is the caller's 504; anything
		// else is the caller's 500.
		if idx, ok := parallel.FailingIndex(err); ok {
			err = fmt.Errorf("record %d: %w", sc.cands[idx].A, err)
		}
		return 0, "", err
	}
	sc.verdicts = preds
	pm, _ := d.Matcher.(ml.ProbabilisticMatcher)
	if pm != nil {
		sc.scores = slices.Grow(sc.scores[:0], len(preds))[:len(preds)]
	}
	for i, v := range preds {
		if v == 1 {
			learned++
			if pm != nil {
				sc.scores[i] = pm.Proba(x[i])
			}
		}
	}
	return learned, "", nil
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
func (s *Server) handleHealth(q *request, _ *http.Request) {
	q.writeJSON(http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: 503 once draining so load balancers stop
// routing here before the listener actually closes.
func (s *Server) handleReady(q *request, _ *http.Request) {
	if s.adm.Draining() {
		q.writeJSON(http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	q.writeJSON(http.StatusOK, map[string]string{"status": "ready"})
}

// StatusData is the /v1/status document.
type StatusData struct {
	UptimeS   float64 `json:"uptime_s"`
	Requests  int64   `json:"requests"`
	Degraded  int64   `json:"degraded"`
	InFlight  int     `json:"inflight"`
	Queued    int64   `json:"queued"`
	Draining  bool    `json:"draining"`
	RightRows int     `json:"right_rows"`
	// Matcher is the served matcher's name; a rule-only server has none.
	Matcher string `json:"matcher,omitempty"`
	// Shed is the requests refused since start, by reason.
	Shed ShedCounts `json:"shed"`
	// LatencyMS is the /v1/match pipeline latency since start: matching
	// only, so a p99 well under the client's says the time went to the
	// queue or the network.
	LatencyMS obs.HistogramSnapshot `json:"latency_ms"`
}

// handleStatus reports the operational state in one JSON document.
func (s *Server) handleStatus(q *request, _ *http.Request) {
	st := StatusData{
		UptimeS:   time.Since(s.started).Seconds(),
		Requests:  s.requests.Load(),
		Degraded:  s.degraded.Load(),
		InFlight:  s.adm.InFlight(),
		Queued:    s.adm.Queued(),
		Draining:  s.adm.Draining(),
		RightRows: s.right.Len(),
		Shed:      s.adm.Shed(),
		LatencyMS: s.latency.Snapshot(),
	}
	if m := s.deployment.Matcher; m != nil {
		st.Matcher = m.Name()
	}
	q.writeJSON(http.StatusOK, st)
}

// StartDrain flips readiness, stops admitting match requests, and
// (once) begins waiting out in-flight work in the background; Drained
// closes when the pipeline is empty or DrainTimeout passes.
func (s *Server) StartDrain() {
	s.drainOnce.Do(func() {
		s.adm.StartDrain()
		go func() {
			s.adm.Drain(s.cfg.DrainTimeout)
			close(s.drained)
		}()
	})
}

// Drained returns a channel closed once in-flight work has finished
// (or the drain timeout passed) after StartDrain.
func (s *Server) Drained() <-chan struct{} { return s.drained }
