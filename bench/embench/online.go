package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"emgo/internal/block"
	"emgo/internal/serve"
	"emgo/internal/table"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

const (
	batchSize = 32
	// Warm-up per set-up repetition: 64 single requests, 8 batch requests.
	warmupSingle, warmupBatch = 64, 8 * batchSize
	// A pass is cut into this many equal segments: 1336 single requests
	// into 16 x 83.5, 42 batch requests into 3 x 14. Segments are kept
	// under a second so that a run of ~12 s holds many more of them than
	// the box's slow phases (5-15 s each) can cover.
	singleSegments = 16
	batchSegments  = 3
	// The reference kernel runs after every 4th single request and after
	// every batch request: ~4 ms of it to ~35 ms of the workload.
	singleProbeEvery = 4
)

// op is one request: the records [lo,hi) of the left slice.
type op struct {
	lo, hi int
	body   []byte
}

// online is online_single and online_batch: the deployed workflow
// behind serve's HTTP handler on a real loopback listener, driven by
// one closed-loop client on one keep-alive connection — callers of a
// matcher wait for their reply, and with 2 cores shared with the server
// a second client would only measure the scheduler.
type online struct {
	cfg   runConfig
	spec  *workflow.Spec
	batch bool

	sl      *slice
	wf      *workflow.Workflow
	srv     *serve.Server
	handler http.Handler
	hs      *http.Server
	served  chan struct{}
	client  *http.Client
	base    string // http://127.0.0.1:port
	ops     []op   // one pass, in row order
	newS    float64
	// oracle is the cross-mode reference: per left row, the right rows
	// the same spec matches through the offline entry point. Every
	// online answer must carry exactly this match set.
	oracle [][]int
}

func (o *online) path() string {
	if o.batch {
		return "/v1/match/batch"
	}
	return "/v1/match"
}

// makeOps pre-marshals one pass of request bodies.
func makeOps(left *table.Table, batch bool) ([]op, error) {
	size := 1
	if batch {
		size = batchSize
	}
	var ops []op
	for _, r := range splitBatches(left.Len(), size) {
		var payload any
		if batch {
			recs := make([]map[string]any, 0, r[1]-r[0])
			for i := r[0]; i < r[1]; i++ {
				recs = append(recs, record(left, i))
			}
			payload = serve.BatchRequest{Records: recs}
		} else {
			payload = serve.MatchRequest{Record: record(left, r[0])}
		}
		body, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{lo: r[0], hi: r[1], body: body})
	}
	return ops, nil
}

func (o *online) setup(ctx context.Context) error {
	o.teardown()
	sl, err := buildSlice(o.cfg.sizes.online, o.cfg.dataSeed, o.cfg.seed)
	if err != nil {
		return err
	}
	o.sl = sl
	if o.wf, err = o.spec.Build(sl.left, sl.right, umetrics.DeployTransforms()); err != nil {
		return err
	}
	t := time.Now()
	if o.srv, err = serve.New(ctx, serve.Config{}, o.wf, sl.left, sl.right); err != nil {
		return err
	}
	o.newS = time.Since(t).Seconds()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	o.handler = o.srv.Handler()
	o.hs = &http.Server{Handler: o.handler}
	o.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed after teardown
	}(o.hs, o.served)
	o.base = "http://" + ln.Addr().String()
	o.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	if o.ops, err = makeOps(sl.left, o.batch); err != nil {
		return err
	}
	warmup := warmupSingle
	if o.batch {
		warmup = warmupBatch
	}
	for _, p := range o.ops {
		if p.lo >= warmup {
			break
		}
		if status, _, err := o.post(ctx, p.body); err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up request for records %d..%d: status %d, %v", p.lo, p.hi, status, err)
		}
	}
	return nil
}

func (o *online) teardown() {
	if o.hs == nil {
		return
	}
	o.client.CloseIdleConnections()
	o.hs.Close() //nolint:errcheck // listener already closing
	<-o.served
	o.srv.Close()
	o.hs = nil
}

func (o *online) post(ctx context.Context, body []byte) (int, []byte, error) {
	return o.postTo(ctx, o.path(), body)
}

func (o *online) postTo(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := o.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// plan lists, per segment, the ops to send: the pass's equal cuts in
// order, pass after pass, for as many segments as -seconds buys.
func (o *online) plan() [][]int {
	cuts, total := splitEven(len(o.ops), singleSegments), o.cfg.units(singleSegments, 4)
	if o.batch {
		cuts, total = splitEven(len(o.ops), batchSegments), o.cfg.units(9*batchSegments, 2*batchSegments)
	}
	plan := make([][]int, total)
	for s := range plan {
		for k := cuts[s%len(cuts)][0]; k < cuts[s%len(cuts)][1]; k++ {
			plan[s] = append(plan[s], k)
		}
	}
	return plan
}

// answer is one operation's raw outcome, checked after the phase so
// that checking costs neither wall time nor allocations inside it.
type answer struct {
	op     int
	status int
	body   []byte
	err    error
}

func (o *online) measure(ctx context.Context) (*measured, error) {
	res, err := umetrics.RunDeployed(ctx, o.spec, o.sl.left, o.sl.right, workflow.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("offline oracle: %w", err)
	}
	o.oracle = byLeft(o.sl.left.Len(), res.Final.Pairs())

	plan := o.plan()
	m := &measured{}
	var answers []answer
	m.startPhase()
	for _, idxs := range plan {
		m.timeSegment(func(seg *segment) {
			for j, k := range idxs {
				p := o.ops[k]
				t := time.Now()
				status, body, err := o.post(ctx, p.body)
				lat := time.Since(t)
				answers = append(answers, answer{k, status, body, err})
				seg.records += p.hi - p.lo
				if !o.batch || p.hi-p.lo == batchSize {
					seg.opMS = append(seg.opMS, float64(lat)/float64(time.Millisecond))
				}
				if o.batch || (j+1)%singleProbeEvery == 0 {
					seg.probe(1)
				}
			}
		})
	}
	m.mem1 = readMem()
	o.check(m, answers)
	m.work = fmt.Sprintf("%d segments, %d requests, %d records (%d x %d slice)",
		len(plan), len(answers), m.records, o.sl.left.Len(), o.sl.right.Len())
	return m, nil
}

// check verifies every answered record: transport and status, not
// degraded, match set equal to the offline verdict, and the whole answer
// equal to the first answer given for that record.
func (o *online) check(m *measured, answers []answer) {
	first := make(map[int]string)
	union := make(map[block.Pair]bool)
	for _, a := range answers {
		p := o.ops[a.op]
		m.attempted += p.hi - p.lo
		m.respBytes += len(a.body)
		results, err := o.decode(a)
		if err == nil && len(results) != p.hi-p.lo {
			err = fmt.Errorf("%d results for %d records", len(results), p.hi-p.lo)
		}
		if err != nil {
			m.failed += p.hi - p.lo - 1
			m.fail("records %d..%d: %v", p.lo, p.hi, err)
			continue
		}
		for i, r := range results {
			rec := p.lo + i
			got := make([]int, 0, len(r.Matches))
			for _, mt := range r.Matches {
				got = append(got, mt.RightIndex)
				union[block.Pair{A: rec, B: mt.RightIndex}] = true
			}
			sort.Ints(got)
			canon := canonical(r)
			switch {
			case r.Degraded:
				m.fail("record %s: degraded (%s)", o.sl.leftID[rec], r.DegradedReason)
			case fmt.Sprint(got) != fmt.Sprint(o.oracle[rec]):
				m.fail("record %s: online matches %v, offline RunCtx %v", o.sl.leftID[rec], got, o.oracle[rec])
			case first[rec] != "" && first[rec] != canon:
				m.fail("record %s: answer differs from its first answer", o.sl.leftID[rec])
			}
			if first[rec] == "" {
				first[rec] = canon
			}
		}
	}
	pairs := make([]block.Pair, 0, len(union))
	for p := range union {
		pairs = append(pairs, p)
	}
	m.confusion = o.sl.score(pairs)
	m.digest = o.sl.digest(pairs)
}

func (o *online) decode(a answer) ([]*serve.MatchResponse, error) {
	if a.err != nil {
		return nil, a.err
	}
	if a.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.120s", a.status, a.body)
	}
	if o.batch {
		var br serve.BatchResponse
		if err := json.Unmarshal(a.body, &br); err != nil {
			return nil, err
		}
		return br.Results, nil
	}
	var r serve.MatchResponse
	if err := json.Unmarshal(a.body, &r); err != nil {
		return nil, err
	}
	return []*serve.MatchResponse{&r}, nil
}

// canonical renders the parts of an answer that must repeat (everything
// but the server's own timing).
func canonical(r *serve.MatchResponse) string {
	c := *r
	c.ElapsedMS, c.Trace = 0, nil
	data, _ := json.Marshal(c)
	return string(data)
}

// traced replays the pass's first operations with a span around each
// layer: the real HTTP call, the handler alone on an httptest recorder,
// and then the request's stages on a table of just its rows — the same
// public functions serve's matchSet calls. Then the ladder over the
// whole slice.
func (o *online) traced(ctx context.Context, tr *tracer, m *measured, out map[string]float64) error {
	var err error
	var httpMS, handlerMS, decodeUS, scanMS, probeMS, vecMS, predMS, layersMS []float64
	// One kernel sample after every operation; the pass's medians are
	// scaled by the one factor they give (tracer.time).
	var pass segment
	// The traced pass: a whole pass of batch requests (42), an eighth of
	// a pass of single ones (167).
	traced := len(o.ops)
	if !o.batch {
		traced = (len(o.ops) + 7) / 8
	}
	for k, p := range o.ops[:traced] {
		root := tr.begin("op", -1, k)
		var status int
		httpMS = append(httpMS, 1e3*tr.time("http", root, k, func() { status, _, err = o.post(ctx, p.body) }))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("traced request %d: status %d, %v", k, status, err)
		}
		handlerMS = append(handlerMS, 1e3*tr.time("serve.handler", root, k, func() {
			req := httptest.NewRequest(http.MethodPost, o.path(), bytes.NewReader(p.body))
			o.handler.ServeHTTP(httptest.NewRecorder(), req)
		}))
		replay := tr.begin("replay", root, k)
		var left *table.Table
		decodeUS = append(decodeUS, 1e6*tr.time("serve.decode", replay, k, func() { left, err = o.decodeRows(p.body) }))
		if err != nil {
			return fmt.Errorf("traced request %d: decode: %w", k, err)
		}
		st, err := replayStages(ctx, tr, replay, k, true, o.wf, left, o.sl.right)
		tr.end(replay)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("traced request %d: %w", k, err)
		}
		pass.probe(1)
		scanMS = append(scanMS, 1e3*st.sureS)
		probeMS = append(probeMS, 1e3*st.blockS)
		vecMS = append(vecMS, 1e3*st.vectorizeS)
		predMS = append(predMS, 1e3*st.predictS)
		layersMS = append(layersMS, 1e3*st.layersS())
		// The replay is a third execution mode; it must agree too.
		got := byLeft(left.Len(), st.final.Pairs())
		for i := range got {
			m.attempted++
			if want := o.oracle[p.lo+i]; fmt.Sprint(got[i]) != fmt.Sprint(want) {
				m.fail("record %s: replayed stages match %v, offline RunCtx %v", o.sl.leftID[p.lo+i], got[i], want)
			}
		}
	}
	f := pass.speed()
	out["serve.new_s"] = o.newS
	out["serve.decode_us_per_request"] = f * median(decodeUS)
	out["serve.handler_ms_p50"] = f * median(handlerMS)
	out["serve.transport_ms_p50"] = f * (median(httpMS) - median(handlerMS))
	out["serve.self_ms_p50"] = f * (median(handlerMS) - median(layersMS))
	out["rules.scan_ms_per_request"] = f * median(scanMS)
	out["block.probe_ms_per_request"] = f * median(probeMS)
	out["feature.vectorize_ms_per_request"] = f * median(vecMS)
	out["ml.predict_ms_per_request"] = f * median(predMS)
	out["bench.trace_overhead_frac"] = f*median(httpMS)/median(segmentTimings(m.segs).latMS) - 1
	out["serve.xmode_agree_frac"] = 1 - float64(m.failed)/float64(max(m.attempted, 1))

	if err := o.probeAlloc(ctx, out); err != nil {
		return err
	}
	if err := o.amortisation(ctx, out); err != nil {
		return err
	}
	out["umetrics.generate_s"], out["umetrics.preprocess_s"] = o.sl.generateS, o.sl.preprocessS
	_, _, err = ladder(ctx, tr, o.spec, o.sl, out)
	return err
}

// decodeRows is the handler's decode step: body to a left-schema table.
func (o *online) decodeRows(body []byte) (*table.Table, error) {
	var records []map[string]any
	if o.batch {
		req, err := serve.DecodeBatchRequest(bytes.NewReader(body), 0, 0)
		if err != nil {
			return nil, err
		}
		records = req.Records
	} else {
		req, err := serve.DecodeMatchRequest(bytes.NewReader(body), 0)
		if err != nil {
			return nil, err
		}
		records = []map[string]any{req.Record}
	}
	schema := o.sl.left.Schema()
	left := table.New("request", schema)
	for _, rec := range records {
		row, err := serve.RecordRow(schema, rec)
		if err != nil {
			return nil, err
		}
		if err := left.Append(row); err != nil {
			return nil, err
		}
	}
	return left, nil
}

// probeAlloc measures what one request's blocking probe allocates, over
// the first 16 operations between two counter reads.
func (o *online) probeAlloc(ctx context.Context, out map[string]float64) error {
	n := min(16, len(o.ops))
	lefts := make([]*table.Table, n)
	for i := range lefts {
		var err error
		if lefts[i], err = o.decodeRows(o.ops[i].body); err != nil {
			return err
		}
	}
	a0 := readMem()
	for _, left := range lefts {
		if _, err := block.UnionBlockCtx(ctx, left, o.sl.right, o.wf.Blockers...); err != nil {
			return err
		}
	}
	a1 := readMem()
	out["block.probe_alloc_kb_per_request"] = float64(a1.totalAlloc-a0.totalAlloc) / 1024 / float64(n)
	return nil
}

// amortisation sends the same first records down both paths and
// compares process CPU per record: what batching buys.
func (o *online) amortisation(ctx context.Context, out map[string]float64) error {
	n := min(5*batchSize, o.sl.left.Len())
	sub := o.sl.left.Head(n)
	cpuPer := func(batch bool) (float64, error) {
		ops, err := makeOps(sub, batch)
		if err != nil {
			return 0, err
		}
		path := "/v1/match"
		if batch {
			path += "/batch"
		}
		c0 := cpuSeconds()
		for _, p := range ops {
			if status, _, err := o.postTo(ctx, path, p.body); err != nil || status != http.StatusOK {
				return 0, fmt.Errorf("amortisation probe: status %d, %v", status, err)
			}
		}
		return (cpuSeconds() - c0) / float64(n), nil
	}
	single, err := cpuPer(false)
	if err != nil {
		return err
	}
	bulk, err := cpuPer(true)
	if err != nil {
		return err
	}
	if bulk > 0 {
		out["serve.batch_amortisation"] = single / bulk
	}
	return nil
}
