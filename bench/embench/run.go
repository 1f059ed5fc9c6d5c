package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"emgo/internal/ml"
	"emgo/internal/umetrics"
	"emgo/internal/workflow"
)

// nominalSeconds is the run length BENCHMARK.json declares. The work of
// a run is fixed before it starts — a request list or a rep count sized
// so the measured phase takes about this long on the reference box —
// and -seconds scales that list; no loop here ever looks at the clock
// to decide when to stop, so the same seed always does the same work.
const nominalSeconds = 12

// sizes are the data scales (umetrics.TestParams multiples of the
// paper's Figure 2 sizes). Tests shrink them; nothing else does.
type sizes struct {
	train     float64 // umetrics.Run(TestConfig(train)): the deployed spec
	online    float64 // 1 = 1336 x 1915
	deploy    float64 // 2 = 2672 x 3830
	study     float64 // RunCtxStudy scale
	warmStudy float64 // the study workload's warm-up study
}

var paperSizes = sizes{train: 0.5, online: 1, deploy: 2, study: 0.6, warmStudy: 0.25}

type runConfig struct {
	workload  string
	seed      int64 // row/request order
	dataSeed  int64 // record content
	seconds   int
	trace     bool
	sizes     sizes
	setupReps int
	outDir    string
}

// units scales a nominal amount of work by -seconds, never below floor.
func (c runConfig) units(nominal, floor int) int {
	n := (nominal*c.seconds + nominalSeconds/2) / nominalSeconds
	if n < floor {
		n = floor
	}
	return n
}

// setupProbes and traceBrackets are how many reference-kernel samples
// bracket, on each side, a set-up repetition and a traced call.
const setupProbes, traceBrackets = 4, 4

// workload is one of the four fixed-work workloads.
type workload interface {
	// setup is one set-up repetition, seed to ready-for-traffic; it
	// replaces whatever an earlier repetition built.
	setup(ctx context.Context) error
	teardown()
	// measure runs the fixed work with tracing off.
	measure(ctx context.Context) (*measured, error)
	// traced runs the traced pass and fills per-layer metrics.
	traced(ctx context.Context, tr *tracer, m *measured, out map[string]float64) error
}

// measured is what the untraced phase yields.
type measured struct {
	segs       []segment
	mem0, mem1 memCounters
	records    int       // left records answered over the whole phase
	opMS       []float64 // every operation's latency, at reference speed
	heapMB     float64   // HeapAlloc after the pre-phase GC

	// The reference kernel's footprint in the phase (see speed.go).
	kernelCalls                 int
	kernelAllocB, kernelMallocs float64 // per call

	attempted, failed int
	failures          []string // first few, with record and cause
	confusion         ml.Confusion
	digest            string
	work              string
	respBytes         int
}

func (m *measured) fail(format string, args ...any) {
	m.failed++
	if len(m.failures) < 20 {
		m.failures = append(m.failures, fmt.Sprintf(format, args...))
	}
}

// startPhase settles the heap and reads the counters the phase's
// allocation metrics are deltas of. It first measures what one call of
// the reference kernel allocates, so the kernel's share can be taken
// back out of those deltas.
func (m *measured) startPhase() {
	const calls = 16
	a0 := readMem()
	for i := 0; i < calls; i++ {
		refKernel()
	}
	a1 := readMem()
	m.kernelAllocB = float64(a1.totalAlloc-a0.totalAlloc) / calls
	m.kernelMallocs = float64(a1.mallocs-a0.mallocs) / calls

	runtime.GC()
	m.mem0 = readMem()
	m.heapMB = float64(m.mem0.heapAlloc) / (1 << 20)
}

// timeSegment runs f as one segment and appends it. The reference
// kernel's own time inside the segment does not count as the segment's.
func (m *measured) timeSegment(f func(seg *segment)) {
	var seg segment
	t0, c0 := time.Now(), cpuSeconds()
	f(&seg)
	seg.wallS = time.Since(t0).Seconds() - seg.kernelWallS
	seg.cpuS = cpuSeconds() - c0 - seg.kernelCPUS
	m.segs = append(m.segs, seg)
	m.records += seg.records
	for _, ms := range seg.opMS {
		m.opMS = append(m.opMS, ms*seg.speed())
	}
	m.kernelCalls += len(seg.kernelMS)
}

// allocated returns the phase's allocation per record in KB and in
// objects, the reference kernel's share removed.
func (m *measured) allocated() (kb, objects float64) {
	k, n := float64(m.kernelCalls), float64(m.records)
	kb = (float64(m.mem1.totalAlloc-m.mem0.totalAlloc) - k*m.kernelAllocB) / 1024 / n
	objects = (float64(m.mem1.mallocs-m.mem0.mallocs) - k*m.kernelMallocs) / n
	return kb, objects
}

// report is the full per-run document: the environment and noise
// self-report beside every metric.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	DataSeed   int64              `json:"data_seed"`
	Traced     bool               `json:"traced"`
	Work       string             `json:"work"`
	Env        environment        `json:"environment"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FailedFrac float64            `json:"failed_frac"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"result_digest"`
	Confusion  string             `json:"confusion"`
	Spread     float64            `json:"segment_spread"`
	SegRate    []float64          `json:"segment_records_per_s"`
	SegLatMS   []float64          `json:"segment_latency_p50_ms"`
	SegCPUMS   []float64          `json:"segment_cpu_ms_per_record"`
	Unresolved []string           `json:"unresolved,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	// Raw are the three timings as the clock read them; Speed is the
	// median factor (nominal / measured reference-kernel time) between.
	Raw       map[string]float64 `json:"raw_timings"`
	Speed     float64            `json:"speed_factor"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	ElapsedS  float64            `json:"elapsed_s"`
}

// run executes one workload end to end.
func run(ctx context.Context, cfg runConfig) (*report, error) {
	started := time.Now()
	env := readEnvironment()

	// The deployed spec comes from a development run at its fixed seed,
	// as in the paper: develop once, deploy on new slices. It is also
	// the code-path warm-up, and it is the same for every -seed.
	t0 := time.Now()
	dev, err := umetrics.Run(umetrics.TestConfig(cfg.sizes.train))
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainS := time.Since(t0).Seconds()

	w, err := newWorkload(cfg, dev.Deployment)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	// Set-up repetitions, each bracketed by reference-kernel samples so
	// that setup_s too is reported at reference speed.
	var setups, rawSetups []float64
	for i := 0; i < cfg.setupReps; i++ {
		var probes segment
		probes.probe(setupProbes)
		t := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t).Seconds()
		probes.probe(setupProbes)
		rawSetups = append(rawSetups, d)
		setups = append(setups, d*probes.speed())
	}

	m, err := w.measure(ctx)
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}

	rep := &report{
		Workload: cfg.workload, Seed: cfg.seed, DataSeed: cfg.dataSeed, Traced: cfg.trace,
		Work: m.work, Digest: m.digest, Confusion: m.confusion.String(),
	}
	tm := segmentTimings(m.segs)
	rep.Spread = spread(tm.wallS)
	rep.SegRate, rep.SegLatMS, rep.SegCPUMS = tm.rate, tm.latMS, tm.cpuMS
	rec := float64(m.records)
	allocKB, allocs := m.allocated()
	rep.Speed = median(tm.speed)
	rep.Raw = map[string]float64{
		"setup_s":           median(rawSetups),
		"records_per_s":     median(tm.rawRate),
		"latency_p50_ms":    median(tm.rawLatMS),
		"cpu_ms_per_record": median(tm.rawCPUMS),
	}
	rep.EndToEnd = map[string]float64{
		"setup_s":             median(setups),
		"records_per_s":       median(tm.rate),
		"latency_p50_ms":      median(tm.latMS),
		"cpu_ms_per_record":   median(tm.cpuMS),
		"alloc_kb_per_record": allocKB,
		"allocs_per_record":   allocs,
		"f1":                  m.confusion.F1(),
		"precision":           m.confusion.Precision(),
		"recall":              m.confusion.Recall(),
	}
	// A timing whose own segments disagree by more than its bound is not
	// a confident number; say so instead of letting it pass as one.
	for _, d := range endToEnd {
		if _, timing := rep.Raw[d.Name]; timing && d.Name != "setup_s" && rep.Spread > d.Bound {
			rep.Unresolved = append(rep.Unresolved, d.Name)
		}
	}

	if cfg.trace {
		tr := newTracer()
		out := map[string]float64{
			"umetrics.train_s":       trainS,
			"serve.latency_p90_ms":   quantile(m.opMS, 0.90),
			"serve.latency_p99_ms":   quantile(m.opMS, 0.99),
			"serve.latency_samples":  float64(len(m.opMS)),
			"serve.resident_heap_mb": m.heapMB,
			"bench.segment_spread":   rep.Spread,
			"bench.speed_factor":     rep.Speed,
			"bench.gc_cycles":        float64(m.mem1.numGC - m.mem0.numGC),
		}
		out["serve.response_bytes_per_record"] = float64(m.respBytes) / rec
		if err := w.traced(ctx, tr, m, out); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		path, err := tr.write(cfg.outDir, cfg.workload, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		rep.TraceFile = path
		out["bench.loadavg_1m"] = max(env.LoadBefore, loadAvg1m())
		rep.PerLayer = make(map[string]float64, len(perLayer))
		for _, d := range perLayer {
			rep.PerLayer[d.Name] = out[d.Name]
		}
	}
	env.LoadAfter = loadAvg1m()
	rep.Env = env
	// Read after the traced pass: it checks too (replayed stages against
	// the oracle), and its failures count.
	rep.Attempted, rep.Failed, rep.Failures = m.attempted, m.failed, m.failures
	rep.FailedFrac = float64(rep.Failed) / float64(max(rep.Attempted, 1))
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	rep.ElapsedS = time.Since(started).Seconds()
	return rep, nil
}

func newWorkload(cfg runConfig, spec *workflow.Spec) (workload, error) {
	switch cfg.workload {
	case "online_single":
		return &online{cfg: cfg, spec: spec}, nil
	case "online_batch":
		return &online{cfg: cfg, spec: spec, batch: true}, nil
	case "deploy_x2":
		return &deploy{cfg: cfg, spec: spec}, nil
	case "develop_study":
		return &study{cfg: cfg, spec: spec}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", cfg.workload)
}
