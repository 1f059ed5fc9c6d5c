package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// metricDef is one catalogue entry. Names are the yardstick later PRs
// are judged with: add entries, never rename them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the parent's median it may worsen by; 0 = per-layer, not gated
	Note   string
}

// endToEnd are the metrics a user of the system sees, reported on every
// workload with tracing off.
//
// Timings are at reference speed (speed.go). Even so the box decides
// what they resolve: ten runs of one commit put their quartiles 2.5-10%
// apart (17-43% raw), while the allocation and quality counts repeat to
// 0.03%. So the timings carry the widest bound the contract allows and
// the counts the sharp ones.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of the set-up repetitions: seed to ready-for-traffic, training excluded; at reference speed"},
	{"records_per_s", "rec/s", "higher", 0.25, "median over segments of left records answered per second, at reference speed"},
	{"latency_p50_ms", "ms", "lower", 0.25, "median over segments of the segment's median operation latency, at reference speed"},
	{"cpu_ms_per_record", "ms", "lower", 0.25, "median over segments of process user+sys CPU per record, at reference speed"},
	{"alloc_kb_per_record", "KB", "lower", 0.02, "TotalAlloc delta over the measured phase per record, reference kernel's share removed"},
	{"allocs_per_record", "count", "lower", 0.02, "Mallocs delta over the measured phase per record, likewise"},
	{"f1", "ratio", "higher", 0.002, "against the generator's truth, hard pairs skipped"},
	{"precision", "ratio", "higher", 0.002, "TP / (TP+FP)"},
	{"recall", "ratio", "higher", 0.002, "TP / truth matches whose left record is in the slice"},
}

// perLayer are the single-layer metrics of the traced run, times at
// reference speed like the end-to-end ones. A layer the workload never
// enters reads 0.
var perLayer = []metricDef{
	{Name: "tokenize.word_ns_per_title", Unit: "ns", Better: "lower", Note: "tokenize.Word over the titles of the first 2000 candidate pairs"},
	{Name: "simfunc.jaccard_ns_per_pair", Unit: "ns", Better: "lower", Note: "same titles, pre-tokenized"},
	{Name: "simfunc.monge_elkan_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "simfunc.levenshtein_ns_per_pair", Unit: "ns", Better: "lower"},

	{Name: "umetrics.generate_s", Unit: "s", Better: "lower", Note: "umetrics.Generate in the last set-up repetition"},
	{Name: "umetrics.preprocess_s", Unit: "s", Better: "lower", Note: "Preprocess + AddProjectNumber"},
	{Name: "umetrics.train_s", Unit: "s", Better: "lower", Note: "umetrics.Run(TestConfig(0.5)), the source of the deployed spec"},
	{Name: "umetrics.section.generate_s", Unit: "s", Better: "lower", Note: "casestudy.* spans of the traced study rep"},
	{Name: "umetrics.section.preprocess_s", Unit: "s", Better: "lower"},
	{Name: "umetrics.section.blocking_s", Unit: "s", Better: "lower"},
	{Name: "umetrics.section.labeling_s", Unit: "s", Better: "lower"},
	{Name: "umetrics.section.matching_s", Unit: "s", Better: "lower"},
	{Name: "umetrics.section.updating_s", Unit: "s", Better: "lower"},
	{Name: "umetrics.section.estimating_s", Unit: "s", Better: "lower"},
	{Name: "umetrics.section.refining_s", Unit: "s", Better: "lower"},

	{Name: "rules.sure_s", Unit: "s", Better: "lower", Note: "Engine.SureMatches over the slice"},
	{Name: "rules.pairs_judged", Unit: "count", Better: "lower", Note: "|left| x |right|, the Cartesian scan"},
	{Name: "rules.judge_ns_per_pair", Unit: "ns", Better: "lower"},
	{Name: "rules.sure_matches", Unit: "count", Better: "higher"},
	{Name: "rules.scan_ms_per_request", Unit: "ms", Better: "lower", Note: "JudgeWithRule loop over the right table for one request's records"},
	{Name: "rules.veto_s", Unit: "s", Better: "lower", Note: "NegativeRules.FilterMatches over the learned matches"},
	{Name: "rules.vetoed", Unit: "count", Better: "lower"},

	{Name: "block.union_s", Unit: "s", Better: "lower", Note: "UnionBlockCtx over the slice"},
	{Name: "block.candidates", Unit: "count", Better: "lower", Note: "blocked minus sure"},
	{Name: "block.reduction_ratio", Unit: "ratio", Better: "lower", Note: "candidates / Cartesian"},
	{Name: "block.recall", Unit: "ratio", Better: "higher", Note: "truth matches inside sure+candidates / truth: what a faster blocker must not spend"},
	{Name: "block.probe_ms_per_request", Unit: "ms", Better: "lower", Note: "UnionBlockCtx with the request's rows as the left table"},
	{Name: "block.probe_alloc_kb_per_request", Unit: "KB", Better: "lower"},
	{Name: "block.debugger_s", Unit: "s", Better: "lower", Note: "block.Debugger over the study slice's candidate set"},

	{Name: "feature.vectorize_s", Unit: "s", Better: "lower", Note: "VectorizeCtx over every candidate"},
	{Name: "feature.pairs", Unit: "count", Better: "lower"},
	{Name: "feature.us_per_pair", Unit: "us", Better: "lower"},
	{Name: "feature.alloc_kb_per_pair", Unit: "KB", Better: "lower"},
	{Name: "feature.vectorize_ms_per_request", Unit: "ms", Better: "lower"},

	{Name: "ml.predict_s", Unit: "s", Better: "lower", Note: "Imputer.Transform + PredictAllCtx over every candidate"},
	{Name: "ml.ns_per_vector", Unit: "ns", Better: "lower"},
	{Name: "ml.predict_ms_per_request", Unit: "ms", Better: "lower"},
	{Name: "ml.select_s", Unit: "s", Better: "lower", Note: "SelectMatcher, six factories x 5 folds on a study-size labelled set"},
	{Name: "ml.loocv_s", Unit: "s", Better: "lower", Note: "LeaveOneOutDebug with a random forest on the same set"},

	{Name: "workflow.build_s", Unit: "s", Better: "lower", Note: "Spec.BuildCtx"},
	{Name: "workflow.run_s", Unit: "s", Better: "lower", Note: "Workflow.RunCtx over the slice"},
	{Name: "workflow.self_s", Unit: "s", Better: "lower", Note: "run_s minus the rules/block/feature/ml children: provenance, set algebra, report"},
	{Name: "workflow.matches", Unit: "count", Better: "higher"},

	{Name: "serve.new_s", Unit: "s", Better: "lower", Note: "serve.New in the last set-up repetition"},
	{Name: "serve.decode_us_per_request", Unit: "us", Better: "lower", Note: "Decode*Request + RecordRow"},
	{Name: "serve.handler_ms_p50", Unit: "ms", Better: "lower", Note: "Handler().ServeHTTP on an httptest recorder"},
	{Name: "serve.transport_ms_p50", Unit: "ms", Better: "lower", Note: "loopback p50 minus handler p50"},
	{Name: "serve.self_ms_p50", Unit: "ms", Better: "lower", Note: "handler p50 minus the replayed rules/block/feature/ml stages"},
	{Name: "serve.response_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "serve.latency_p90_ms", Unit: "ms", Better: "lower", Note: "over the untraced phase's operations; read with latency_samples"},
	{Name: "serve.latency_p99_ms", Unit: "ms", Better: "lower", Note: "reported, not gated: one client on a shared box has a neighbour-made tail"},
	{Name: "serve.latency_samples", Unit: "count", Better: "higher"},
	{Name: "serve.batch_amortisation", Unit: "ratio", Better: "higher", Note: "single / batch CPU per record over the same records"},
	{Name: "serve.resident_heap_mb", Unit: "MB", Better: "lower", Note: "HeapAlloc after the set-up GC: a prebuilt index is visible, not forbidden"},
	{Name: "serve.xmode_agree_frac", Unit: "ratio", Better: "higher", Note: "answers equal to the offline RunCtx verdict / answers"},

	{Name: "bench.speed_factor", Unit: "ratio", Better: "higher", Note: "median over segments of nominal / measured reference-kernel time: below 1 on a slow box"},
	{Name: "bench.segment_spread", Unit: "ratio", Better: "lower", Note: "IQR / median of segment wall times: the run's own noise reading"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Note: "traced pass p50 / untraced p50 - 1"},
	{Name: "bench.gc_cycles", Unit: "count", Better: "lower", Note: "NumGC delta over the measured phase"},
	{Name: "bench.loadavg_1m", Unit: "ratio", Better: "lower", Note: "max of /proc/loadavg before and after"},
}

// workloadDef names one fixed-work workload.
type workloadDef struct {
	Name string
	Why  string
	// Nominal work at the declared run length; -seconds scales it.
	Work string
	// SetupReps is how many times an untraced run sets up; setup_s is
	// their median. Five where a repetition takes under a second, three
	// where it takes three.
	SetupReps int
}

var workloads = []workloadDef{
	{"online_single", "point lookups: every left record of a paper-size slice as its own POST /v1/match, so per-request fixed cost (index rebuild) dominates",
		"1336 requests in row order = 16 segments x 83.5", 5},
	{"online_batch", "same records through POST /v1/match/batch 32 at a time: the matchSet layer in bulk, index build amortised, so a single-path gain that costs the bulk path shows",
		"9 passes x (41x32 + 24) records = 27 segments x 14 requests", 5},
	{"deploy_x2", "offline RunDeployed over a 2x slice (10.2M pairs) with no serve/HTTP layer: the quadratic paths bite; a serve-only change predicts no movement here",
		"5 reps, segment = rep", 3},
	{"develop_study", "the paper's whole development loop (RunCtxStudy): the only workload running ml cross-validation, label debugging, the blocking debugger and estimation",
		"5 reps at scale 0.6, one study seed each, segment = rep", 5},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// printList writes every workload and metric with unit, direction and
// bound — the -list output.
func printList(w io.Writer) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tFIXED WORK\tWHY")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", wl.Name, wl.Work, wl.Why)
	}
	fmt.Fprintln(tw, "\t\t")
	fmt.Fprintln(tw, "END-TO-END METRIC\tUNIT\tBETTER\tBOUND\tNOTE")
	for _, m := range endToEnd {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%s\n", m.Name, m.Unit, m.Better, 100*m.Bound, m.Note)
	}
	fmt.Fprintln(tw, "\t\t\t\t")
	fmt.Fprintln(tw, "PER-LAYER METRIC (-trace 1)\tUNIT\tBETTER\tBOUND\tNOTE")
	for _, m := range perLayer {
		fmt.Fprintf(tw, "%s\t%s\t%s\t-\t%s\n", m.Name, m.Unit, m.Better, m.Note)
	}
	tw.Flush() //nolint:errcheck // diagnostics to a terminal
}
