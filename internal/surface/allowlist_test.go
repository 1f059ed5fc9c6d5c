package surface

// allowlist names the operational exports that stay without a non-test
// use, each with the reason it stays. There is no wildcard: a new seam
// gets its own line and its own reason.
var allowlist = map[string]string{
	"fault.Reset":   "test seam: every test that arms a fault site defers it",
	"fault.Disable": "test seam: disarms one site mid-test while the others stay armed (serve's checkpoint-write recovery test)",
	"fault.Count":   "test seam: how often a site was reached — how the resume, resubmit and shard-skip tests count executions across packages",
	"obs.Disable":   "test seam: undoes obs.Enable so one test's registry does not leak into the next",

	"leakcheck.Check": "test seam: the goroutine-leak guard the concurrent packages' tests open with; the package exists for tests",

	"umetrics.TruthOracle.Class": "reference oracle: the experiment harness (experiments_test.go, experiments3_test.go) reads a pair's ground-truth class through it to regenerate the paper's rule-coverage numbers",
	"umetrics.ClassNone":         "the PairClass zero value — what Truth.MatchClass answers for a non-match; deleting the name would renumber the classes",
}

// metricReader is why a metric no gate, report diff or test reads stays:
// the question an operator asks of it, and the docs section whose recipe
// answers that question with it.
type metricReader struct{ question, recipe string }

// metricReaders names those metrics. No wildcard, at most twelve: a name
// here is read by a person at /debug/vars and by nothing else.
var metricReaders = map[string]metricReader{
	"serve.shed.deadline_in_queue": {"are requests timing out in the admission queue before they run?", "docs/SERVING.md#is-the-service-shedding-and-why"},
	"serve.shed.draining":          {"is the balancer still sending traffic to a draining instance?", "docs/SERVING.md#is-the-service-shedding-and-why"},
}

// deploymentSettings classifies the flags and script switches that say
// where or how large rather than what to do — an address, a path, an id,
// a size, a timeout. They stay configurable whether or not a runner sets
// them; every other flag is policy and needs a runner.
var deploymentSettings = map[string]string{
	"emload -addr":        "address",
	"emload -right":       "path",
	"emload -summary":     "path",
	"emload -server-bin":  "path",
	"emload -workdir":     "path",
	"emload -timeout":     "timeout",
	"emload -job-timeout": "timeout",
	"emload -shard-size":  "size", // handed through to the supervised emserve's -job-shard-size

	"emmonitor check -baseline": "path",
	"emmonitor check -run":      "path",
	"emmonitor check -dir":      "path",
	"emmonitor history -dir":    "path",
	"emmonitor history -n":      "size",
	"emmonitor slo -url":        "address",
	"emmonitor slo -file":       "path",
	"emmonitor slo -timeout":    "timeout",

	"emserve -addr":                 "address",
	"emserve -addr-file":            "path",
	"emserve -matcher":              "path",
	"emserve -export-matcher":       "path",
	"emserve -job-dir":              "path",
	"emserve -access-log":           "path", // "-" is stderr
	"emserve -tail-dump":            "path",
	"emserve -right-id":             "id",
	"emserve -max-inflight":         "size",
	"emserve -max-queue":            "size",
	"emserve -max-body":             "size",
	"emserve -max-batch":            "size",
	"emserve -max-streams":          "size",
	"emserve -stream-flush":         "size",
	"emserve -job-workers":          "size",
	"emserve -job-shard-size":       "size",
	"emserve -job-max-queued":       "size",
	"emserve -tail-n":               "size",
	"emserve -request-timeout":      "timeout",
	"emserve -drain-timeout":        "timeout",
	"emserve -read-header-timeout":  "timeout",
	"emserve -read-timeout":         "timeout",
	"emserve -write-timeout":        "timeout",
	"emserve -idle-timeout":         "timeout",
	"emserve -stream-chunk-timeout": "timeout",

	"emmatch -out":            "path",
	"emmatch -drift-capture":  "path",
	"emmatch -drift-baseline": "path",
	"emmatch -left-id":        "id",
	"emmatch -right-id":       "id",
	"emmatch -timeout":        "timeout",
	"emmatch -stage-timeout":  "timeout",

	"scripts/bench_snapshot.sh GO":         "path",
	"scripts/bench_snapshot.sh GOMAXPROCS": "size", // the Go runtime's own variable, read to record it
}

// unrunEntryPoints names the entry points no runner invokes that stay,
// each with its reason. No wildcard, at most five.
var unrunEntryPoints = map[string]string{
	"emload -blend":                        "the traffic mix is the deployment's own (its share of batch, job and malformed requests); every runner measures the default blend, and the parser is the one ParseBlend the tests pin",
	"emmonitor check -thresholds":          "drift tolerances belong to the data set being monitored, not to this repository; TestSmoke/monitor gates at the defaults",
	"emmonitor check -strict":              "the publication gate's severity (warn blocks too) is the receiving team's call per pipeline; the smoke drill checks exit 0 and exit 1 at the default",
	"scripts/bench_snapshot.sh BENCHCOUNT": "set by hand for every committed BENCH_pr*.json (9 passes since pr22) while `make bench-baseline` takes one; the snapshot records it as benchcount and the gate's noise slack reads that",
}

// traceReaders names the span annotations, span events, request roots and
// wide-event fields whose only reader is a person following a docs recipe
// over a report's trace, /debug/tail or the access log — the metricReaders
// of the rest of the telemetry. No wildcard, at most eight.
var traceReaders = map[string]metricReader{
	"annotation blocker":  {"which blocker is this block.join span? (one per blocker, same span name)", "docs/OBSERVABILITY.md#records"},
	"event ckpt":          {"why was this stage recomputed, or its checkpoint not written?", "docs/OBSERVABILITY.md#how-to-read-a-trace"},
	"field stream_chunks": {"how far did each connection of a resumed fetch get?", "docs/OBSERVABILITY.md#serving-request-ids-reading-the-access-log-tail-slos"},
}
