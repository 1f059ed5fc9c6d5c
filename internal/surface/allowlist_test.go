package surface

// allowlist names the operational exports that stay without a non-test
// use, each with the reason it stays. There is no wildcard: a new seam
// gets its own line and its own reason.
var allowlist = map[string]string{
	"fault.Reset": "test seam: every test that arms a fault site defers it",

	"leakcheck.Check": "test seam: the goroutine-leak guard the concurrent packages' tests open with; the package exists for tests",

	"umetrics.TruthOracle.Class": "reference oracle: the experiment harness (experiments_test.go, experiments3_test.go) reads a pair's ground-truth class through it to regenerate the paper's rule-coverage numbers",
	"umetrics.ClassNone":         "the PairClass zero value — what Truth.MatchClass answers for a non-match; deleting the name would renumber the classes",

	"obs.Span.StageDurations": "reference oracle: the map-form flattening of a live tree, which the access log's sorted stages (TestLoggedStagesAreStageDurations) and the exported tree's (TestStageDurations) are held to",
}

// docReader is why a name no gate, report diff or test reads stays: the
// question an operator asks of it, and the docs section whose recipe
// answers that question with it.
type docReader struct{ question, recipe string }

// deploymentSettings classifies the flags and script switches that say
// where or how large rather than what to do — an address, a path, an id,
// a size, a timeout. They stay configurable whether or not a runner sets
// them; every other flag is policy and needs a runner.
var deploymentSettings = map[string]string{
	"emload -addr":    "address",
	"emload -right":   "path",
	"emload -summary": "path",
	"emload -timeout": "timeout",

	"emmonitor check -baseline": "path",
	"emmonitor check -run":      "path",

	"emserve -addr":                "address",
	"emserve -addr-file":           "path",
	"emserve -access-log":          "path", // "-" is stderr
	"emserve -right-id":            "id",
	"emserve -max-inflight":        "size",
	"emserve -max-queue":           "size",
	"emserve -max-body":            "size",
	"emserve -max-batch":           "size",
	"emserve -request-timeout":     "timeout",
	"emserve -drain-timeout":       "timeout",
	"emserve -read-header-timeout": "timeout",
	"emserve -read-timeout":        "timeout",
	"emserve -write-timeout":       "timeout",
	"emserve -idle-timeout":        "timeout",

	"emmatch -out":      "path",
	"emmatch -left-id":  "id",
	"emmatch -right-id": "id",
	"emmatch -timeout":  "timeout",

	"scripts/bench_snapshot.sh GO":         "path",
	"scripts/bench_snapshot.sh GOMAXPROCS": "size", // the Go runtime's own variable, read to record it
}

// unrunEntryPoints names the entry points no runner invokes that stay,
// each with its reason. No wildcard, at most five.
var unrunEntryPoints = map[string]string{
	"emload -blend":                        "the traffic mix is the deployment's own (its share of batch and malformed requests); every runner measures the default blend, and the parser is the one ParseBlend the tests pin",
	"emmonitor check -thresholds":          "drift tolerances belong to the data set being monitored, not to this repository; TestSmoke/monitor gates at the defaults",
	"emmonitor check -strict":              "the publication gate's severity (warn blocks too) is the receiving team's call per pipeline; the smoke drill checks exit 0 and exit 1 at the default",
	"scripts/bench_snapshot.sh BENCHCOUNT": "set by hand for every committed BENCH_pr*.json (9 passes since pr22) while `make bench-baseline` takes one; the snapshot records it as benchcount and the gate's noise slack reads that",
}

// traceReaders names the span annotations, request roots and
// wide-event fields whose only reader is a person following a docs recipe
// over a report's trace or the access log. No wildcard, at most eight.
var traceReaders = map[string]docReader{
	"annotation blocker": {"which blocker is this block.join span? (one per blocker, same span name)", "docs/OPERATIONS.md#what-did-a-run-do"},
}
