package surface

// allowlist names the operational exports that stay without a non-test
// use, each with the reason it stays. There is no wildcard: a new seam
// gets its own line and its own reason.
var allowlist = map[string]string{
	"fault.Reset":   "test seam: every test that arms a fault site defers it",
	"fault.Disable": "test seam: disarms one site mid-test while the others stay armed (serve's checkpoint-write recovery test)",
	"fault.Count":   "test seam: how often a site was reached — how the retry, resume and shard-skip tests count attempts across packages",
	"obs.Disable":   "test seam: undoes obs.Enable so one test's registry does not leak into the next",

	"leakcheck.Check": "test seam: the goroutine-leak guard the concurrent packages' tests open with; the package exists for tests",

	"umetrics.TruthOracle.Class": "reference oracle: the experiment harness (experiments_test.go, experiments3_test.go) reads a pair's ground-truth class through it to regenerate the paper's rule-coverage numbers",
	"umetrics.ClassNone":         "the PairClass zero value — what Truth.MatchClass answers for a non-match; deleting the name would renumber the classes",
}
