package main

// perf is the noise-aware benchmark regression gate: it diffs two
// BENCH_*.json snapshots (as written by scripts/bench_snapshot.sh) and
// exits 1 when any benchmark regressed past its fail threshold — the
// committed BENCH_pr*.json trajectory becomes an enforced contract
// instead of an eyeballed one.
//
// Noise model: each snapshot records how many whole-suite passes its
// numbers are the minimum of ("benchcount"). The minimum estimator only
// converges from above — scheduler interference inflates, never
// deflates — so the fewer passes a snapshot took, the more of an
// apparent regression is plausibly jitter. The gate widens its
// thresholds by a slack keyed to min(old.benchcount, new.benchcount):
// one pass +10 points, two passes +5, three or more +0. Benchmarks
// whose old ns/op sits under minGatedNs (nanobenches where one cache
// miss is 30%) are reported but never gated.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// benchSnapshot is the subset of a BENCH_*.json the gate reads.
// Unknown top-level keys are ignored (pr8-pr10 carry emload folds no
// later snapshot has); the two the gate *computes* from are strict below.
type benchSnapshot struct {
	Go          string       `json:"go"`
	Benchtime   string       `json:"benchtime"`
	Benchcount  int          `json:"benchcount"`
	Environment *benchEnv    `json:"environment"`
	Benchmarks  []benchEntry `json:"benchmarks"`
}

type benchEntry struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// benchEnv is the environment block bench_snapshot.sh embeds so
// cross-machine snapshots are never silently compared as if one
// machine regressed into the other.
type benchEnv struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

// The gate's bars: regression ratios (new/old - 1) at which a benchmark
// warns or fails — ns/op before noise slack, B/op and allocs/op as they
// are — and the old ns/op under which a benchmark is reported, never
// gated. `make perf-gate` is the one caller and runs at these.
const (
	nsWarn, nsFail   = 0.10, 0.20
	memWarn, memFail = 0.20, 0.50
	minGatedNs       = 100
)

// ratioEpsilon absorbs float round-trip error so a synthetic
// exactly-at-threshold inflation (the acceptance test) lands on the
// breach side deterministically.
const ratioEpsilon = 1e-9

// perfFinding is one gate observation, ordered fail > warn > info.
type perfFinding struct {
	level string // "fail" | "warn" | "info"
	text  string
}

func runPerf(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmonitor perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: emmonitor perf OLD_BENCH.json NEW_BENCH.json")
		return flag.ErrHelp
	}
	oldSnap, err := loadBenchSnapshot(fs.Arg(0))
	if err != nil {
		return err
	}
	newSnap, err := loadBenchSnapshot(fs.Arg(1))
	if err != nil {
		return err
	}

	var findings []perfFinding
	note := func(level, format string, a ...any) {
		findings = append(findings, perfFinding{level, fmt.Sprintf(format, a...)})
	}

	// Environment guard: two snapshots that disagree on the machine are
	// not a regression signal at all, so the gate refuses them. Old
	// snapshots predate the environment block; with either side missing,
	// the numbers are still the best available evidence, so compare and
	// say so.
	if oldSnap.Environment == nil || newSnap.Environment == nil {
		note("info", "environment metadata missing from %s; cross-environment drift cannot be ruled out",
			pickMissingEnv(fs.Arg(0), fs.Arg(1), oldSnap, newSnap))
	} else if diff := envMismatch(oldSnap.Environment, newSnap.Environment); diff != "" {
		return fmt.Errorf("snapshots come from different environments (%s); numbers are not comparable", diff)
	}

	// The min-of-N estimator's slack: either side measured with few
	// passes widens both thresholds.
	slack := noiseSlack(oldSnap.Benchcount, newSnap.Benchcount)
	if slack > 0 {
		note("info", "noise slack +%.0f points (benchcount old=%d new=%d; 3+ passes removes it)",
			100*slack, oldSnap.Benchcount, newSnap.Benchcount)
	}

	oldByKey := map[string]benchEntry{}
	for _, b := range oldSnap.Benchmarks {
		oldByKey[b.Package+"."+b.Name] = b
	}
	newKeys := map[string]bool{}
	regressed, improved, gated := 0, 0, 0
	for _, nb := range newSnap.Benchmarks {
		key := nb.Package + "." + nb.Name
		newKeys[key] = true
		ob, ok := oldByKey[key]
		if !ok {
			note("info", "added benchmark %s (%.0f ns/op); future gates will cover it", key, nb.NsPerOp)
			continue
		}
		r := ratio(ob.NsPerOp, nb.NsPerOp)
		switch {
		case ob.NsPerOp < minGatedNs:
			if r >= nsFail+slack-ratioEpsilon {
				note("info", "%s: ns/op %+.1f%% (%.1f -> %.1f) — under the %dns gating floor, not gated",
					key, 100*r, ob.NsPerOp, nb.NsPerOp, minGatedNs)
			}
		case r >= nsFail+slack-ratioEpsilon:
			note("fail", "%s: ns/op regressed %+.1f%% (%.0f -> %.0f), over the %.0f%% fail bar",
				key, 100*r, ob.NsPerOp, nb.NsPerOp, 100*(nsFail+slack))
			regressed++
		case r >= nsWarn+slack-ratioEpsilon:
			note("warn", "%s: ns/op regressed %+.1f%% (%.0f -> %.0f), over the %.0f%% warn bar",
				key, 100*r, ob.NsPerOp, nb.NsPerOp, 100*(nsWarn+slack))
			regressed++
		case r <= -(nsWarn + slack):
			improved++
		}
		if ob.NsPerOp >= minGatedNs {
			gated++
		}
		// Allocation metrics are near-deterministic per op, so the
		// slack does not apply; the floors skip benchmarks so small
		// that one transient allocation flips the ratio.
		if ob.BytesPerOp >= 64 {
			if br := ratio(ob.BytesPerOp, nb.BytesPerOp); br >= memFail-ratioEpsilon {
				note("fail", "%s: B/op regressed %+.1f%% (%.0f -> %.0f)", key, 100*br, ob.BytesPerOp, nb.BytesPerOp)
			} else if br >= memWarn-ratioEpsilon {
				note("warn", "%s: B/op regressed %+.1f%% (%.0f -> %.0f)", key, 100*br, ob.BytesPerOp, nb.BytesPerOp)
			}
		}
		if ob.AllocsPerOp >= 4 {
			if ar := ratio(ob.AllocsPerOp, nb.AllocsPerOp); ar >= memFail-ratioEpsilon {
				note("fail", "%s: allocs/op regressed %+.1f%% (%.0f -> %.0f)", key, 100*ar, ob.AllocsPerOp, nb.AllocsPerOp)
			} else if ar >= memWarn-ratioEpsilon {
				note("warn", "%s: allocs/op regressed %+.1f%% (%.0f -> %.0f)", key, 100*ar, ob.AllocsPerOp, nb.AllocsPerOp)
			}
		}
	}
	for key, ob := range oldByKey {
		if !newKeys[key] {
			note("warn", "benchmark %s (%.0f ns/op) disappeared from the new snapshot — deleted, renamed, or silently skipped?", key, ob.NsPerOp)
		}
	}

	return reportPerf(findings, gated, regressed, improved, stdout)
}

// loadBenchSnapshot reads one BENCH_*.json and validates the parts the
// gate computes from.
func loadBenchSnapshot(path string) (*benchSnapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks in snapshot", path)
	}
	seen := map[string]bool{}
	for _, b := range s.Benchmarks {
		if b.Package == "" || b.Name == "" || b.NsPerOp <= 0 {
			return nil, fmt.Errorf("%s: malformed benchmark entry %+v", path, b)
		}
		key := b.Package + "." + b.Name
		if seen[key] {
			return nil, fmt.Errorf("%s: duplicate benchmark %s", path, key)
		}
		seen[key] = true
	}
	return &s, nil
}

// ratio is the relative change new/old - 1 (old is validated > 0 for
// ns/op; mem callers gate on their own floors).
func ratio(old, new float64) float64 {
	if old <= 0 {
		return 0
	}
	return new/old - 1
}

// noiseSlack widens thresholds when either snapshot's minimum was taken
// over too few suite passes to have converged.
func noiseSlack(oldCount, newCount int) float64 {
	n := oldCount
	if newCount < n {
		n = newCount
	}
	switch {
	case n <= 1:
		return 0.10
	case n == 2:
		return 0.05
	}
	return 0
}

// envMismatch describes the first difference between two environment
// blocks ("" = same environment). GOMAXPROCS and kernel are compared
// too: a container with half the cores is a different machine as far as
// parallel benchmarks are concerned.
func envMismatch(a, b *benchEnv) string {
	switch {
	case a.GOOS != b.GOOS || a.GOARCH != b.GOARCH:
		return fmt.Sprintf("platform %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH)
	case a.CPUModel != b.CPUModel:
		return fmt.Sprintf("cpu %q vs %q", a.CPUModel, b.CPUModel)
	case a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS)
	case a.Go != b.Go:
		return fmt.Sprintf("toolchain %q vs %q", a.Go, b.Go)
	case a.Kernel != b.Kernel:
		return fmt.Sprintf("kernel %q vs %q", a.Kernel, b.Kernel)
	}
	return ""
}

func pickMissingEnv(oldPath, newPath string, o, n *benchSnapshot) string {
	switch {
	case o.Environment == nil && n.Environment == nil:
		return "both snapshots"
	case o.Environment == nil:
		return oldPath
	}
	return newPath
}

// reportPerf prints the findings (fails first) and the verdict line,
// and turns the verdict into the errBreach/ nil contract.
func reportPerf(findings []perfFinding, gated, regressed, improved int, stdout io.Writer) error {
	rank := map[string]int{"fail": 0, "warn": 1, "info": 2}
	sort.SliceStable(findings, func(i, j int) bool {
		return rank[findings[i].level] < rank[findings[j].level]
	})
	fails, warns := 0, 0
	for _, f := range findings {
		fmt.Fprintf(stdout, "%-5s %s\n", strings.ToUpper(f.level), f.text)
		switch f.level {
		case "fail":
			fails++
		case "warn":
			warns++
		}
	}
	fmt.Fprintf(stdout, "perf: %d benchmark(s) gated, %d regressed, %d improved, %d warn(s), %d fail(s)\n",
		gated, regressed, improved, warns, fails)
	if fails > 0 {
		return fmt.Errorf("%w: %d benchmark regression(s) over the fail threshold", errBreach, fails)
	}
	fmt.Fprintln(stdout, "perf: gate holds")
	return nil
}
