// Command emmonitor is the run-history and quality-monitoring CLI for
// deployed matchers — the operational companion to emmatch. It works on
// the machine-readable artifacts the pipeline already emits (run
// reports, drift baselines, run-history directories) and is designed to
// sit in cron/CI: "check" exits non-zero when a deployed run's quality
// drifted past the fail thresholds, so a scheduled matching job can gate
// publication of its matches on it.
//
// Usage:
//
//	emmonitor check -baseline baseline.json (-run run.json | -dir history/) \
//	        [-thresholds th.json] [-strict]
//	emmonitor diff runA.json runB.json
//	emmonitor history -dir history/ [-n 20]
//	emmonitor slo (-url http://addr | -file status.json) [-timeout 5s]
//	emmonitor perf OLD_BENCH.json NEW_BENCH.json
//
// check re-scores the live statistical profile embedded in a run report
// against a training-time baseline (possibly under different thresholds
// than the run used) and prints every signal; with -dir it checks the
// most recent run in the history. Exit status: 0 when quality holds,
// 1 on a fail-threshold breach (or any warn under -strict), 2 on usage
// or I/O errors, 130 when interrupted by SIGINT/SIGTERM (so a breach
// verdict is never confused with an operator abort).
//
// diff compares two run reports: per-stage wall time, counters,
// histogram percentiles (p50/p90/p99), and quality signals.
//
// history lists the runs recorded in an append-only history directory
// (see internal/obs/history), most recent last.
//
// slo reads a serving-tier status document — live from a running
// emserve (-url, fetching /v1/status) or from a file (-file) — and
// gates on its multi-window SLO burn rates: exit 1 when any objective
// burns its error budget past the threshold in both the fast and slow
// windows, 0 when the budget holds. Designed as the paging/CI
// counterpart of the in-process /v1/status report.
//
// perf diffs two BENCH_*.json snapshots (scripts/bench_snapshot.sh) at
// fixed bars and exits 1 on a benchmark regression; `make perf-gate`
// runs it over the two newest committed snapshots (see perf.go).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"emgo/internal/cliutil"
	"emgo/internal/drift"
	"emgo/internal/obs"
	"emgo/internal/obs/history"
	"emgo/internal/obs/slo"
)

// errBreach marks a quality-gate failure, distinguished from usage/IO
// errors so CI gets exit 1 for "quality degraded" and 2 for "the check
// itself could not run".
var errBreach = errors.New("quality degraded")

// SIGINT/SIGTERM cancel the run context before the next subcommand step;
// an interrupt exits 130, never masquerading as a breach (1).
func main() {
	cliutil.MainCodes("emmonitor", runCtx, func(err error) int {
		if errors.Is(err, errBreach) {
			return 1
		}
		return 2
	})
}

// run is runCtx without cancellation, kept as the testable seam.
func run(args []string, stdout, stderr io.Writer) error {
	return runCtx(context.Background(), args, stdout, stderr)
}

// runCtx is the whole program behind a testable seam.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("internal error: %v", r)
		}
	}()
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	if len(args) == 0 {
		usage(stderr)
		return flag.ErrHelp
	}
	switch args[0] {
	case "check":
		return runCheck(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "history":
		return runHistory(args[1:], stdout, stderr)
	case "slo":
		return runSLO(ctx, args[1:], stdout, stderr)
	case "perf":
		return runPerf(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stderr)
		return flag.ErrHelp
	default:
		usage(stderr)
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage:
  emmonitor check -baseline baseline.json (-run run.json | -dir history/) [-thresholds th.json] [-strict]
  emmonitor diff runA.json runB.json
  emmonitor history -dir history/ [-n 20]
  emmonitor slo (-url http://addr | -file status.json) [-timeout 5s]
  emmonitor perf OLD_BENCH.json NEW_BENCH.json

exit status:
  0    success (check: quality holds; slo: no budget burn; perf: no regression)
  1    check found a fail-threshold breach (or any warn under -strict);
       slo found an objective burning its error budget in both windows;
       perf found a benchmark regression over the fail bar
  2    usage error, unreadable input, or internal failure
  130  interrupted by SIGINT/SIGTERM before finishing`)
}

// loadReport reads and parses a run report.
func loadReport(path string) (*obs.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return obs.ParseReport(data)
}

func runCheck(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmonitor check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "", "training-time baseline profile (JSON, from a drift-capture run)")
	runPath := fs.String("run", "", "run report to check (must embed a quality profile)")
	dir := fs.String("dir", "", "run-history directory; checks the most recent run")
	thresholdsPath := fs.String("thresholds", "", "JSON file overriding the warn/fail thresholds")
	strict := fs.Bool("strict", false, "treat warn-level drift as a breach too")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	if *baselinePath == "" || (*runPath == "") == (*dir == "") {
		fmt.Fprintln(stderr, "emmonitor check needs -baseline and exactly one of -run / -dir")
		return flag.ErrHelp
	}

	base, err := drift.LoadProfile(*baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}

	var rep *obs.Report
	if *runPath != "" {
		if rep, err = loadReport(*runPath); err != nil {
			return fmt.Errorf("run report: %w", err)
		}
	} else {
		store, err := history.Open(*dir)
		if err != nil {
			return err
		}
		if rep, err = store.Last(); err != nil {
			return err
		}
		if rep == nil {
			return fmt.Errorf("history %s is empty", *dir)
		}
	}
	live, err := drift.ProfileFromQuality(rep.Quality)
	if err != nil {
		return fmt.Errorf("run %q: %w (was it run with drift monitoring?)", rep.Name, err)
	}

	th := drift.Thresholds{}
	if *thresholdsPath != "" {
		data, err := os.ReadFile(*thresholdsPath)
		if err != nil {
			return fmt.Errorf("thresholds: %w", err)
		}
		if err := unmarshalStrict(data, &th); err != nil {
			return fmt.Errorf("thresholds: %w", err)
		}
	}

	asmt, err := drift.Evaluate(base, live, th)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "run %s vs baseline %s: verdict %s\n", rep.Name, base.Name, asmt.Verdict)
	for _, s := range asmt.Signals {
		marker := " "
		switch s.Status {
		case drift.StatusWarn:
			marker = "!"
		case drift.StatusFail:
			marker = "X"
		}
		fmt.Fprintf(stdout, "  %s %-40s %.4f (warn %.2f fail %.2f)\n", marker, s.Name, s.Value, s.Warn, s.Fail)
	}
	if asmt.EstimatedPrecision != nil {
		fmt.Fprintf(stdout, "  estimated precision (drift-discounted): %s\n", asmt.EstimatedPrecision)
	}
	if asmt.Breached() || (*strict && asmt.Verdict == drift.StatusWarn) {
		return fmt.Errorf("%w: verdict %s", errBreach, asmt.Verdict)
	}
	return nil
}

// unmarshalStrict rejects unknown fields, so a typoed threshold name
// fails loudly instead of silently using the default.
func unmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func runDiff(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmonitor diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "emmonitor diff needs exactly two run-report paths")
		return flag.ErrHelp
	}
	a, err := loadReport(fs.Arg(0))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(0), err)
	}
	b, err := loadReport(fs.Arg(1))
	if err != nil {
		return fmt.Errorf("%s: %w", fs.Arg(1), err)
	}
	return history.DiffReports(a, b).Render(stdout)
}

func runHistory(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmonitor history", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "run-history directory")
	n := fs.Int("n", 20, "show at most the n most recent runs (0 = all)")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	if *dir == "" {
		fmt.Fprintln(stderr, "emmonitor history needs -dir")
		return flag.ErrHelp
	}
	store, err := history.Open(*dir)
	if err != nil {
		return err
	}
	reps, skipped, err := store.List()
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(stderr, "emmonitor: skipped %d corrupt history line(s)\n", skipped)
	}
	if len(reps) == 0 {
		fmt.Fprintln(stdout, "no runs recorded")
		return nil
	}
	start := 0
	if *n > 0 && len(reps) > *n {
		start = len(reps) - *n
	}
	fmt.Fprintf(stdout, "%-4s %-24s %-20s %-10s %-8s %s\n", "#", "run", "started", "outcome", "quality", "duration")
	for i := start; i < len(reps); i++ {
		r := reps[i]
		verdict := "-"
		if r.Quality != nil {
			verdict = r.Quality.Verdict
		}
		dur := r.FinishedAt.Sub(r.StartedAt).Round(time.Millisecond)
		fmt.Fprintf(stdout, "%-4d %-24s %-20s %-10s %-8s %s\n",
			i+1, clip(r.Name, 24), r.StartedAt.Format("2006-01-02 15:04:05"), r.Outcome, verdict, dur)
	}
	return nil
}

// sloStatus is the slice of the serving status document the slo check
// reads; extra fields are ignored so the check tolerates status-schema
// growth.
type sloStatus struct {
	SLO *slo.Report `json:"slo"`
}

func runSLO(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emmonitor slo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	url := fs.String("url", "", "base URL of a running emserve (fetches /v1/status)")
	file := fs.String("file", "", "status document to read instead of fetching (JSON)")
	timeout := fs.Duration("timeout", 5*time.Second, "HTTP fetch timeout for -url")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp
	}
	if (*url == "") == (*file == "") {
		fmt.Fprintln(stderr, "emmonitor slo needs exactly one of -url / -file")
		return flag.ErrHelp
	}

	var data []byte
	var err error
	if *file != "" {
		if data, err = os.ReadFile(*file); err != nil {
			return err
		}
	} else {
		if data, err = fetchStatus(ctx, *url, *timeout); err != nil {
			return err
		}
	}
	var st sloStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("parse status document: %w", err)
	}
	if st.SLO == nil || len(st.SLO.Objectives) == 0 {
		return fmt.Errorf("status document carries no SLO report (is the serving tier running with SLO tracking?)")
	}

	rep := st.SLO
	fmt.Fprintf(stdout, "slo report at %s (fast %s / slow %s, burn threshold %.1f)\n",
		rep.GeneratedAt.Format("2006-01-02 15:04:05"),
		time.Duration(rep.FastWindowMS*float64(time.Millisecond)).Round(time.Second),
		time.Duration(rep.SlowWindowMS*float64(time.Millisecond)).Round(time.Second),
		rep.BurnThreshold)
	var breached []string
	for _, o := range rep.Objectives {
		marker := " "
		if o.Breached {
			marker = "X"
			breached = append(breached, o.Name)
		}
		fmt.Fprintf(stdout, "  %s %-24s target %.3g%%  fast burn %.2f (%d/%d)  slow burn %.2f (%d/%d)\n",
			marker, o.Name, o.Target, o.FastBurn, o.FastBad, o.FastTotal, o.SlowBurn, o.SlowBad, o.SlowTotal)
	}
	if len(breached) > 0 {
		return fmt.Errorf("%w: SLO budget burning on %s", errBreach, strings.Join(breached, ", "))
	}
	fmt.Fprintln(stdout, "error budget holds")
	return nil
}

// fetchStatus GETs the status document from a running server. A bare
// base URL gets /v1/status appended; a URL already naming the status path
// is used as-is, so both -url http://addr and -url http://addr/v1/status
// work.
func fetchStatus(ctx context.Context, url string, timeout time.Duration) ([]byte, error) {
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, "/status") {
		url = strings.TrimSuffix(url, "/") + "/v1/status"
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return data, nil
}

// clip shortens s to width runes with an ellipsis.
func clip(s string, width int) string {
	if len(s) <= width {
		return s
	}
	if width <= 1 {
		return s[:width]
	}
	return s[:width-1] + "…"
}
