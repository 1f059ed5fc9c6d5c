// Command emload is the open-loop load generator and soak gate for
// emserve: it replays a seeded arrival schedule against a running server
// and judges each phase by load.Gate. -h lists the flags, and
// docs/OPERATIONS.md#how-much-load-can-it-take reads the output.
//
//	emload -addr 127.0.0.1:8080 -right USDAProjected.csv [-mode soak|capacity] [-summary out.json]
//
// Exit status: 0 when every judged phase passed (capacity: at least one
// step), 1 when one failed, 2 on a usage error or a run that could not
// execute, 130 when SIGINT or SIGTERM cut it short; a phase cut short is
// never judged, and no summary is written for it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/cliutil"
	"emgo/internal/load"
)

// errFail marks a judged failure (exit 1), apart from a usage error or
// a run that could not execute (exit 2).
var errFail = errors.New("FAIL")

func main() { cliutil.MainCodes("emload", runCtx, exitCode) }

// exitCode classifies an error that is neither an interrupt nor a
// wrong invocation caught by the FlagSet.
func exitCode(err error) int {
	if errors.Is(err, errFail) {
		return 1
	}
	return 2
}

// runCtx is the whole program behind a testable seam.
func runCtx(ctx context.Context, argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("emload", flag.ContinueOnError)
	fs.SetOutput(stderr)

	mode := fs.String("mode", "soak", "soak (one phase judged by the gate) | capacity (phases from -rate, times -factor up to -max-qps, until one fails; the last passing rate is the sustainable one)")
	addr := fs.String("addr", "", "server under test (host:port or http URL)")
	right := fs.String("right", "", "right-table CSV the record pool is mined from")
	summaryPath := fs.String("summary", "", "write the summary JSON here instead of stdout")

	profile := fs.String("profile", load.ProfilePoisson, "arrival profile: uniform | poisson")
	rate := fs.Float64("rate", 50, "mean arrival rate (requests/second); capacity: the first step's")
	duration := fs.Duration("duration", 30*time.Second, "load phase length; capacity: every step's")
	seed := fs.Int64("seed", 1, "seed for every schedule draw (same seed = same schedule)")
	blendSpec := fs.String("blend", "", "request blend, e.g. single=88,batch=5,malformed=2,oversized=1,status=4 (empty = default)")

	timeout := fs.Duration("timeout", 10*time.Second, "per-request client deadline")
	reportEvery := fs.Duration("report-every", 5*time.Second, "live eps/percentile line period (0 = silent)")

	sloSpec := fs.String("slo", "availability=99.5,latency=500ms@99", "client-side objectives the soak gate and every capacity step hold, e.g. availability=99.9,latency=250ms@99")

	maxQPS := fs.Float64("max-qps", 0, "capacity search: rate ceiling, at least -rate (0 = 4096x -rate)")
	factor := fs.Float64("factor", 2, "capacity search: rate multiplier between steps, above 1")

	if err := fs.Parse(argv); err != nil {
		return flag.ErrHelp
	}
	if *mode != "soak" && *mode != "capacity" {
		return fmt.Errorf("unknown mode %q (want soak|capacity)", *mode)
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required for -mode %s", *mode)
	}
	objectives, err := load.ParseObjectives(*sloSpec)
	if err != nil {
		return fmt.Errorf("-slo: %w", err)
	}

	blend := load.DefaultBlend()
	if *blendSpec != "" {
		b, err := load.ParseBlend(*blendSpec)
		if err != nil {
			return err
		}
		blend = b
	}

	var pool *load.RecordPool
	if *right != "" {
		p, err := load.NewRecordPool(*right)
		if err != nil {
			return err
		}
		pool = p
	}

	phase := load.RunConfig{
		Schedule: load.ScheduleConfig{
			Profile:  *profile,
			Rate:     *rate,
			Duration: *duration,
			Seed:     *seed,
			Blend:    blend,
		},
		Client: load.ClientConfig{
			BaseURL: normalizeURL(*addr),
			Timeout: *timeout,
		},
		Pool:        pool,
		ReportEvery: *reportEvery,
		Report:      stderr,
	}
	if pool != nil {
		phase.Schedule.PickN = pool.Size()
	}

	summary := &load.Summary{GeneratedBy: "emload", Mode: *mode, Target: phase.Client.BaseURL}
	switch *mode {
	case "soak":
		res, err := load.Run(ctx, phase)
		if err != nil {
			return err
		}
		res.Name = "soak"
		res.Gate = load.Gate{Objectives: objectives}.Evaluate(res)
		summary.Phases = []*load.Result{res}
		summary.Pass = res.Gate.Pass
		for _, c := range res.Gate.Checks {
			verdict := "ok"
			if !c.Pass {
				verdict = "BREACH"
			}
			fmt.Fprintf(stderr, "emload: gate %-20s %-6s %s\n", c.Name, verdict, c.Detail)
		}

	case "capacity":
		cres, err := load.SearchCapacity(ctx, load.CapacityConfig{
			RunConfig:  phase,
			MaxQPS:     *maxQPS,
			Factor:     *factor,
			Objectives: objectives,
		})
		if err != nil {
			return err
		}
		summary.Capac = cres
		summary.Pass = cres.MaxSustainableQPS > 0
		fmt.Fprintf(stderr, "emload: max sustainable rate %.1f qps under %s (achieved %.1f qps)\n",
			cres.MaxSustainableQPS, *sloSpec, cres.AchievedAtMaxQPS)
	}
	if err := ctx.Err(); err != nil {
		return err // interrupted while judging: no verdict
	}

	if err := writeSummary(*summaryPath, stdout, summary); err != nil {
		return fmt.Errorf("write summary: %w", err)
	}
	if !summary.Pass {
		return errFail
	}
	return nil
}

// writeSummary renders the summary to stdout or, given a path, into that
// file atomically: a failing write leaves the previous summary — which
// the smoke harness reads — as it was.
func writeSummary(path string, stdout io.Writer, summary *load.Summary) error {
	if path == "" {
		return summary.Write(stdout)
	}
	return ckpt.AtomicWriteTo(path, 0o644, summary.Write)
}

// normalizeURL accepts host:port or a full URL.
func normalizeURL(addr string) string {
	if addr == "" {
		return ""
	}
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + addr
}
