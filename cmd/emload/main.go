// Command emload is the open-loop load generator and soak harness for
// emserve (see docs/SERVING.md, "Capacity & soak testing").
//
//	emload -addr 127.0.0.1:8080 -right USDAProjected.csv \
//	       [-mode run|soak|capacity|chaos] \
//	       [-profile uniform|poisson] [-rate 50] [-duration 30s] \
//	       [-seed 1] [-blend single=88,batch=5,job=0,malformed=2,oversized=1,status=4] \
//	       [-timeout 10s] [-shed-retries 0] [-max-retry-after 2s] \
//	       [-report-every 5s] [-summary out.json] \
//	       [-slo "availability=99.5,latency=500ms@99"] \
//	       [-start-qps 5] [-max-qps 0] [-factor 2] [-step-duration 10s] [-p99-target 500] \
//	       [-server-bin ./emserve] [-workdir DIR] \
//	       [-shard-size 4] [-job-timeout 120s] [-- emserve base args...]
//
// Record indices are Zipf-distributed (s = 1.2), a batch carries 8
// records, a blend-submitted job 16, at most 4096 requests are in flight
// (an arrival past that is dropped and counted, never delayed).
//
// Modes:
//
//	run       one load phase, summary JSON out; exit 0 unless the run
//	          itself could not execute.
//	soak      run + gate: client-side SLOs, zero unexpected answers,
//	          Retry-After on every shed, no failed async job, at most
//	          1% of arrivals dropped by the generator, and the server's
//	          own /v1/status burn rates. Exit 1 on any breach — a CI
//	          gate, not a report.
//	capacity  stepped-QPS search for the max sustainable rate at the p99
//	          target; the staircase lands in the summary JSON.
//	chaos     supervised chaos-soak: boots its own emserve (-server-bin +
//	          args after --), trips and recovers the breaker under
//	          injected matcher faults, SIGKILLs the server at a shard
//	          boundary mid-load via EMCKPT_KILL, restarts it, and
//	          requires byte-identical job resume, Retry-After on sheds,
//	          a re-closed breaker, and a leak- and race-clean drain.
//
// Everything is seeded and deterministic on the generator side: the
// same flags replay the same arrival schedule bit for bit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/load"
	"emgo/internal/obs/slo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus os.Exit, the testable seam.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emload", flag.ContinueOnError)
	fs.SetOutput(stderr)

	mode := fs.String("mode", "run", "run | soak | capacity | chaos")
	addr := fs.String("addr", "", "server under test (host:port or http URL); not used by -mode chaos")
	right := fs.String("right", "", "right-table CSV the record pool is mined from")
	summaryPath := fs.String("summary", "", "write the summary JSON here instead of stdout")

	profile := fs.String("profile", load.ProfilePoisson, "arrival profile: uniform | poisson")
	rate := fs.Float64("rate", 50, "mean arrival rate (requests/second)")
	duration := fs.Duration("duration", 30*time.Second, "load phase length")
	seed := fs.Int64("seed", 1, "seed for every schedule draw (same seed = same schedule)")
	blendSpec := fs.String("blend", "", "request blend, e.g. single=88,batch=5,malformed=2,oversized=1,status=4 (empty = default)")

	timeout := fs.Duration("timeout", 10*time.Second, "per-request client deadline")
	shedRetries := fs.Int("shed-retries", 0, "extra attempts for shed answers, honoring Retry-After under jittered backoff")
	maxRetryAfter := fs.Duration("max-retry-after", 2*time.Second, "cap on how long one Retry-After hint may stall a retry")
	reportEvery := fs.Duration("report-every", 5*time.Second, "live eps/percentile line period (0 = silent)")

	sloSpec := fs.String("slo", "availability=99.5,latency=500ms@99", "client-side objectives the soak gate asserts (emserve -slo syntax)")

	startQPS := fs.Float64("start-qps", 5, "capacity search: first step rate")
	maxQPS := fs.Float64("max-qps", 0, "capacity search: rate ceiling (0 = 4096x start)")
	factor := fs.Float64("factor", 2, "capacity search: rate multiplier between steps")
	stepDuration := fs.Duration("step-duration", 10*time.Second, "capacity search: per-step length")
	p99Target := fs.Float64("p99-target", 500, "capacity search: p99 bar in ms a step must hold")

	serverBin := fs.String("server-bin", "", "chaos: emserve binary to supervise (base args after --)")
	workDir := fs.String("workdir", "", "chaos: scratch dir for job dirs, logs, address files (default: a temp dir)")
	shardSize := fs.Int("shard-size", 4, "chaos: canonical job shard size")
	jobTimeout := fs.Duration("job-timeout", 120*time.Second, "chaos: per-await job deadline")

	if err := fs.Parse(argv); err != nil {
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	blend := load.DefaultBlend()
	if *blendSpec != "" {
		b, err := load.ParseBlend(*blendSpec)
		if err != nil {
			fmt.Fprintf(stderr, "emload: %v\n", err)
			return 2
		}
		blend = b
	}

	var pool *load.RecordPool
	if *right != "" {
		p, err := load.NewRecordPool(*right)
		if err != nil {
			fmt.Fprintf(stderr, "emload: %v\n", err)
			return 2
		}
		pool = p
	}

	sched := load.ScheduleConfig{
		Profile:  *profile,
		Rate:     *rate,
		Duration: *duration,
		Seed:     *seed,
		Blend:    blend,
	}
	if pool != nil {
		sched.PickN = pool.Size()
	}
	clientCfg := load.ClientConfig{
		BaseURL:       normalizeURL(*addr),
		Timeout:       *timeout,
		Seed:          *seed,
		ShedRetries:   *shedRetries,
		MaxRetryAfter: *maxRetryAfter,
	}

	summary := &load.Summary{GeneratedBy: "emload", Mode: *mode, Target: clientCfg.BaseURL, Pass: true}
	switch *mode {
	case "run", "soak":
		if *addr == "" {
			fmt.Fprintln(stderr, "emload: -addr is required for -mode run/soak")
			return 2
		}
		objectives, err := slo.ParseObjectives(*sloSpec)
		if err != nil {
			fmt.Fprintf(stderr, "emload: -slo: %v\n", err)
			return 2
		}
		res, err := load.Run(ctx, load.RunConfig{
			Schedule:    sched,
			Client:      clientCfg,
			Pool:        pool,
			ReportEvery: *reportEvery,
			Report:      stderr,
		})
		if res == nil {
			fmt.Fprintf(stderr, "emload: %v\n", err)
			return 2
		}
		summary.Phases = append(summary.Phases, load.NewPhaseSummary(*mode, sched, res))
		if *mode == "soak" {
			gate := load.Gate{Objectives: objectives, CheckServer: load.NewClient(clientCfg, pool)}
			summary.Gate = gate.Evaluate(ctx, res)
			summary.Pass = summary.Gate.Pass
			for _, c := range summary.Gate.Checks {
				verdict := "ok"
				if !c.Pass {
					verdict = "BREACH"
				}
				fmt.Fprintf(stderr, "emload: gate %-20s %-6s %s\n", c.Name, verdict, c.Detail)
			}
		}

	case "capacity":
		if *addr == "" {
			fmt.Fprintln(stderr, "emload: -addr is required for -mode capacity")
			return 2
		}
		cres, err := load.SearchCapacity(ctx, load.CapacityConfig{
			StartQPS:     *startQPS,
			MaxQPS:       *maxQPS,
			Factor:       *factor,
			StepDuration: *stepDuration,
			P99TargetMS:  *p99Target,
			Schedule:     sched,
			Client:       clientCfg,
			Pool:         pool,
			ReportEvery:  *reportEvery,
			Report:       stderr,
		})
		if err != nil && cres == nil {
			fmt.Fprintf(stderr, "emload: %v\n", err)
			return 2
		}
		summary.Capac = cres
		summary.Pass = cres.MaxSustainableQPS > 0
		fmt.Fprintf(stderr, "emload: max sustainable rate %.1f qps at p99 <= %.0fms (achieved %.1f qps, p99 %.1fms)\n",
			cres.MaxSustainableQPS, cres.P99TargetMS, cres.AchievedAtMaxQPS, cres.P99AtMaxMS)

	case "chaos":
		if *serverBin == "" {
			fmt.Fprintln(stderr, "emload: -server-bin is required for -mode chaos (emserve base args after --)")
			return 2
		}
		wd := *workDir
		if wd == "" {
			tmp, err := os.MkdirTemp("", "emload-chaos-")
			if err != nil {
				fmt.Fprintf(stderr, "emload: %v\n", err)
				return 2
			}
			defer os.RemoveAll(tmp)
			wd = tmp
		}
		chres, err := load.RunChaos(ctx, load.ChaosConfig{
			Server:       load.ServerConfig{Bin: *serverBin, Args: fs.Args(), WorkDir: wd},
			Client:       clientCfg,
			Pool:         pool,
			ShardSize:    *shardSize,
			JobTimeout:   *jobTimeout,
			Rate:         *rate,
			LoadDuration: *duration,
			Seed:         *seed,
			Blend:        blend,
			ReportEvery:  *reportEvery,
			Report:       stderr,
		})
		if err != nil {
			fmt.Fprintf(stderr, "emload: chaos: %v\n", err)
			return 2
		}
		summary.Target = *serverBin
		summary.Chaos = chres
		summary.Phases = chres.Phases
		summary.Pass = chres.Pass

	default:
		fmt.Fprintf(stderr, "emload: unknown mode %q (want run|soak|capacity|chaos)\n", *mode)
		return 2
	}

	if err := writeSummary(*summaryPath, stdout, summary); err != nil {
		fmt.Fprintf(stderr, "emload: write summary: %v\n", err)
		return 2
	}
	if !summary.Pass {
		fmt.Fprintln(stderr, "emload: FAIL")
		return 1
	}
	return 0
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
