// Command emserve is the online matching service: it loads a deployed
// workflow spec (JSON, as produced by the development process), rebuilds
// the workflow against the two deployment tables, and answers single-record
// match requests over HTTP/JSON — the "matching as a service" end state of
// Section 12, run under hostile-conditions machinery: bounded admission
// with load shedding (429 + Retry-After), per-request deadlines, a circuit
// breaker that degrades the learned matcher to the rule-only path, and
// atomic hot reload of the matcher artifact with checksum validation and
// rollback.
//
// Usage:
//
//	emserve -spec workflow.json -left left.csv -right right.csv \
//	        [-addr 127.0.0.1:8080] [-addr-file addr.txt] [-matcher matcher.json] \
//	        [-max-inflight 8] [-max-queue 64] [-request-timeout 5s] [-max-body 1048576] \
//	        [-read-header-timeout 5s] [-read-timeout 30s] [-write-timeout 0] [-idle-timeout 120s] \
//	        [-breaker-failures 5] [-breaker-cooldown 10s] \
//	        [-transforms umetrics] [-date-cols ...] \
//	        [-max-batch 256] [-job-dir jobs/] [-job-workers 2] [-job-shard-size 32] \
//	        [-job-max-queued 8] \
//	        [-stream-chunk-timeout 15s] [-max-streams 4] [-stream-flush 256] \
//	        [-access-log events.jsonl] [-access-sample 10] [-tail-n 16] \
//	        [-slo availability=99.9,latency=250ms@99] [-tail-dump tail.json] \
//	        [-inject site:spec ...]
//
//	emserve -spec workflow.json -left left.csv -right right.csv \
//	        -export-matcher matcher.json
//
// Endpoints (see docs/SERVING.md): POST /v1/match answers one record;
// POST /v1/match/batch answers a bounded batch in one amortized pipeline
// pass; POST /v1/jobs submits an async bulk job (poll GET /v1/jobs/{id},
// fetch GET /v1/jobs/{id}/results — needs -job-dir; results are a
// resumable NDJSON stream with HMAC-signed cursors). Stream chunks carry
// their own -stream-chunk-timeout write deadlines, so a global
// -write-timeout bounds other responses without cutting healthy long
// streams; at
// most -max-streams streams hold shard files open at once (excess sheds
// 429), and a drain ends active streams at a flush boundary with a
// resumable cursor. GET /healthz,
// /readyz and /v1/status report liveness, readiness and the live
// breaker/queue counters; POST /-/reload hot-swaps the matcher
// artifact; /debug/ exposes expvar and pprof, the one profiling surface
// (`go tool pprof http://ADDR/debug/pprof/profile?seconds=5`; see
// docs/OBSERVABILITY.md "Profiling & perf gating"). Nothing
// authenticates a caller, so -addr is the boundary: bind it where only
// operators reach.
// Whether the matcher's quality still holds is checked offline
// (emmatch -drift-baseline, emmonitor check), not per request.
//
// Observability: every request carries a request ID (minted, or a
// sanitized client X-Request-Id) echoed on the response and threaded
// through spans and job shards. -access-log emits one JSON wide event
// per request (sampled by -access-sample for successes; errors, sheds
// and degraded answers always log). GET /debug/tail serves the in-memory
// tail capture — the N slowest plus every errored/degraded request of
// the current and previous windows, full span trees included — and
// -tail-dump writes that snapshot to a file on drain. -slo declares
// availability/latency objectives whose multi-window burn rates surface
// on /v1/status; emmonitor slo turns them into a check that exits
// non-zero on budget burn.
//
// Signals: SIGTERM/SIGINT drain the server — stop admitting (503), wait
// for in-flight requests up to the drain timeout, checkpoint and stop
// in-flight job shards (completed shards stay durable under -job-dir and
// resume on restart), shut the listener down, verify no goroutines
// leaked, exit 130. SIGHUP reloads the matcher artifact from its current
// path (same protocol as POST /-/reload).
//
// -export-matcher extracts the spec-embedded matcher to a standalone
// artifact file and exits; serving with -matcher on such a file is what
// makes the artifact hot-reloadable (a spec-embedded matcher has no path
// to re-read).
//
// -inject arms a fault-injection plan (site:spec, repeatable; see
// internal/fault) — the smoke tests use it to force matcher failures and
// latency so shedding and degradation are exercised for real.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"emgo/internal/ckpt"
	"emgo/internal/cliutil"
	"emgo/internal/fault"
	"emgo/internal/ml"
	"emgo/internal/obs"
	"emgo/internal/obs/slo"
	"emgo/internal/serve"
)

func main() { cliutil.Main("emserve", runCtx) }

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
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

	fs := flag.NewFlagSet("emserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dep := cliutil.DeploymentFlags(fs,
		"left table CSV (request records use its schema)",
		"right table CSV (the deployed corpus matched against)")
	matcherPath := fs.String("matcher", "", "standalone matcher artifact to serve (hot-reloadable; default: the spec-embedded matcher)")
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (for scripts binding port 0)")
	exportMatcher := fs.String("export-matcher", "", "write the spec-embedded matcher to this artifact file and exit")
	maxInflight := fs.Int("max-inflight", 0, "concurrent requests executing the pipeline (0 = default)")
	maxQueue := fs.Int("max-queue", 0, "requests allowed to wait for a slot before shedding (0 = default, <0 = never wait)")
	requestTimeout := fs.Duration("request-timeout", 5*time.Second, "per-request deadline ceiling")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size cap in bytes")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a drain waits for in-flight requests")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "how long a connection may dawdle over its request headers (Slowloris guard; 0 = unlimited)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "how long a connection may take to deliver a whole request (0 = unlimited)")
	writeTimeout := fs.Duration("write-timeout", 0, "how long a response write may take (0 = unlimited; request work is already bounded by -request-timeout)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "how long a keep-alive connection may sit idle between requests (0 = unlimited)")
	breakerFailures := fs.Int("breaker-failures", 0, "consecutive matcher failures that trip the breaker (0 = default)")
	breakerCooldown := fs.Duration("breaker-cooldown", 0, "how long the breaker stays open before probing (0 = default)")
	rightID := fs.String("right-id", "RecordId", "right-table ID column echoed in match responses")
	maxBatch := fs.Int("max-batch", 0, "records per /v1/match/batch request (0 = default; larger inputs go through jobs)")
	jobDir := fs.String("job-dir", "", "checkpoint root for the async job tier (empty = job endpoints disabled)")
	jobWorkers := fs.Int("job-workers", 0, "concurrent shard executors per job (0 = default)")
	jobShardSize := fs.Int("job-shard-size", 0, "records per job shard (0 = default)")
	jobMaxQueued := fs.Int("job-max-queued", 0, "jobs queued or running before submissions shed (0 = default)")
	streamChunkTimeout := fs.Duration("stream-chunk-timeout", 0, "slow-reader budget: a results stream whose client absorbs no chunk for this long is cut at a resumable cursor (0 = default 15s)")
	maxStreams := fs.Int("max-streams", 0, "concurrent result streams holding shard files open; excess sheds 429 (0 = default)")
	streamFlushEvery := fs.Int("stream-flush", 0, "records per stream chunk between cursor commits (0 = default)")
	accessLog := fs.String("access-log", "", "write one JSON wide event per request to this file (- = stderr; empty = off)")
	accessSample := fs.Int("access-sample", 1, "log 1 in N successful requests (errors/sheds/degraded always log)")
	tailN := fs.Int("tail-n", 0, "slowest requests retained per window in the /debug/tail buffer (0 = default)")
	sloSpec := fs.String("slo", "", "service objectives, e.g. availability=99.9,latency=250ms@99 (empty = defaults)")
	tailDump := fs.String("tail-dump", "", "write the tail-capture snapshot to this file when the server drains")
	var injects multiFlag
	fs.Var(&injects, "inject", "arm a fault-injection plan, site:spec (repeatable; e.g. ml.predict:prob=0.5)")
	if err := fs.Parse(args); err != nil {
		return flag.ErrHelp // the FlagSet already printed the diagnostic
	}

	if !dep.Complete() {
		fmt.Fprintln(stderr, "usage: emserve -spec workflow.json -left a.csv -right b.csv [-addr :8080]")
		return flag.ErrHelp
	}
	for _, spec := range injects {
		site, err := fault.EnableSpec(spec)
		if err != nil {
			return fmt.Errorf("-inject %q: %w", spec, err)
		}
		fmt.Fprintf(stderr, "emserve: fault injection armed at %s\n", site)
	}

	if err := dep.Load(); err != nil {
		return err
	}
	left, right := dep.Left, dep.Right

	// A served request must never trip a training pass: the spec is built
	// here exactly as emmatch builds it, then only its fitted parts run.
	wf, err := dep.Spec.Build(left, right, dep.Transforms)
	if err != nil {
		return err
	}

	if *exportMatcher != "" {
		if wf.Matcher == nil {
			return fmt.Errorf("-export-matcher: the spec embeds no fitted matcher")
		}
		if err := ml.SaveMatcherFile(*exportMatcher, wf.Matcher); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "emserve: wrote matcher artifact to %s\n", *exportMatcher)
		return nil
	}

	cfg := serve.Config{
		Admission:       serve.AdmissionConfig{MaxInFlight: *maxInflight, MaxQueue: *maxQueue},
		Breaker:         serve.BreakerConfig{Failures: *breakerFailures, Cooldown: *breakerCooldown},
		RequestTimeout:  *requestTimeout,
		MaxBodyBytes:    *maxBody,
		DrainTimeout:    *drainTimeout,
		MatcherPath:     *matcherPath,
		RightIDCol:      *rightID,
		MaxBatchRecords: *maxBatch,
		AccessSampleN:   *accessSample,
		TailN:           *tailN,
		Jobs: serve.JobConfig{
			Dir:       *jobDir,
			Workers:   *jobWorkers,
			ShardSize: *jobShardSize,
			MaxQueued: *jobMaxQueued,
		},
		Stream: serve.StreamConfig{
			ChunkTimeout: *streamChunkTimeout,
			MaxStreams:   *maxStreams,
			FlushEvery:   *streamFlushEvery,
		},
	}
	if *sloSpec != "" {
		objs, err := slo.ParseObjectives(*sloSpec)
		if err != nil {
			return fmt.Errorf("-slo: %w", err)
		}
		cfg.SLOs = objs
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-access-log: %w", err)
		}
		defer f.Close()
		cfg.AccessLog = f
	}

	// Serving always counts: the registry is what /debug/vars shows, the
	// library counters under a live server included. (/v1/status reads
	// Server fields, not the registry.)
	obs.Enable()

	srv, err := serve.New(ctx, cfg, wf, left, right)
	if err != nil {
		return err
	}
	defer srv.Close()

	// SIGHUP re-reads the matcher artifact from its current path — the
	// same validated swap-or-rollback protocol as POST /-/reload.
	// Registered before the leak baseline: the first signal.Notify in a
	// process starts the runtime's signal-delivery goroutine, which
	// lives until exit and must not read as a leak.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	// Baseline for the post-drain leak self-check, taken before the
	// listener spins up its accept loop.
	baseGoroutines := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	// Connection-level timeouts: without them one client holding its
	// request open (Slowloris) pins a connection forever — the admission
	// gate only protects work that reaches the handler.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	art := srv.Artifact()
	switch {
	case art == nil:
		fmt.Fprintf(stderr, "emserve: serving rule-only (no matcher) on http://%s/\n", bound)
	default:
		fmt.Fprintf(stderr, "emserve: serving matcher %s (%s) on http://%s/\n", art.Matcher.Name(), art.Checksum[:12], bound)
	}
	if jt := srv.JobTier(); jt != nil {
		fmt.Fprintf(stderr, "emserve: job tier enabled under %s (%d unfinished job(s) resumed)\n", *jobDir, jt.Recovered())
	}

	for {
		select {
		case <-hup:
			if art, rerr := srv.Reload(context.Background(), ""); rerr != nil {
				fmt.Fprintf(stderr, "emserve: SIGHUP reload failed (previous matcher stays active): %v\n", rerr)
			} else {
				fmt.Fprintf(stderr, "emserve: SIGHUP reloaded matcher %s (%s)\n", art.Path, art.Checksum[:12])
			}
		case err := <-serveErr:
			// The listener died on its own — a real serving failure.
			return fmt.Errorf("serve: %w", err)
		case <-ctx.Done():
			return shutdown(ctx, srv, httpSrv, *drainTimeout, *tailDump, baseGoroutines, stderr)
		}
	}
}

// shutdown runs the graceful-drain sequence: stop admitting, wait for
// in-flight requests, close the listener, then self-check for leaked
// goroutines. It returns the context's error so the interrupt exits 130.
func shutdown(ctx context.Context, srv *serve.Server, httpSrv *http.Server, drainTimeout time.Duration, tailDump string, baseGoroutines int, stderr io.Writer) error {
	fmt.Fprintln(stderr, "emserve: signal received; draining")
	srv.StartDrain()
	select {
	case <-srv.Drained():
		fmt.Fprintln(stderr, "emserve: drain complete")
	case <-time.After(drainTimeout + time.Second):
		fmt.Fprintln(stderr, "emserve: drain timed out; shutting down anyway")
	}
	if tailDump != "" {
		// Drained means every in-flight request has emitted its wide
		// event, so the snapshot taken now is complete for this run.
		data, merr := json.MarshalIndent(srv.TailSnapshot(), "", "  ")
		if merr == nil {
			merr = ckpt.AtomicWriteFile(tailDump, append(data, '\n'), 0o644)
		}
		if merr != nil {
			fmt.Fprintf(stderr, "emserve: tail dump: %v\n", merr)
		} else {
			fmt.Fprintf(stderr, "emserve: tail snapshot written to %s\n", tailDump)
		}
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "emserve: listener shutdown: %v\n", err)
	}
	// Self-check: after the drain everything we started must be gone.
	// Keep-alive conns and the runtime need a beat to wind down, so poll
	// with the same grace the test helper uses.
	deadline := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > baseGoroutines {
		fmt.Fprintf(stderr, "emserve: warning: %d goroutine(s) may have leaked (%d -> %d)\n", n-baseGoroutines, baseGoroutines, n)
	} else {
		fmt.Fprintln(stderr, "emserve: no leaked goroutines")
	}
	return ctx.Err()
}
