// Command emserve is the online matching service: it loads a deployed
// workflow spec (JSON, as produced by the development process), rebuilds
// the workflow against the two deployment tables, and answers single-record
// match requests over HTTP/JSON — the "matching as a service" end state of
// Section 12, run under hostile-conditions machinery: bounded admission
// with load shedding (429 + Retry-After), per-request deadlines whose ML
// sub-budget degrades a slow learned matcher to the rule-only answer. A
// matcher or blocker that fails answers 500. The spec is the deployment:
// the server serves the matcher it embeds for its whole life, and a new
// matcher is a new spec and a restart.
//
// Usage:
//
//	emserve -spec workflow.json -left left.csv -right right.csv \
//	        [-addr 127.0.0.1:8080] [-addr-file addr.txt] \
//	        [-max-inflight 8] [-max-queue 64] [-request-timeout 5s] [-max-body 1048576] \
//	        [-read-header-timeout 5s] [-read-timeout 30s] [-write-timeout 0] [-idle-timeout 120s] \
//	        [-transforms umetrics] [-date-cols ...] \
//	        [-max-batch 256] \
//	        [-access-log events.jsonl] [-access-sample 10] \
//	        [-inject site:spec ...]
//
// Endpoints (see docs/SERVING.md): POST /v1/match answers one record;
// POST /v1/match/batch answers a bounded batch (-max-batch records) in
// one amortized pipeline pass. A table larger than that is matched
// offline: emmatch over the same deployed spec. GET /healthz,
// /readyz and /v1/status report liveness, readiness and the live
// numbers: requests, queue, sheds by reason and the pipeline latency;
// /debug/ exposes pprof, the one profiling surface, and the standard
// expvars (`go tool pprof
// http://ADDR/debug/pprof/profile?seconds=5`; see docs/OBSERVABILITY.md
// "Profiling & perf gating"). Nothing
// authenticates a caller, so -addr is the boundary: bind it where only
// operators reach.
// Whether the matcher's quality still holds is checked offline, not per
// request: docs/OBSERVABILITY.md "Quality monitoring & drift".
//
// Observability: every request carries a request ID (minted, or a
// sanitized client X-Request-Id) echoed on the response and written on
// its wide event. -access-log emits one JSON wide event per request,
// its stage timings included (sampled by -access-sample for successes;
// errors, sheds, degraded answers and ok requests of 500 ms or more
// always log). Whether the service meets its objectives is judged by
// the client that drives it (emload's gate); the access log says which
// requests failed or were slow.
//
// Signals: SIGTERM/SIGINT drain the server — stop admitting (503), wait
// for in-flight requests up to the drain timeout, shut the listener
// down, verify no goroutines leaked, exit 130. SIGHUP is ignored.
//
// -inject arms a fault-injection plan at one of the two sites of
// internal/fault (site[:key=value,...], repeatable): serve.match, before a
// request's pipeline pass, and serve.predict, inside the learned stage's
// ML sub-budget. The smoke tests use them to slow the pass and the
// matcher so shedding and degradation are exercised for real. A site or
// key the plan syntax does not know fails the start (exit 1).
package main

import (
	"context"
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

	"emgo/internal/cliutil"
	"emgo/internal/fault"
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
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (for scripts binding port 0)")
	maxInflight := fs.Int("max-inflight", 0, "concurrent requests executing the pipeline (0 = default)")
	maxQueue := fs.Int("max-queue", 0, "requests allowed to wait for a slot before shedding (0 = default, <0 = never wait)")
	requestTimeout := fs.Duration("request-timeout", 5*time.Second, "per-request deadline ceiling")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size cap in bytes")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a drain waits for in-flight requests")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "how long a connection may dawdle over its request headers (Slowloris guard; 0 = unlimited)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "how long a connection may take to deliver a whole request (0 = unlimited)")
	writeTimeout := fs.Duration("write-timeout", 0, "how long a response write may take (0 = unlimited; request work is already bounded by -request-timeout)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "how long a keep-alive connection may sit idle between requests (0 = unlimited)")
	rightID := fs.String("right-id", "RecordId", "right-table ID column echoed in match responses")
	maxBatch := fs.Int("max-batch", 0, "records per /v1/match/batch request (0 = default; match a larger table offline with emmatch over the deployed spec)")
	accessLog := fs.String("access-log", "", "write one JSON wide event per request to this file (- = stderr; empty = off)")
	accessSample := fs.Int("access-sample", 1, "log 1 in N successful requests (errors/sheds/degraded and ok requests of 500ms or more always log)")
	var injects multiFlag
	fs.Var(&injects, "inject", "arm a fault-injection plan, site[:key=value,...] (repeatable; sites "+strings.Join(fault.Sites, ", ")+"; e.g. serve.predict:mode=sleep,sleep=4s,oncall=1)")
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

	cfg := serve.Config{
		Admission:       serve.AdmissionConfig{MaxInFlight: *maxInflight, MaxQueue: *maxQueue},
		RequestTimeout:  *requestTimeout,
		MaxBodyBytes:    *maxBody,
		DrainTimeout:    *drainTimeout,
		RightIDCol:      *rightID,
		MaxBatchRecords: *maxBatch,
		AccessSampleN:   *accessSample,
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

	srv, err := serve.New(ctx, cfg, wf, left, right)
	if err != nil {
		return err
	}

	// SIGHUP, whose default action would end the process undrained, is
	// ignored.
	signal.Ignore(syscall.SIGHUP)

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
	if wf.Matcher == nil {
		fmt.Fprintf(stderr, "emserve: serving rule-only (no matcher) on http://%s/\n", bound)
	} else {
		fmt.Fprintf(stderr, "emserve: serving matcher %s on http://%s/\n", wf.Matcher.Name(), bound)
	}

	select {
	case err := <-serveErr:
		// The listener died on its own — a real serving failure.
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
		return shutdown(ctx, srv, httpSrv, *drainTimeout, baseGoroutines, stderr)
	}
}

// shutdown runs the graceful-drain sequence: stop admitting, wait for
// in-flight requests, close the listener, then self-check for leaked
// goroutines. It returns the context's error so the interrupt exits 130.
func shutdown(ctx context.Context, srv *serve.Server, httpSrv *http.Server, drainTimeout time.Duration, baseGoroutines int, stderr io.Writer) error {
	fmt.Fprintln(stderr, "emserve: signal received; draining")
	srv.StartDrain()
	select {
	case <-srv.Drained():
		fmt.Fprintln(stderr, "emserve: drain complete")
	case <-time.After(drainTimeout + time.Second):
		fmt.Fprintln(stderr, "emserve: drain timed out; shutting down anyway")
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
