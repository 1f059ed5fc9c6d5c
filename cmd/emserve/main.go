// Command emserve is the online matching service of Section 12: it
// deploys a packaged workflow spec over two tables and answers match
// requests over HTTP/JSON under bounded admission, load shedding and
// per-request deadlines. -h lists the flags, and docs/OPERATIONS.md is
// the operator's guide.
//
//	emserve -spec workflow.json -left left.csv -right right.csv [-addr 127.0.0.1:8080]
//
// SIGTERM or SIGINT drains the server (readiness turns 503, in-flight
// requests finish, the listener closes, a goroutine self-check runs) and
// exits 130; SIGHUP is ignored. Exit 2 is a usage error and 1 any other
// failure, such as a spec that cannot be deployed.
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
	addr := fs.String("addr", "127.0.0.1:8080", "listen address; no route authenticates its caller, so bind it where only the balancer and operators reach")
	addrFile := fs.String("addr-file", "", "write the bound listen address to this file (for scripts binding port 0)")
	maxInflight := fs.Int("max-inflight", 0, fmt.Sprintf("concurrent requests executing the pipeline (0 = %d)", serve.DefaultMaxInFlight))
	maxQueue := fs.Int("max-queue", 0, fmt.Sprintf("requests allowed to wait for a slot before shedding with 429 (0 = %d, <0 = never wait)", serve.DefaultMaxQueue))
	requestTimeout := fs.Duration("request-timeout", 5*time.Second, "per-request deadline ceiling; a request's timeout_ms may lower it, never raise it")
	maxBody := fs.Int64("max-body", serve.DefaultMaxBodyBytes, "request body size cap in bytes")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a drain (SIGTERM, SIGINT) waits for in-flight requests")
	readHeaderTimeout := fs.Duration("read-header-timeout", 5*time.Second, "how long a connection may dawdle over its request headers (Slowloris guard; 0 = unlimited)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "how long a connection may take to deliver a whole request (0 = unlimited)")
	writeTimeout := fs.Duration("write-timeout", 0, "how long a response write may take (0 = unlimited; request work is already bounded by -request-timeout)")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "how long a keep-alive connection may sit idle between requests (0 = unlimited)")
	rightID := fs.String("right-id", "RecordId", "right-table ID column echoed in match responses")
	maxBatch := fs.Int("max-batch", 0, fmt.Sprintf("records per /v1/match/batch request (0 = %d; match a larger table offline with emmatch over the deployed spec)", serve.DefaultMaxBatchRecords))
	accessLog := fs.String("access-log", "", "write one JSON wide event per request, its stage timings included, to this file (- = stderr; empty = off)")
	accessSample := fs.Int("access-sample", 1, "log 1 in N successful requests (errors/sheds/degraded and ok requests of 500ms or more always log)")
	var injects multiFlag
	fs.Var(&injects, "inject", "arm a fault-injection plan, site[:key=value,...] (repeatable; sites "+strings.Join(fault.Sites, ", ")+": serve.match runs before a request's pipeline pass, serve.predict inside the learned stage's share of the deadline; an unknown site or key fails the start; e.g. serve.predict:mode=sleep,sleep=4s,oncall=1)")
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
