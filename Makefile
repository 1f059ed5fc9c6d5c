GO ?= go

.PHONY: all tier1 build test vet fmt-check race race-cpu tier2 ci bench bench-baseline chaos monitor-smoke serve-smoke job-smoke obs-smoke load-smoke prof-smoke stream-smoke perf-gate

all: tier1

# Tier 1 — the gate every change must pass.
tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt-check fails (listing the offenders) when any tracked Go file is not
# gofmt-clean; it never rewrites files, so it is safe in CI.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# race-cpu reruns, at one and at two CPUs, the packages whose requests and
# runs share state built once — the rules' keyed join, the blockers' bound
# indexes, the feature set's bound cells, the server over all three: a
# cold-build race only shows when callers really do arrive together, and
# a wait that never ends only when they cannot.
race-cpu:
	$(GO) test -race -cpu 1,2 ./internal/block ./internal/feature ./internal/rules ./internal/serve

# chaos kills the case-study pipeline (built with -race) at every
# checkpoint boundary and once mid-write, resumes each run, and asserts
# byte-identical results plus corruption quarantine — see
# scripts/chaos_run.sh and docs/RELIABILITY.md.
chaos:
	./scripts/chaos_run.sh

# monitor-smoke exercises the quality-monitoring loop end to end: a
# drift-capture run persists a baseline, an identical slice passes
# `emmonitor check` (exit 0), and a perturbed slice fails it (exit 1) —
# see scripts/monitor_smoke.sh and docs/OBSERVABILITY.md.
monitor-smoke:
	./scripts/monitor_smoke.sh

# serve-smoke runs the online matching service under injected matcher
# faults and latency with a race-built emserve: the burst must shed
# (429 + Retry-After), matcher failures must degrade to rule-only
# responses, hot reload must not drop in-flight requests, a corrupt
# artifact must roll back, and SIGTERM must drain with zero leaked
# goroutines — see scripts/serve_smoke.sh and docs/SERVING.md.
serve-smoke:
	./scripts/serve_smoke.sh

# job-smoke exercises the async batch-job tier's crash/resume contract
# with a race-built emserve: a reference job runs clean, then two chaos
# rounds kill the server at a shard-commit boundary and mid-write; each
# restart must recover the job, resume the durable shards without
# recomputing them, and produce byte-identical results — see
# scripts/job_smoke.sh and docs/SERVING.md.
job-smoke:
	./scripts/job_smoke.sh

# obs-smoke exercises the serving-observability stack end to end with a
# race-built emserve: request IDs must echo on every response, each
# request must emit exactly one parseable JSON wide event, an injected
# 300ms latency outlier must be retained (span tree included) in
# /debug/tail and the drain-time -tail-dump, and `emmonitor slo` must
# exit 0 against a healthy server and 1 against one burning its error
# budget — see scripts/obs_smoke.sh and docs/OBSERVABILITY.md.
obs-smoke:
	./scripts/obs_smoke.sh

# load-smoke exercises the open-loop load generator and soak harness
# with a race-built emserve: a clean soak must pass its gate (exit 0),
# a short capacity search must find a non-zero sustainable rate, a
# deliberately undersized server must trip the gate (exit exactly 1),
# and a chaos-soak must trip and re-close the breaker, SIGKILL the
# server at a shard boundary mid-load, and resume byte-identically —
# see scripts/load_smoke.sh and docs/SERVING.md.
load-smoke:
	./scripts/load_smoke.sh

# prof-smoke exercises continuous profiling end to end with a race-built
# emserve: interval captures must land in the /debug/contprof ring,
# manual triggers must schedule (and immediate repeats deduplicate),
# fetched profiles must be valid gzip, the ring must prune to -prof-max
# on disk, an SLO burn under -prof-on-breach must capture the fire, the
# drain must write a final capture, and `emmonitor perf` must exit
# exactly 1 on a deliberate 20% regression — see scripts/prof_smoke.sh
# and docs/OBSERVABILITY.md.
prof-smoke:
	./scripts/prof_smoke.sh

# stream-smoke exercises the resumable streaming result transport with a
# race-built emserve: a cursor-persisted fetch is SIGKILL'd mid-stream
# and resumed byte-identically after a restart over the same job dir, a
# drain cuts another stream at a flush boundary and the access logs of
# the cut and the resume must chain (stream_from = stream_end), every
# stream outlives a hostile global -write-timeout via per-chunk
# deadlines, and the stalled-reader/memory-bound harnesses run as go
# tests — see scripts/stream_smoke.sh and docs/SERVING.md.
stream-smoke:
	./scripts/stream_smoke.sh

# perf-gate diffs the two newest committed BENCH_pr*.json snapshots with
# the noise-aware regression gate: exit 1 means the latest snapshot
# regressed past the fail thresholds against its predecessor — see
# docs/OBSERVABILITY.md, "Continuous profiling & perf gating".
perf-gate:
	@set -e; \
	snaps="$$(ls BENCH_pr*.json 2>/dev/null | sort -t r -k 2 -n | tail -2)"; \
	count="$$(echo "$$snaps" | wc -w)"; \
	if [ "$$count" -lt 2 ]; then \
		echo "perf-gate: need two BENCH_pr*.json snapshots, have $$count; skipping"; \
	else \
		old="$$(echo $$snaps | cut -d' ' -f1)"; new="$$(echo $$snaps | cut -d' ' -f2)"; \
		echo "perf-gate: $$old -> $$new"; \
		$(GO) run ./cmd/emmonitor perf "$$old" "$$new"; \
	fi

# Tier 2 — the hardened-runtime gate: formatting and static analysis plus
# the full test suite under the race detector (the parallel fan-out,
# cancellation, fault-injection, and observability paths are only
# trustworthy race-clean), the kill/resume chaos harness, and the
# quality-monitoring and serving smoke loops, and the perf-regression
# gate over the committed BENCH trajectory.
tier2: fmt-check vet race race-cpu chaos monitor-smoke serve-smoke job-smoke obs-smoke load-smoke prof-smoke stream-smoke perf-gate

ci: tier1 tier2

# bench runs every benchmark (no unit tests) with allocation counts.
# BENCHTIME shortens or lengthens each measurement (e.g. BENCHTIME=10x
# for a quick smoke run).
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./...

# bench-baseline snapshots the current benchmark numbers into
# BENCH_baseline.json so future perf work has something to diff against.
bench-baseline:
	BENCHTIME=$(BENCHTIME) ./scripts/bench_snapshot.sh BENCH_baseline.json
