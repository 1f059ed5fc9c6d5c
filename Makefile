GO ?= go

.PHONY: all tier1 build test vet fmt-check race race-cpu fuzz bench-check api-check examples tier2 ci bench bench-baseline smoke perf-gate loc

all: tier1

# Tier 1 — the gate every change must pass.
tier1: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet runs twice: the second pass turns the smoke tag on, so the tagged
# harness (internal/smoke) cannot rot outside tier-1.
vet:
	$(GO) vet ./...
	$(GO) vet -tags smoke ./...

# fmt-check fails (listing the offenders) when any tracked Go file is not
# gofmt-clean; it never rewrites files, so it is safe in CI.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

race:
	$(GO) test -race ./...

# race-cpu reruns, at one and at two CPUs, the packages whose requests and
# runs share state built once — the rules' keyed join, the blockers' bound
# indexes and the probe scratch their free lists hand from call to call
# (TestBoundProbeConcurrent, TestBoundProbeAllocsIndependentOfRightTable),
# the feature set's bound cells, the server over all three, one workflow
# deployment run over
# several left slices at once (TestDeploymentConcurrentRuns), and the
# matchers' fits on views of one presorted root through pooled fit scratch
# and generators (TestConcurrentFitsShareOneRoot): a
# cold-build race only shows when callers really do arrive together, and
# a wait that never ends only when they cannot. The fits' generators copy
# seed states a root fills on first use; TestConcurrentFitsShareOneRoot
# fills a cold root's from several goroutines and
# TestSeededStreamsMatchFreshSources draws copies of one state
# interleaved, both ten times over, since a first fill races only once
# per root. At two CPUs it also holds
# a monitored run's quality profile to one answer above the sample cap,
# whatever order the vectorize workers finish in
# (TestMonitoredRunAboveCapIsDeterministic). The feature kernel and the
# server's cross-mode suite also run at four, where a batch's cells and
# pairs fan out over more workers than a shard or a single record gets,
# and so does the server's match scratch and request record, handed from
# pass to pass through free lists while singles and batches arrive from
# eight goroutines at once (TestConcurrentMixedRequestsKeepSerialAnswers).
# A free list is a channel hand-off shared by requests and join shards, and
# a value used after it went back only races when a later taker really
# does run at once, so that test and TestBoundProbeConcurrent run ten
# times over.
# A token join over a left table of 256 rows or more probes it in shards,
# one a core; the sharded-join tests set the core count themselves (1, 2
# and 4) and run ten times over, since what the shards write is only
# checked when they really do run at once: the same pairs in the same
# order as one shard (TestShardedJoinMatchesSerial) and the context's own
# error when cancelled mid-join (TestShardedJoinCancelled). The one-row
# request's allocation ceiling (TestOneRowUnionStaysOnTheCaller), which
# keeps requests off the sharded path, counts only outside the race
# detector, so `make test` holds it.
race-cpu:
	$(GO) test -race -cpu 1,2 ./internal/block ./internal/rules ./internal/ml ./internal/workflow
	$(GO) test -race -count=10 -run 'TestShardedJoin|TestBoundProbeConcurrent' ./internal/block
	$(GO) test -race -count=10 -run 'TestSeeded|TestConcurrentFitsShareOneRoot' ./internal/ml
	$(GO) test -race -cpu 1,2,4 ./internal/feature ./internal/serve
	$(GO) test -race -count=10 -run 'TestConcurrentMixedRequestsKeepSerialAnswers' ./internal/serve

# fuzz runs the oracle tests as fuzzers, ten seconds each — `go
# test` only replays their seeds: the word kernel against the string path
# it replaced (FuzzWordKeys), packed q-gram keys against the token sets
# they stand for (FuzzPackedKeys) and every prepared set similarity
# against its naive definition (FuzzSetSimilarity) — the candidate-set
# algebra against the map-and-slice set it replaced, asked through the
# cursors that walk ascending operands (FuzzCandidateSetAlgebra), the
# three token blockers, bound, against the nested-loop join over titles
# whose words fall on both sides of the density rule, postings walked or
# bitmaps summed (FuzzTokenJoin), and the counting tree fitter against
# the per-node sort it replaced, tree by tree on roots, views, repeated
# rows and forest bootstraps (FuzzPresortedFit), and the request record
# walker, single and batch, against the map decode it replaced: the same
# rows or the same 4xx status on every body (FuzzDecodeMatchRequest,
# FuzzDecodeBatchRequest). The rest are the parsers of outside input,
# which must fail cleanly and never panic on any bytes: the CSV reader
# and cell parser every input table goes through (FuzzReadCSV,
# FuzzParse).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzWordKeys$$' -fuzztime 10s ./internal/block
	$(GO) test -run '^$$' -fuzz '^FuzzCandidateSetAlgebra$$' -fuzztime 10s ./internal/block
	$(GO) test -run '^$$' -fuzz '^FuzzTokenJoin$$' -fuzztime 10s ./internal/block
	$(GO) test -run '^$$' -fuzz '^FuzzPackedKeys$$' -fuzztime 10s ./internal/feature
	$(GO) test -run '^$$' -fuzz '^FuzzSetSimilarity$$' -fuzztime 10s ./internal/feature
	$(GO) test -run '^$$' -fuzz '^FuzzPresortedFit$$' -fuzztime 10s ./internal/ml
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMatchRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBatchRequest$$' -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 10s ./internal/table
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/table

# bench-check vets and tests the nested benchmark module (bench/, its own
# go.mod with a replace onto this tree): tier-1 never compiles it, so a
# rename next to a symbol embench imports would otherwise go unnoticed
# until the benchmark is run. Offline, a few seconds.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# api-check runs the surface test (internal/surface): every exported
# function, method, type, constant, variable and struct field of the
# operational packages must be used — and every config field set — by
# non-test code somewhere in the repository (a binary, an example,
# bench/embench, the smoke harness), or sit in the test's allowlist with
# its reason. Its failure message names each orphan, where it is declared
# and the three ways out (wire it in, unexport it, delete it). The same
# scan holds fault injection to the same rule (TestFaultSitesAreArmed):
# every fault site sits in internal/serve, is armed by a test and is one
# of fault.Sites, the list emserve -inject checks names against. The
# telemetry vocabulary is held the same way
# (TestSpanAndEventNamesHaveReaders: span names, span annotations and
# events, wide-event fields, each with a reader). The third rule is for entry points
# (TestEntryPointsHaveRunners): every emload mode, emmonitor subcommand,
# policy flag of emload, emmonitor, emserve and emmatch, route the server
# mounts, snapshot key `emmonitor perf` decodes and environment switch of
# a script under scripts/ is invoked by a runner — a TestSmoke scenario, a
# target of this Makefile, a script, bench/run.sh, or the non-test code
# that runs the server (internal/load, emmonitor, bench/embench); a route
# counts as run when a runner's request resolves to it on a real
# http.ServeMux, and a handler is mounted at one pattern — and a sentence
# in the docs is not one; addresses, paths, ids, sizes and timeouts are
# deployment settings and stay. It type-checks the
# module and bench/ from source in a few seconds, so `go test ./...` runs
# it too; this target is the uncached, verbose form (it logs what was
# checked and how many of each kind are allowlisted).
api-check:
	$(GO) test -count=1 -v ./internal/surface

# examples builds and runs every program under examples/ — tier-1 only
# compiles them — and fails on the first that exits non-zero. Each one's
# "ok" line carries the sha256 of its stdout, so whether a change moved
# any example's output is this target run on both commits; each runs in
# well under a second.
examples:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	for e in examples/*/; do \
		name="$$(basename "$$e")"; \
		$(GO) build -o "$$dir/$$name" "./$$e"; \
		"$$dir/$$name" > "$$dir/$$name.out" || { echo "examples: $$name failed"; exit 1; }; \
		echo "examples: $$name ok $$(sha256sum < "$$dir/$$name.out" | cut -d' ' -f1)"; \
	done

# smoke is the end-to-end harness (internal/smoke): one tagged Go test
# package builds the CLIs once (emserve and emcasestudy with -race),
# generates one slice and spec once, and runs five scenarios against
# the real binaries — serve (degrade, shed, drain), obs (wide events,
# slow requests kept, SLO gate), load (soak 0/1,
# capacity), monitor (drift check 0/1) and chaos (the case study killed
# before, mid and after each of its three outputs, every output absent
# or intact, each rerun byte-identical) — with every server drained to
# exit 130, zero leaked goroutines, race-clean. Each scenario prints one
# PASS line; a failing one shows its process's log tail. One scenario:
#   go test -tags smoke -count=1 -v ./internal/smoke -run TestSmoke/serve
# See docs/SERVING.md ("The smoke test"), docs/RELIABILITY.md ("The chaos
# harness") and docs/OBSERVABILITY.md.
smoke:
	$(GO) test -tags smoke -count=1 -v ./internal/smoke

# perf-gate diffs the two newest committed BENCH_pr*.json snapshots with
# the noise-aware regression gate (no flags: its bars are constants in
# cmd/emmonitor/perf.go): exit 1 means the latest snapshot regressed past
# the fail thresholds against its predecessor — see
# docs/OBSERVABILITY.md, "Profiling & perf gating".
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
# trustworthy race-clean), 100 seconds of fuzzing (make fuzz), the
# nested benchmark module's own vet and tests, the exported-surface check,
# a run of every example program, the end-to-end smoke harness (the
# kill/rerun chaos scenario among its five), and the perf-regression
# gate over the committed BENCH trajectory.
tier2: fmt-check vet race race-cpu fuzz bench-check api-check examples smoke perf-gate

ci: tier1 tier2

# loc prints the measure ROADMAP aim 2 and open item 10 count in: lines of
# non-test Go outside bench/ and internal/smoke (tracked files plus new
# ones not yet added, so it reads the same before and after `git add`) —
# the total on the first line, then one line per top-level package
# directory (internal/serve, cmd/emload, …; "." is the module root), which
# is where item 10's per-package figures come from.
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^bench/' -e '^internal/smoke/' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = n > 2 ? p[1] "/" p[2] : "."; s[d] += $$1; t += $$1 } \
			END { print t; fflush(); for (d in s) printf "%7d %s\n", s[d], d | "sort -k2" }'

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
