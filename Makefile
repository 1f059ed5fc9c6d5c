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

# race-cpu reruns under -race the packages whose callers share state built
# once, at 1 and 2 CPUs (a race shows only when callers run together, a hang
# only when they cannot), feature and serve also at 4; each test says why.
race-cpu:
	$(GO) test -race -cpu 1,2 ./internal/block ./internal/rules ./internal/ml ./internal/workflow
	$(GO) test -race -count=10 -run 'TestShardedJoin|TestBoundProbeConcurrent' ./internal/block
	$(GO) test -race -count=10 -run 'TestSeeded|TestConcurrentFitsShareOneRoot' ./internal/ml
	$(GO) test -race -cpu 1,2,4 ./internal/feature ./internal/serve
	$(GO) test -race -count=10 -run 'TestConcurrentMixedRequestsKeepSerialAnswers' ./internal/serve

# fuzz runs each oracle fuzzer, and the two parsers of outside input, for
# ten seconds (`go test` only replays their seeds); each fuzzer's doc
# comment says what it holds to what.
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
# go.mod), which tier-1 never compiles.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# api-check runs internal/surface uncached and verbose: TestOperationalExportsAreUsed,
# TestFaultSitesAreArmed, TestSpanAndEventNamesHaveReaders,
# TestEntryPointsHaveRunners and TestDocPointersResolve; `go test ./...` runs them too.
api-check:
	$(GO) test -count=1 -v ./internal/surface

# examples builds and runs every program under examples/, failing on the
# first non-zero exit; each "ok" line carries the sha256 of its stdout, so
# this target on two commits shows whether any example's output moved.
examples:
	@set -e; dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	for e in examples/*/; do \
		name="$$(basename "$$e")"; \
		$(GO) build -o "$$dir/$$name" "./$$e"; \
		"$$dir/$$name" > "$$dir/$$name.out" || { echo "examples: $$name failed"; exit 1; }; \
		echo "examples: $$name ok $$(sha256sum < "$$dir/$$name.out" | cut -d' ' -f1)"; \
	done

# smoke runs TestSmoke (internal/smoke, build tag smoke): five scenarios
# against the real binaries, named in docs/OPERATIONS.md#the-drills-behind-this-guide.
smoke:
	$(GO) test -tags smoke -count=1 -v ./internal/smoke

# perf-gate runs emmonitor perf (cmd/emmonitor/perf.go) over the two newest
# committed BENCH_pr*.json snapshots: exit 1 means the latest regressed.
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

# Tier 2 — the hardened-runtime gate: every check above, the suite under
# the race detector, fuzzing, the smoke harness and the perf gate.
tier2: fmt-check vet race race-cpu fuzz bench-check api-check examples smoke perf-gate

ci: tier1 tier2

# loc prints the ROADMAP's size measure: non-test Go outside bench/ and
# internal/smoke, tracked or new, the total first, then one line per
# top-level package directory ("." is the module root).
loc:
	@git ls-files -co --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^bench/' -e '^internal/smoke/' | xargs wc -l | \
		awk '$$2 != "total" { n = split($$2, p, "/"); d = n > 2 ? p[1] "/" p[2] : "."; s[d] += $$1; t += $$1 } \
			END { print t; fflush(); for (d in s) printf "%7d %s\n", s[d], d | "sort -k2" }'

# bench runs every benchmark (no unit tests) with allocation counts;
# BENCHTIME sets each measurement's length (e.g. BENCHTIME=10x).
BENCHTIME ?= 1s
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./...

# bench-baseline snapshots the benchmark numbers into BENCH_baseline.json
# (scripts/bench_snapshot.sh says how).
bench-baseline:
	BENCHTIME=$(BENCHTIME) ./scripts/bench_snapshot.sh BENCH_baseline.json
