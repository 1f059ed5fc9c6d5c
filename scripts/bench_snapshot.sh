#!/bin/sh
# bench_snapshot.sh — run every Go benchmark and snapshot the numbers as
# JSON, so perf work has a committed baseline to diff against.
#
# Usage:
#   scripts/bench_snapshot.sh [output.json]       (default: BENCH_baseline.json)
#   BENCHTIME=10x scripts/bench_snapshot.sh       (quick smoke snapshot)
#   BENCHCOUNT=5 scripts/bench_snapshot.sh        (min-of-5 per benchmark)
#
# BENCHCOUNT > 1 runs the whole suite that many times and snapshots the
# per-benchmark minimum. On noisy machines (shared VMs, laptops under
# load) scheduler interference only ever inflates a measurement, so the
# minimum is the stable estimator of the code's actual cost — a single
# pass can easily carry ±20% jitter that swamps small regressions. The
# repetitions are whole-suite passes rather than `go test -count`, so
# one benchmark's samples land minutes apart and a sustained slow phase
# (VM CPU steal, a thermal dip) cannot poison all of them at once.
#
# Only POSIX sh + awk + the go toolchain are required. The raw `go test
# -bench` output is parsed line by line: `pkg:` lines carry the package,
# `Benchmark...` lines carry iterations, ns/op, and (with -benchmem)
# B/op and allocs/op.
set -eu

out="${1:-BENCH_baseline.json}"
benchtime="${BENCHTIME:-1s}"
benchcount="${BENCHCOUNT:-1}"
go_bin="${GO:-go}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

pass=1
while [ "$pass" -le "$benchcount" ]; do
    echo "bench_snapshot: running benchmarks (benchtime=$benchtime pass=$pass/$benchcount)..." >&2
    "$go_bin" test -run '^$' -bench . -benchmem -benchtime "$benchtime" ./... >>"$raw" 2>&1 || {
        echo "bench_snapshot: go test -bench failed:" >&2
        cat "$raw" >&2
        exit 1
    }
    pass=$((pass + 1))
done

goversion="$("$go_bin" version | sed 's/^go version //')"

# Environment block: benchmark numbers only mean something relative to
# the box that produced them, so the snapshot records enough of the
# machine for `emmonitor perf` to refuse (or warn on) cross-environment
# comparisons instead of mistaking a hardware change for a regression.
goos="$("$go_bin" env GOOS)"
goarch="$("$go_bin" env GOARCH)"
gotool="$("$go_bin" env GOVERSION 2>/dev/null || echo unknown)"
gomaxprocs="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)}"
cpu_model="$(awk -F': *' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[ -n "$cpu_model" ] || cpu_model=unknown
kernel="$(uname -sr 2>/dev/null || echo unknown)"
# Strip characters that would break the hand-rolled JSON emitter.
cpu_model="$(printf '%s' "$cpu_model" | tr -d '"\\')"
kernel="$(printf '%s' "$kernel" | tr -d '"\\')"

awk -v benchtime="$benchtime" -v benchcount="$benchcount" -v goversion="$goversion" \
    -v goos="$goos" -v goarch="$goarch" -v gotool="$gotool" -v gomaxprocs="$gomaxprocs" \
    -v cpu_model="$cpu_model" -v kernel="$kernel" '
/^pkg: / { pkg = $2; next }
/^Benchmark/ {
    # Benchmark<Name>-P  <iters>  <ns> ns/op  [<B> B/op  <allocs> allocs/op]
    name = $1; iters = $2
    ns = ""; bop = ""; allocs = ""
    for (i = 3; i < NF; i++) {
        if ($(i+1) == "ns/op") ns = $i
        if ($(i+1) == "B/op") bop = $i
        if ($(i+1) == "allocs/op") allocs = $i
    }
    if (ns == "") next
    key = pkg SUBSEP name
    if (!(key in min_ns)) {
        order[++n] = key
        min_ns[key] = ns + 0
        rec[key] = sprintf("{\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", pkg, name, iters, ns)
        if (bop != "") rec[key] = rec[key] sprintf(", \"bytes_per_op\": %s", bop)
        if (allocs != "") rec[key] = rec[key] sprintf(", \"allocs_per_op\": %s", allocs)
        rec[key] = rec[key] "}"
    } else if (ns + 0 < min_ns[key]) {
        min_ns[key] = ns + 0
        rec[key] = sprintf("{\"package\": \"%s\", \"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", pkg, name, iters, ns)
        if (bop != "") rec[key] = rec[key] sprintf(", \"bytes_per_op\": %s", bop)
        if (allocs != "") rec[key] = rec[key] sprintf(", \"allocs_per_op\": %s", allocs)
        rec[key] = rec[key] "}"
    }
}
END {
    printf "{\n"
    printf "  \"generated_by\": \"scripts/bench_snapshot.sh\",\n"
    printf "  \"go\": \"%s\",\n", goversion
    printf "  \"benchtime\": \"%s\",\n", benchtime
    printf "  \"benchcount\": %d,\n", benchcount + 0
    printf "  \"environment\": {\n"
    printf "    \"go\": \"%s\",\n", gotool
    printf "    \"goos\": \"%s\",\n", goos
    printf "    \"goarch\": \"%s\",\n", goarch
    printf "    \"gomaxprocs\": %d,\n", gomaxprocs + 0
    printf "    \"cpu_model\": \"%s\",\n", cpu_model
    printf "    \"kernel\": \"%s\"\n", kernel
    printf "  },\n"
    printf "  \"benchmarks\": ["
    for (i = 1; i <= n; i++) {
        if (i > 1) printf ","
        printf "\n    %s", rec[order[i]]
    }
    if (n > 0) printf "\n  "
    printf "],\n"
    printf "  \"count\": %d\n", n
    printf "}\n"
}
' "$raw" >"$out"

count="$(awk '/"count":/ {gsub(/,/, "", $2); print $2; exit}' "$out")"
echo "bench_snapshot: wrote $count benchmarks to $out" >&2
