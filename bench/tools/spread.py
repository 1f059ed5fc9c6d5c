#!/usr/bin/env python3
"""Run every workload ten times, each with another --seed, and print for each
end-to-end metric the run-to-run spread the driver computes: the distance
between the first and third quartile of the ten values as a share of their
median (statistics.quantiles(values, n=4)). A second set of runs can be
compared with the first: --compare A.json B.json.

  python3 bench/tools/spread.py --out bench/out/aa/set1.json [--seeds 1..10]
  python3 bench/tools/spread.py --compare bench/out/aa/set1.json bench/out/aa/set2.json
"""
import argparse
import json
import statistics
import subprocess
import sys

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in bench["end_to_end"]}


def run_set(seeds, out):
    runs = {}
    for w in [w["name"] for w in bench["workloads"]]:
        runs[w] = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            lines = p.stdout.strip().splitlines()
            last, full = json.loads(lines[-1]), json.loads(lines[0])
            if not last["correct"] or last["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect: {last}")
            runs[w].append({"seed": seed, "digest": full["result_digest"], "elapsed_s": full["elapsed_s"],
                            "unresolved": full.get("unresolved", []),
                            "metrics": {k: v["value"] for k, v in last["metrics"].items()}})
            print(f"{w} seed {seed}: {full['elapsed_s']:.1f}s", file=sys.stderr)
    json.dump({"environment": full["environment"], "runs": runs}, open(out, "w"), indent=1)
    return runs


def summarise(runs):
    table = {}
    for w, rs in runs.items():
        for name in bounds:
            vals = [r["metrics"][name] for r in rs]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            table[(w, name)] = (med, (q[2] - q[0]) / med)
    return table


def show(table):
    print(f"{'workload':14} {'metric':20} {'median':>12} {'IQR/median':>10} {'bound':>7}  verdict")
    worst = 0.0
    for (w, name), (med, spread) in table.items():
        b = bounds[name]["bound"]
        verdict = "ok" if spread < b / 3 else ("within bound" if spread <= b else "TOO NOISY")
        if name != "setup_s":
            worst = max(worst, spread / b)
        print(f"{w:14} {name:20} {med:12.4f} {100*spread:9.2f}% {100*b:6.1f}%  {verdict}")
    print(f"worst spread/bound (setup_s excepted): {worst:.2f} (aim < 0.33)")


def compare(a, b):
    ta, tb = summarise(a), summarise(b)
    print(f"{'workload':14} {'metric':20} {'set 1':>12} {'set 2':>12} {'worse by':>9} {'bound':>7}  verdict")
    for key, (ma, _) in ta.items():
        mb = tb[key][0]
        d = (mb - ma) / ma
        if bounds[key[1]]["better"] == "higher":
            d = -d
        b = bounds[key[1]]["bound"]
        print(f"{key[0]:14} {key[1]:20} {ma:12.4f} {mb:12.4f} {100*d:8.2f}% {100*b:6.1f}%  {'ok' if d <= b else 'WORSE'}")


ap = argparse.ArgumentParser()
ap.add_argument("--out")
ap.add_argument("--seeds", default="1..10")
ap.add_argument("--compare", nargs=2)
args = ap.parse_args()
if args.compare:
    a, b = (json.load(open(p))["runs"] for p in args.compare)
    show(summarise(a))
    show(summarise(b))
    compare(a, b)
else:
    lo, hi = args.seeds.split("..")
    show(summarise(run_set(range(int(lo), int(hi) + 1), args.out)))
