#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload (or the ones named) `--runs` times, each run with its
own seed, and reports for each metric its median and its quartile spread
(Q3 - Q1) / median against the bound in BENCHMARK.json. Run from the
repository root:

    python3 perfbench/steadiness.py --runs 10 --seed 1000 \
        --out perfbench/steadiness/set-a.json
    python3 perfbench/steadiness.py --compare perfbench/steadiness/set-a.json \
        perfbench/steadiness/set-b.json
    python3 perfbench/steadiness.py --traced --seed 1000 \
        --out perfbench/steadiness/traced.json

`--compare` checks that the second set's median of every metric is not
worse than the first's by more than the metric's bound. `--traced` makes
one `--trace 1` run of each workload and records its per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench, workload, seed, trace=False):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    return ok, result, wall


def summarize(bench, record):
    # The spread of setup_s is not held to its bound, only the shift of
    # its median between two sets (see --compare).
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]
              if m["name"] != "setup_s"}
    rows = []
    for workload, metrics in record["values"].items():
        for name, values in metrics.items():
            bound = bounds.get(name)
            s = spread(values) if len(values) >= 2 else float("nan")
            rows.append({
                "workload": workload,
                "metric": name,
                "runs": len(values),
                "median": statistics.median(values),
                "spread": s,
                "bound": bound,
                "within_bound": None if bound is None else s <= bound,
                "within_third": None if bound is None else s <= bound / 3,
            })
    return rows


def print_rows(rows):
    print(f"{'workload':<16} {'metric':<32} {'n':>3} {'median':>16} "
          f"{'spread':>8} {'bound':>6}  ok  <b/3")
    for r in rows:
        bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
        ok = "-" if r["within_bound"] is None else ("yes" if r["within_bound"] else "NO")
        third = "-" if r["within_third"] is None else ("yes" if r["within_third"] else "no")
        print(f"{r['workload']:<16} {r['metric']:<32} {r['runs']:>3} "
              f"{r['median']:>16.6g} {r['spread']:>8.4f} {bound:>6}  {ok:<3} {third}")


def print_markdown(rows):
    print("| workload | metric | runs | median | spread | bound | within bound | within bound/3 |")
    print("|---|---|---|---|---|---|---|---|")
    for r in rows:
        bound = "-" if r["bound"] is None else f"{r['bound']:.2f}"
        ok = "-" if r["within_bound"] is None else ("yes" if r["within_bound"] else "**no**")
        third = "-" if r["within_third"] is None else ("yes" if r["within_third"] else "no")
        print(f"| {r['workload']} | `{r['metric']}` | {r['runs']} | {r['median']:.6g} "
              f"| {r['spread']:.4f} | {bound} | {ok} | {third} |")


def compare(bench, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    worst_ok = True
    print(f"{'workload':<16} {'metric':<24} {'median 1':>14} {'median 2':>14} "
          f"{'worse by':>9} {'bound':>6}")
    for workload, values in first["values"].items():
        for name, a in values.items():
            b = second["values"].get(workload, {}).get(name)
            if not b or name not in metrics:
                continue
            m1, m2 = statistics.median(a), statistics.median(b)
            sign = 1 if metrics[name]["better"] == "lower" else -1
            worse = sign * (m2 - m1) / m1
            ok = worse <= metrics[name]["bound"]
            worst_ok &= ok
            print(f"{workload:<16} {name:<24} {m1:>14.6g} {m2:>14.6g} "
                  f"{worse:>9.4f} {metrics[name]['bound']:>6.2f} {'' if ok else 'WORSE'}")
    return worst_ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1000, help="seed of the first run")
    p.add_argument("--workload", action="append", help="repeatable; default all")
    p.add_argument("--out", help="write the raw values and summary here")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    p.add_argument("--report", metavar="RECORD",
                   help="print a recorded set's summary as a markdown table")
    p.add_argument("--traced", action="store_true",
                   help="one traced run of each workload at --seed")
    args = p.parse_args()
    bench = load_bench()
    if args.compare:
        sys.exit(0 if compare(bench, *args.compare) else 1)
    if args.report:
        with open(args.report) as f:
            print_markdown(summarize(bench, json.load(f)))
        return

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    if args.traced:
        runs = []
        for w in workloads:
            ok, result, wall = run_once(bench, w, args.seed, trace=True)
            runs.append({"workload": w, "seed": args.seed, "ok": ok, "result": result})
            print(f"traced {w} seed {args.seed}: {'ok' if ok else 'FAILED'}, {wall:.1f} s",
                  file=sys.stderr)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(runs, f, indent=1)
                f.write("\n")
        sys.exit(0 if all(r["ok"] for r in runs) else 1)
    record = {"run_seconds": bench["run_seconds"], "seeds": [],
              "values": {w: {} for w in workloads}, "walls": {},
              "failed_runs": []}
    # Workloads interleave run by run, so a slow spell of the machine
    # spreads over all of them instead of landing on one.
    for i in range(args.runs):
        seed = args.seed + i
        record["seeds"].append(seed)
        for w in workloads:
            ok, result, wall = run_once(bench, w, seed)
            record["walls"].setdefault(w, []).append(round(wall, 2))
            if not ok:
                record["failed_runs"].append({"workload": w, "seed": seed})
                print(f"run {i} {w} seed {seed}: FAILED", file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                record["values"][w].setdefault(name, []).append(m["value"])
            print(f"run {i} {w} seed {seed}: {wall:.1f} s", file=sys.stderr)
    record["summary"] = summarize(bench, record)
    print_rows(record["summary"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    sys.exit(1 if record["failed_runs"] else 0)


if __name__ == "__main__":
    main()
