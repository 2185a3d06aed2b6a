#!/usr/bin/env python3
"""Steadiness mode: run each workload N times on distinct seeds and print,
per end-to-end metric, the median, the quartiles and the spread against the
bound BENCHMARK.json fixes.

    python3 perfbench/steady.py [--runs 10] [--first-seed 101]
                                [--workloads search-dense,kernel-massive]
                                [--seconds 40] [--out runs.json]
                                [--against earlier-runs.json]

Run it from the repository root. The spread of a metric is the distance
between its first and third quartile (statistics.quantiles, n=4) as a share
of its median. A metric is steady when the spread stays below a third of its
bound, and acceptable while it stays within the bound; setup_s is held to the
same rule. With --against, each median is also compared with the median of an
earlier set of runs: it may not be worse by more than the bound. From each
run's detail line it also prints the quartiles of the gauge's median reading
and of the wall-clock p50 and p90 (batch workloads), and of the timed phase's
solve hit share and cache evictions (serve-mixed).
"""

import argparse
import json
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first_median, second_median, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    if first_median == 0:
        return 0.0 if second_median == first_median else float("inf")
    change = (second_median - first_median) / first_median
    return change if better == "lower" else -change


def verdict(metric, values, earlier=None):
    """Checks one metric's runs against its bound; returns (row, ok)."""
    bound = metric["bound"]
    q1, med, q3 = quartiles(values)
    s = spread(values)
    ok = s <= bound
    row = {
        "metric": metric["name"],
        "unit": metric["unit"],
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": s,
        "bound": bound,
        "steady": s < bound / 3,
    }
    if earlier is not None:
        w = worse_by(statistics.median(earlier), med, metric["better"])
        row["worse_by"] = w
        ok = ok and w <= bound
    return row, ok


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if len(lines) > 1:
        metrics["detail"] = json.loads(lines[-2]).get("detail", {})
    return metrics


def hit_share(detail):
    """The timed phase's share of cache lookups that hit, or None."""
    lookups = detail.get("timed_cache_lookups")
    if not lookups:
        return None
    return detail["timed_cache_hits"] / lookups


def wall(detail, i):
    """The i-th figure of the detail line's wall-clock p50/p90 pair."""
    pair = detail.get("wall_latency_ms_p50_p90")
    return pair[i] if pair else None


def detail_summary(runs):
    """Quartile lines for the detail figures each workload records: the
    gauge and the wall-clock latencies (batch), the cache figures
    (serve-mixed)."""
    figures = {
        "gauge_median_ms": [r.get("detail", {}).get("gauge", {}).get("median_ms")
                            for r in runs],
        "wall_p50_ms": [wall(r.get("detail", {}), 0) for r in runs],
        "wall_p90_ms": [wall(r.get("detail", {}), 1) for r in runs],
        "solve_hit_share": [r.get("detail", {}).get("solve_hit_share") for r in runs],
        "cache_hit_share": [hit_share(r.get("detail", {})) for r in runs],
        "cache_evictions": [r.get("detail", {}).get("timed_cache_evictions")
                            for r in runs],
    }
    lines = []
    for name, values in figures.items():
        values = [v for v in values if v is not None]
        if len(values) >= 2:
            q1, med, q3 = quartiles(values)
            lines.append(f"  {name:<18} median {med:.4g}, quartiles {q1:.4g}-{q3:.4g}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--against", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    runs = {}
    all_ok = True
    for w in workloads:
        runs[w] = []
        for i in range(args.runs):
            seed = args.first_seed + i
            metrics = run_once(bench["command"], w, seed, seconds)
            runs[w].append(metrics)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in metrics.items() if k != "detail"),
                flush=True)
        print(f"\n{w}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs[w]]
            before = None
            if w in earlier:
                before = [r[metric["name"]] for r in earlier[w]]
            row, ok = verdict(metric, values, before)
            all_ok &= ok
            note = "steady" if row["steady"] else ("within bound" if ok else "TOO WIDE")
            if "worse_by" in row:
                note += f", {row['worse_by']:+.3f} vs earlier"
            print(f"  {row['metric']:<18} {row['median']:>12.5g} {row['q1']:>12.5g} "
                  f"{row['q3']:>12.5g} {row['spread']:>8.3f} {row['bound']:>6}  {note}")
        for line in detail_summary(runs[w]):
            print(line)
        print(flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
