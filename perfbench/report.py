"""Print every metric of a results file by name, with unit and sample count.

    python3 perfbench/report.py [perfbench/results/baseline.json]
    python3 perfbench/report.py first.json second.json

For each workload and metric: the number of runs, the samples inside each
run, the median over runs, the quartiles, and the spread (quartile distance
over median) against the bound in BENCHMARK.json.  Traced runs add the
per-layer metrics and the tracing overhead: a body's traced wall time minus
the median untraced ``wall_s`` of its workload.  Given two files, it also
compares them: for each workload and end-to-end metric, the change of the
median from the first set to the second as a share of the first, and whether
it stays within the metric's bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT = HERE / "results" / "baseline.json"


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values) -> float:
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def summarize(results: dict) -> dict:
    """{(workload, trace): {metric: {"unit", "values", "samples"}}}."""
    table = defaultdict(dict)
    for run in results["runs"]:
        key = (run["workload"], run["trace"])
        for name, m in run["result"]["metrics"].items():
            row = table[key].setdefault(name, {"unit": m["unit"], "values": [],
                                               "samples": []})
            row["values"].append(m["value"])
            row["samples"].append(run["samples"][name])
    return table


def print_report(results: dict) -> None:
    bench = results["benchmark"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = summarize(results)
    print("env", json.dumps(results["env"], sort_keys=True))
    print(f"{'workload':<11} {'metric':<46} {'unit':<6} {'runs':>4} "
          f"{'samples':>8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} bound")
    for (workload, trace), metrics in sorted(table.items()):
        for name, row in sorted(metrics.items()):
            vals = row["values"]
            q1, q3 = quartiles(vals)
            lo, hi = min(row["samples"]), max(row["samples"])
            sample_txt = str(lo) if lo == hi else f"{lo}-{hi}"
            bound = bounds.get(name, "")
            print(f"{workload:<11} {name:<46} {row['unit']:<6} {len(vals):>4} "
                  f"{sample_txt:>8} {statistics.median(vals):>12.6g} {q1:>12.6g} "
                  f"{q3:>12.6g} {spread(vals):>7.2%} {bound}")
    failed = [r for r in results["runs"] if r["result"]["failed"]]
    print(f"runs: {len(results['runs'])}, runs with failures: {len(failed)}")
    traced = next((rows for (_, trace), rows in table.items() if trace), {})
    for workload in sorted(w for w, trace in table if not trace):
        key = f"trace.{workload}.wall_s"
        if key in traced and "wall_s" in table[(workload, 0)]:
            t = statistics.median(traced[key]["values"])
            u = statistics.median(table[(workload, 0)]["wall_s"]["values"])
            print(f"tracing overhead {workload}: traced {t:.3f} s - untraced "
                  f"{u:.3f} s = {t - u:+.3f} s ({(t - u) / u:+.1%})")


def print_comparison(first: dict, second: dict) -> bool:
    """Print the median change of every end-to-end metric between two result
    sets; return whether all of them stay within their bounds."""
    bounds = {m["name"]: m["bound"] for m in first["benchmark"]["end_to_end"]}
    a, b = summarize(first), summarize(second)
    print(f"{'workload':<11} {'metric':<14} {'first':>12} {'second':>12} "
          f"{'change':>8} bound  verdict")
    all_agree = True
    for (workload, trace), metrics in sorted(a.items()):
        if trace:
            continue
        for name, row in sorted(metrics.items()):
            m1 = statistics.median(row["values"])
            m2 = statistics.median(b[(workload, 0)][name]["values"])
            change = (m2 - m1) / abs(m1)
            agree = abs(change) <= bounds[name]
            all_agree &= agree
            print(f"{workload:<11} {name:<14} {m1:>12.6g} {m2:>12.6g} "
                  f"{change:>+8.2%} {bounds[name]:<5}  "
                  f"{'agree' if agree else 'DIFFER'}")
    return all_agree


def main(argv) -> int:
    paths = [Path(a) for a in argv] or [DEFAULT]
    sets = [json.loads(p.read_text()) for p in paths]
    for path, results in zip(paths, sets):
        print(f"== {path}")
        print_report(results)
    if len(sets) == 2:
        print(f"== {paths[0]} -> {paths[1]}")
        return 0 if print_comparison(*sets) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
