"""Run the benchmark repeatedly and keep every run's raw result.

    python3 perfbench/collect.py --out perfbench/results/baseline.json \
        [--runs 10] [--first-seed 0] [--traced 2]

Every workload runs ``--runs`` times with consecutive seeds from
``--first-seed``, then ``--traced`` traced runs follow; a traced run executes
every workload's body, so it is filed under the label ``traced``.  Every run is a fresh
``run.py`` process with the settings of BENCHMARK.json.  The file keeps the
environment, the benchmark definition and each run's seed, wall time, metric
sample counts and JSON result; the report is printed at the end.
"""
from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
METRIC_LINE = re.compile(r"^metric (\S+) = \S+ \S+ \(samples (\d+)\)$")
TRACED = "traced"


def one_run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]),
                               "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    samples = {m.group(1): int(m.group(2))
               for m in map(METRIC_LINE.match, lines) if m}
    return {"workload": TRACED if trace else workload, "seed": seed, "trace": trace,
            "elapsed_s": elapsed, "env": env, "samples": samples,
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--traced", type=int, default=2)
    args = ap.parse_args(argv)

    runs = []
    plan = [(w, args.first_seed + i, 0) for w in names for i in range(args.runs)]
    # run.py needs some --workload; a traced run ignores it
    plan += [(names[0], args.first_seed + i, 1) for i in range(args.traced)]
    for workload, seed, trace in plan:
        run = one_run(bench, workload, seed, trace)
        runs.append(run)
        print(f"{run['workload']} seed {seed}: {run['elapsed_s']:.1f} s, "
              f"failed {run['result']['failed']}", flush=True)
    results = {"benchmark": bench, "env": runs[0]["env"], "runs": runs}
    Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    report.print_report(results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
