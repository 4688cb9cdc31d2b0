"""cardiosleep benchmark: one run of one workload.

    python3 perfbench/run.py --workload night-960 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

Workloads (closed loop, one client, BLAS pinned to one thread per process):

* ``night-960``: score whole 960-epoch nights from EDF bytes to hypnogram,
  one after another, in process, with the fixed model.
* ``cohort-120``: ten 120-epoch subjects through the CLI stages preprocess,
  extract and evaluate with two worker processes.
* ``train-120``: normalisation, two BLSTM training epochs (early stopping
  off) and evaluation over the 30-subject acceptance cohort's features.

A run sets up five times (``setup_s`` is the median), then repeats the
workload's unit of work while another unit fits into ``--seconds`` (at least
once) and checks every unit's outputs against ``data/``.  Times are medians
over the run's set-ups and units, in full-speed seconds (``cpuspeed.py``):
wall time corrected for the share of full CPU speed that other tenants of the
host left the run.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it runs the traced profile of
``layers.py`` and prints the per-layer metrics.  The last line of standard
output is the JSON result.  ``--selfcheck`` runs every path at a tiny size in
a few seconds and exits non-zero if the harness is broken.
"""
from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import uuid

import bootstrap
import cpuspeed

SETUP_REPEATS = 5
WORKLOADS = ("night-960", "cohort-120", "train-120")


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in bootstrap.BLAS_THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Run:
    """Timed set-ups and units of one workload and their correctness tally.

    A CPU-speed probe with the workload's ``kernel`` runs from the first
    set-up to the end, and times are in full-speed seconds."""

    def __init__(self, wl, seconds: float, sizes, kernel: cpuspeed.Kernel):
        self.wl = wl
        self.seconds = seconds
        self.verify = sizes == wl.FULL  # references exist at full size only
        self.probe = cpuspeed.Probe(kernel)
        self.setup_spans: list = []
        self.unit_spans: list = []
        self.attempted = 0
        self.failed = 0

    def setup(self, fn):
        self.probe.start()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inp = fn()
            self.setup_spans.append((t0, time.perf_counter()))
        return inp

    def wall_times(self) -> list:
        return [t1 - t0 for t0, t1 in self.unit_spans]

    def units(self):
        """Yield once, then while one more unit of median length still fits
        into ``seconds`` of measured time."""
        while not self.unit_spans or (sum(self.wall_times())
                                      + statistics.median(self.wall_times())
                                      <= self.seconds):
            yield

    def timed(self, fn):
        t0 = time.perf_counter()
        out = fn()
        self.unit_spans.append((t0, time.perf_counter()))
        print(f"unit {len(self.unit_spans)}: {self.wall_times()[-1]!r} s wall")
        return out

    def check(self, fn, items: int) -> None:
        self.attempted += items
        if self.verify:
            self.failed += self.wl.count_failed(fn, items)

    def metrics(self, nights: int, epochs: int, passes: list, kappa: float) -> dict:
        """End-to-end metrics; ``nights`` and ``epochs`` are the subject-nights
        and 30-s epochs one unit consumes, ``passes`` holds (start, end, count)
        of the timed passes over the unit's input."""
        self.probe.stop()
        full = self.probe.seconds
        n = len(self.unit_spans)
        unit_s = statistics.median(full(*span) for span in self.unit_spans)
        print(f"units: {n}, median {statistics.median(self.wall_times())!r} s wall, "
              f"{unit_s!r} s reported; {len(self.probe.samples)} probe samples")
        return {
            "setup_s": (statistics.median(full(*span) for span in self.setup_spans),
                        "s", SETUP_REPEATS),
            "wall_s": (unit_s, "s", n),
            "night_s_p50": (unit_s / nights, "s", n * nights),
            "epochs_per_s": (epochs / unit_s, "1/s", n),
            "train_epoch_s": (statistics.median(full(t0, t1) / count
                                                for t0, t1, count in passes),
                              "s", len(passes)),
            "kappa": (kappa, "1", n),
            "ok_frac": (1.0 - self.failed / self.attempted, "frac", self.attempted),
            "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        }


def run_night(wl, seed: int, seconds: float, sizes):
    run = Run(wl, seconds, sizes, cpuspeed.BROADCAST)
    inp = run.setup(lambda: wl.night_setup(seed, sizes))
    for _ in run.units():
        matrix, hyp = run.timed(lambda: wl.score_night(inp))
        run.check(lambda: wl.night_check(inp, matrix, hyp), 1)
    kappa = wl.kappa_of([hyp], [wl.night_truth(inp, hyp)])
    # a unit is one night and one pass over the input
    passes = [(t0, t1, 1) for t0, t1 in run.unit_spans]
    return run, run.metrics(1, matrix.n_epochs, passes, kappa)


def run_cohort(wl, seed: int, seconds: float, sizes):
    run = Run(wl, seconds, sizes, cpuspeed.BROADCAST)
    inp = run.setup(lambda: wl.cohort_setup(seed, wl.WORK / "cohort-in", sizes))
    # the units' work runs in the CLI's worker processes
    run.probe.hand_over_to_forks(wl.fresh_dir(wl.WORK / "probe"))
    model = wl.load_model()
    out = wl.WORK / "cohort-out"
    for _ in run.units():
        run.timed(lambda: wl.run_cohort(inp, out))
        mats, preds, counts = wl.cohort_outputs(inp, out, model)
        run.check(lambda: wl.cohort_check(inp, mats, preds, counts), len(inp.ids))
    kappa = wl.kappa_of([preds[s] for s in inp.ids], [mats[s].labels for s in inp.ids])
    epochs = sum(m.n_epochs for m in mats.values())
    # a unit is one pass over the cohort
    passes = [(t0, t1, 1) for t0, t1 in run.unit_spans]
    return run, run.metrics(len(inp.ids), epochs, passes, kappa)


def run_train(wl, seed: int, seconds: float, sizes):
    run = Run(wl, seconds, sizes, cpuspeed.SMALL_CALLS)
    mats = wl.stored_cohort_matrices(sizes)
    inp = run.setup(lambda: wl.train_setup(seed, wl.WORK / "train-csv", mats))
    passes = []
    for _ in run.units():
        res = run.timed(lambda: wl.run_train(inp, sizes))
        run.check(lambda: wl.train_check(inp, res), 1 + len(inp.ids))
        passes.append((*res["train_span"], len(res["history"]["train_loss"])))
    epochs = sum(m.n_epochs for m in mats.values())
    # a pass over the input is one training epoch
    return run, run.metrics(len(mats), epochs, passes, res["kappa"])


RUNNERS = {"night-960": run_night, "cohort-120": run_cohort, "train-120": run_train}


def run_traced(seed: int, sizes):
    import layers
    import workloads as wl
    run_id = uuid.uuid4().hex[:12]
    metrics, attempted, failed, spans = layers.run_profile(seed, run_id, sizes)
    path = wl.WORK / "spans.jsonl"
    layers.write_spans(spans, path)
    print(f"trace: {len(spans)} spans of run {run_id} written to {path}")
    return attempted, failed, metrics


def selfcheck() -> int:
    """Every workload and the traced run at a tiny size, without reference
    comparison; checks that each prints exactly the metrics BENCHMARK.json
    names, with finite values."""
    import workloads as wl
    t0 = time.perf_counter()
    bench = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    want = {key: {m["name"] for m in bench[key]} for key in ("end_to_end", "per_layer")}
    results = [("end_to_end", w, runner(wl, 0, 0.0, wl.TINY)[1])
               for w, runner in RUNNERS.items()]
    results.append(("per_layer", "traced", run_traced(0, wl.TINY)[2]))
    for key, label, metrics in results:
        if set(metrics) != want[key]:
            raise SystemExit(f"selfcheck: {label} metrics differ from BENCHMARK.json "
                             f"{key}: {sorted(set(metrics) ^ want[key])}")
        bad = [k for k, (v, _, _) in metrics.items() if not math.isfinite(v)]
        if bad:
            raise SystemExit(f"selfcheck: {label} metrics not finite: {bad}")
    print(f"selfcheck: ok in {time.perf_counter() - t0:.1f} s")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")

    bootstrap.prepare()
    import workloads as wl
    wl.WORK.mkdir(exist_ok=True)
    if args.selfcheck:
        return selfcheck()

    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        attempted, failed, metrics = run_traced(args.seed, wl.FULL)
    else:
        run, metrics = RUNNERS[args.workload](wl, args.seed, args.seconds, wl.FULL)
        attempted, failed = run.attempted, run.failed
    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"metric {name} = {value!r} {unit} (samples {samples})")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
