"""The traced run: per-layer metrics from spans around each layer's public
functions.

One traced run executes one unit of every workload body (night-960,
cohort-120, train-120) with the wrappers installed, whichever workload it is
started for, because every per-layer metric has a home workload:

* night-960: signal_io.read_edf, preprocess, wavelet, features_rr,
  features_resp, registry assembly and synth;
* cohort-120: the CLI stages, worker occupancy and feature CSV interchange;
* train-120: normalisation and the BLSTM.

"Per epoch" means per 30-s scoring epoch.  Counts marked computed come from
input sizes and layer sizes, not from timing, and repeat exactly.
"""
from __future__ import annotations

import json

from cardiosleep import (blstm, cli, features_resp, features_rr, pipeline,
                         preprocess, registry, signal_io, synth, wavelet)

import workloads as wl
from cpuspeed import BROADCAST, SMALL_CALLS, Probe
from tracer import Tracer, self_times, within

SAMPEN_M = 2


def _rr_counts(args, kwargs, rr):
    return {"intervals": int(len(rr.valid_mask)),
            "rejected": int((~rr.valid_mask).sum())}


def _sampen_pairs(args, kwargs, out):
    """Ordered template pairs i != j at lengths m and m+1 (computed)."""
    n = len(args[0])
    m = kwargs.get("m", args[1] if len(args) > 1 else SAMPEN_M)
    if n < m + 2:
        return {"pairs": 0}
    return {"pairs": sum(k * (k - 1) for k in (n - m + 1, n - m))}


def _missing(args, kwargs, matrix):
    return {"missing": int(matrix.missing_mask.sum()),
            "entries": int(matrix.missing_mask.size)}


def _seq_len(args, kwargs, out):
    return {"steps": int(len(args[1]))}


def _batch_len(args, kwargs, out):
    return {"steps": int(sum(len(X) for X, _ in args[1]))}


WRAPPED = [
    (signal_io, "read_edf", None),
    (signal_io, "write_feature_matrix", None),
    (signal_io, "read_feature_matrix", None),
    (synth, "generate_subject", None),
    (pipeline, "preprocess_subject", None),
    (preprocess, "detect_r_peaks", None),
    (preprocess, "rr_from_peaks", _rr_counts),
    (preprocess, "preprocess_breathing", None),
    (wavelet, "approximation", None),
    (registry, "assemble_feature_matrix", _missing),
    (registry, "fit_normalization", None),
    (registry, "apply_normalization", None),
    (features_rr, "hrv_time_features", None),
    (features_rr, "statistical_features", None),
    (features_rr, "nonlinear_features", None),
    (features_rr, "sample_entropy", _sampen_pairs),
    (features_rr, "rr_freq_features", None),
    (features_rr, "novel_f1", None),
    (features_rr, "novel_f2", None),
    (features_rr, "novel_f3", None),
    (features_resp, "breath_features", None),
    (features_resp, "cpc_spectrum", None),
    (blstm, "forward", _seq_len),
    (blstm, "predict", None),
    (blstm, "loss_and_gradients", _batch_len),
    (blstm, "evaluate_loss", None),
    (blstm, "train", None),
    # the per-subject tasks the CLI sends to its worker processes
    (cli, "_preprocess_one", None),
    (cli, "_extract_one", None),
]


def macs_per_epoch(params) -> int:
    """Multiply-accumulates of one forward step through every layer
    (computed from the weight shapes)."""
    return int(sum(w.size for k, w in params.weights.items()
                   if k.endswith(("_W", "_U"))))


class _Spans:
    """Queries over the spans of one body."""

    def __init__(self, spans):
        self.spans = spans
        self.selfs = self_times(spans)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def total(self, *names):
        return sum(s["end"] - s["start"] for n in names for s in self.named(n))

    def self_total(self, name):
        return sum(self.selfs[s["id"]] for s in self.named(name))

    def field(self, name, key):
        return sum(s.get(key, 0) for s in self.named(name))

    def one(self, name):
        found = self.named(name)
        if len(found) != 1:
            raise RuntimeError(f"expected one {name} span, found {len(found)}")
        return found[0]


def run_profile(seed: int, run_id: str, sizes=wl.FULL):
    """Run one traced unit of each workload; return (metrics, attempted,
    failed, spans).  ``metrics`` maps name -> (value, unit, samples).
    Outputs are checked against the references at full size only."""
    spill = wl.fresh_dir(wl.WORK / "spill")
    tracer = Tracer(run_id, spill)
    # unit times are full-speed seconds, as in run.py
    probes = {"night-960": Probe(BROADCAST), "cohort-120": Probe(BROADCAST),
              "train-120": Probe(SMALL_CALLS)}
    for module, attr, count in WRAPPED:
        tracer.wrap(module, attr, count)
    checks = []
    try:
        probes["night-960"].start()
        with tracer.span("body.night-960"):
            with tracer.span("setup.night-960"):
                night = wl.night_setup(seed, sizes)
            with tracer.span("unit.night-960"):
                matrix, hyp = wl.score_night(night)
        probes["night-960"].stop()
        checks.append((lambda: wl.night_check(night, matrix, hyp), 1))

        probes["cohort-120"].start()
        with tracer.span("body.cohort-120"):
            with tracer.span("setup.cohort-120"):
                cohort = wl.cohort_setup(seed, wl.WORK / "cohort-in", sizes)
            probes["cohort-120"].hand_over_to_forks(wl.fresh_dir(wl.WORK / "probe"))
            with tracer.span("unit.cohort-120"):
                wl.run_cohort(cohort, wl.WORK / "cohort-out",
                              lambda stage: tracer.span(f"cli.{stage}"))
        probes["cohort-120"].stop()
        outputs = wl.cohort_outputs(cohort, wl.WORK / "cohort-out", night.model)
        checks.append((lambda: wl.cohort_check(cohort, *outputs), len(cohort.ids)))

        probes["train-120"].start()
        with tracer.span("body.train-120"):
            with tracer.span("setup.train-120"):
                train = wl.train_setup(seed, wl.WORK / "train-csv",
                                       wl.stored_cohort_matrices(sizes))
            with tracer.span("unit.train-120"):
                result = wl.run_train(train, sizes)
        checks.append((lambda: wl.train_check(train, result), 1 + len(train.ids)))
    finally:
        for probe in probes.values():
            probe.stop()
        tracer.unwrap_all()
    attempted = sum(items for _, items in checks)
    failed = (sum(wl.count_failed(fn, items) for fn, items in checks)
              if sizes == wl.FULL else 0)
    spans = tracer.collect()
    bodies = {s["name"].split(".", 1)[1]: s for s in spans
              if s["name"].startswith("body.")}
    per_body = {k: _Spans(within(spans, b)) for k, b in bodies.items()}
    metrics = _derive(per_body, matrix.n_epochs, len(cohort.ids),
                      len(train.ids), result,
                      night.model[1], probes)
    return metrics, attempted, failed, spans


def _derive(b, night_epochs, cohort_subjects, train_subjects, result, model,
            probes):
    n, c, t = b["night-960"], b["cohort-120"], b["train-120"]
    m = {}

    def put(name, value, unit, samples):
        m[name] = (float(value), unit, int(samples))

    def per_epoch(name, seconds, calls):
        put(name, 1e3 * seconds / night_epochs, "ms", calls)

    put("signal_io.read_edf_ms_per_night", 1e3 * n.total("signal_io.read_edf"),
        "ms", len(n.named("signal_io.read_edf")))
    cu = c.one("unit.cohort-120")
    c_unit = _Spans(within(c.spans, cu))
    csv = ("signal_io.write_feature_matrix", "signal_io.read_feature_matrix")
    put("signal_io.feature_csv_ms_per_subject",
        1e3 * c_unit.total(*csv) / cohort_subjects, "ms",
        sum(len(c_unit.named(x)) for x in csv))

    for name in ("detect_r_peaks", "rr_from_peaks", "preprocess_breathing"):
        full = f"preprocess.{name}"
        per_epoch(f"{full}_ms_per_epoch", n.total(full), len(n.named(full)))
    put("preprocess.rr_rejected_frac",
        n.field("preprocess.rr_from_peaks", "rejected")
        / n.field("preprocess.rr_from_peaks", "intervals"), "frac",
        n.field("preprocess.rr_from_peaks", "intervals"))
    per_epoch("wavelet.approximation_ms_per_epoch", n.total("wavelet.approximation"),
              len(n.named("wavelet.approximation")))

    rr = {"sample_entropy": ["features_rr.sample_entropy"],
          "statistical": ["features_rr.statistical_features"],
          "hrv_time": ["features_rr.hrv_time_features"],
          "rr_freq": ["features_rr.rr_freq_features"],
          "novel": ["features_rr.novel_f1", "features_rr.novel_f2",
                    "features_rr.novel_f3"]}
    for short, names in rr.items():
        per_epoch(f"features_rr.{short}_ms_per_epoch", n.total(*names),
                  sum(len(n.named(x)) for x in names))
    per_epoch("features_rr.nonlinear_self_ms_per_epoch",
              n.self_total("features_rr.nonlinear_features"),
              len(n.named("features_rr.nonlinear_features")))
    put("features_rr.sampen_template_pairs_per_epoch",
        n.field("features_rr.sample_entropy", "pairs") / night_epochs, "count",
        len(n.named("features_rr.sample_entropy")))
    put("features_rr.sample_entropy_share",
        n.total("features_rr.sample_entropy")
        / n.total("registry.assemble_feature_matrix"), "frac", 1)
    for name in ("cpc_spectrum", "breath_features"):
        full = f"features_resp.{name}"
        per_epoch(f"{full}_ms_per_epoch", n.total(full), len(n.named(full)))

    per_epoch("registry.assemble_ms_per_epoch",
              n.total("registry.assemble_feature_matrix"), 1)
    per_epoch("registry.self_ms_per_epoch",
              n.self_total("registry.assemble_feature_matrix"), 1)
    put("registry.missing_frac",
        n.field("registry.assemble_feature_matrix", "missing")
        / n.field("registry.assemble_feature_matrix", "entries"), "frac",
        n.field("registry.assemble_feature_matrix", "entries"))
    tu = _Spans(within(t.spans, t.one("unit.train-120")))
    norm = ("registry.fit_normalization", "registry.apply_normalization")
    put("registry.normalize_ms_per_subject", 1e3 * tu.total(*norm) / train_subjects,
        "ms", sum(len(tu.named(x)) for x in norm))

    lg = tu.named("blstm.loss_and_gradients")
    put("blstm.loss_and_gradients_ms_per_epoch",
        1e3 * tu.total("blstm.loss_and_gradients")
        / tu.field("blstm.loss_and_gradients", "steps"), "ms", len(lg))
    put("blstm.forward_ms_per_epoch",
        1e3 * tu.total("blstm.forward") / tu.field("blstm.forward", "steps"),
        "ms", len(tu.named("blstm.forward")))
    put("blstm.evaluate_loss_share",
        tu.total("blstm.evaluate_loss") / tu.total("blstm.train"), "frac",
        len(tu.named("blstm.evaluate_loss")))
    put("blstm.optimizer_self_ms_per_step",
        1e3 * tu.self_total("blstm.train") / len(lg), "ms", len(lg))
    put("blstm.macs_per_epoch", macs_per_epoch(model), "count", 1)
    put("blstm.train_epochs_run", len(result["history"]["train_loss"]), "count", 1)

    stages = {}
    for stage in ("preprocess", "extract", "evaluate"):
        stages[stage] = c.total(f"cli.{stage}")
        put(f"cli.{stage}_stage_s", stages[stage], "s", 1)
    tasks = c.total("cli._preprocess_one", "cli._extract_one")
    put("cli.worker_busy_frac",
        tasks / (wl.WORKERS * (stages["preprocess"] + stages["extract"])), "frac",
        len(c.named("cli._preprocess_one")) + len(c.named("cli._extract_one")))

    put("synth.generate_subject_s", n.total("synth.generate_subject"), "s",
        len(n.named("synth.generate_subject")))
    for body, spans in b.items():
        unit = spans.one(f"unit.{body}")
        put(f"trace.{body}.wall_s", probes[body].seconds(unit["start"], unit["end"]),
            "s", 1)
    return m


def write_spans(spans, path) -> None:
    with open(path, "w") as f:
        f.writelines(json.dumps(s) + "\n" for s in sorted(spans, key=lambda s: s["start"]))
