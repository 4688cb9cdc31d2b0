"""RR feature families against closed forms and brute-force oracles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiosleep import features_rr as fr
from cardiosleep import pipeline, synth
from cardiosleep.epoching import EPOCH_S, resolve_window
from cardiosleep.errors import InsufficientData, MissingCenter, NoValidEpochs
from cardiosleep.preprocess import usable_intervals


def _one(fn, x) -> dict:
    """A whole-night family's entries for the single window x."""
    return {k: col[0] for k, col in fn(np.asarray(x, dtype=float), [0],
                                       [len(x)]).items()}


class TestHrvTime:
    def test_closed_form_small_series(self):
        x = np.array([0.8, 1.0, 0.9, 1.1])
        out = _one(fr.hrv_time_features, x)
        d = np.array([0.2, -0.1, 0.2])
        assert out["rr_mean_nn"] == pytest.approx(0.95)
        assert out["rr_sdnn"] == pytest.approx(np.std(x))
        assert out["rr_rmssd"] == pytest.approx(np.sqrt(np.mean(d ** 2)))
        assert out["rr_sdsd"] == pytest.approx(np.std(d))
        assert out["rr_pnn50"] == pytest.approx(1.0)   # every |diff| > 50 ms
        assert out["rr_pnn20"] == pytest.approx(1.0)
        assert out["rr_nn50_count"] == 3.0
        assert out["rr_median_nn"] == pytest.approx(0.95)
        assert out["hr_mean"] == pytest.approx(np.mean(60.0 / x))
        assert out["hr_sd"] == pytest.approx(np.std(60.0 / x))

    def test_constant_series(self):
        out = _one(fr.hrv_time_features, np.full(10, 1.0))
        assert out["rr_sdnn"] == 0.0
        assert out["rr_rmssd"] == 0.0
        assert out["rr_pnn50"] == 0.0
        assert out["hr_mean"] == pytest.approx(60.0)

    def test_too_few_intervals(self):
        out = _one(fr.hrv_time_features, np.array([0.9]))
        assert all(math.isnan(v) for v in out.values())

    def test_pnn_threshold_strictly_greater(self):
        # a 40 ms difference counts for pNN20 but not pNN50
        out = _one(fr.hrv_time_features, np.array([1.0, 1.04]))
        assert out["rr_pnn50"] == 0.0
        assert out["rr_pnn20"] == 1.0


class TestStatistical:
    def test_names_count(self):
        assert len(fr.STAT_NAMES) == 34
        out = _one(fr.statistical_features, np.array([0.8, 0.9, 1.0, 1.1]))
        assert set(out) == set(fr.STAT_NAMES)

    def test_quantile_linear_interpolation(self):
        out = _one(fr.statistical_features, np.array([0.6, 0.8, 1.0]))
        assert out["rr_stat_q25"] == pytest.approx(0.7)
        assert out["rr_stat_q75"] == pytest.approx(0.9)
        assert out["rr_stat_iqr"] == pytest.approx(0.2)
        assert out["rr_stat_median"] == pytest.approx(0.8)

    def test_moments_population_convention(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = _one(fr.statistical_features, x)
        assert out["rr_stat_var"] == pytest.approx(1.25)
        assert out["rr_stat_sd"] == pytest.approx(np.sqrt(1.25))
        assert out["rr_stat_skew"] == pytest.approx(0.0, abs=1e-12)
        # symmetric uniform-ish, excess kurtosis of this exact set
        m4 = np.mean((x - 2.5) ** 4)
        assert out["rr_stat_kurt"] == pytest.approx(m4 / 1.25 ** 2 - 3.0)

    def test_ramp_trend(self):
        x = 0.5 + 0.2 * np.arange(100) / 99
        out = _one(fr.statistical_features, x)
        assert out["rr_stat_trend_slope"] == pytest.approx(0.2 / 99)
        assert out["rr_stat_trend_intercept"] == pytest.approx(0.5)
        assert out["rr_stat_halves_diff"] == pytest.approx(0.1 * 100 / 99)

    def test_acf_of_alternating_sequence(self):
        x = np.array([1.0, -1.0] * 20)
        out = _one(fr.statistical_features, x)
        assert out["rr_stat_acf1"] == pytest.approx(-39 / 40)
        assert out["rr_stat_acf2"] == pytest.approx(38 / 40)

    def test_successive_and_runs(self):
        x = np.array([1.0, 1.2, 1.1, 1.5, 1.4])
        out = _one(fr.statistical_features, x)
        d = np.diff(x)
        assert out["rr_stat_succ_mean_abs"] == pytest.approx(np.mean(np.abs(d)))
        assert out["rr_stat_succ_max"] == pytest.approx(0.4)
        assert out["rr_stat_count_above_mean"] == 2.0   # 1.5 and 1.4
        assert out["rr_stat_longest_run_above"] == 2.0

    def test_trimmed_means(self):
        x = np.concatenate([[0.0, 100.0], np.full(18, 1.0)])
        out = _one(fr.statistical_features, x)
        # 10% trim drops two from each tail: both outliers go
        assert out["rr_stat_trim10"] == pytest.approx(1.0)
        assert out["rr_stat_mad"] == pytest.approx(0.0)

    def test_constant_window_degenerate_entries_nan(self):
        out = _one(fr.statistical_features, np.full(20, 0.9))
        assert math.isnan(out["rr_stat_skew"])
        assert math.isnan(out["rr_stat_kurt"])
        assert math.isnan(out["rr_stat_acf1"])
        assert out["rr_stat_sd"] == 0.0


# --- the per-window families as oracles of the whole-night ones ----------

def _window_hrv_time_features(values: np.ndarray) -> dict:
    """The 10 standard time-domain HRV measures, RR values in seconds."""
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        raise InsufficientData(f"need >= 2 intervals, got {len(x)}")
    d = np.diff(x)
    ad = np.abs(d)
    hr = 60.0 / x
    nn50 = int(np.sum(ad > 0.050))
    return {
        "rr_mean_nn": float(np.mean(x)),
        "rr_sdnn": float(np.std(x)),
        "rr_rmssd": float(np.sqrt(np.mean(d * d))),
        "rr_sdsd": float(np.std(d)),
        "rr_pnn50": nn50 / len(d),
        "rr_pnn20": float(np.sum(ad > 0.020)) / len(d),
        "rr_nn50_count": float(nn50),
        "rr_median_nn": float(np.median(x)),
        "hr_mean": float(np.mean(hr)),
        "hr_sd": float(np.std(hr)),
    }


def _window_statistical_features(values: np.ndarray) -> dict:
    """The 34 conventional statistics of an RR window."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 2:
        raise InsufficientData(f"need >= 2 intervals, got {n}")
    s = np.sort(x)
    mean = float(np.mean(x))
    sd = float(np.std(x))
    var = sd * sd
    median = float(np.median(s))
    q05, q10, q25, q75, q90, q95 = (
        float(v) for v in np.quantile(s, [0.05, 0.10, 0.25, 0.75, 0.90, 0.95]))
    d = np.diff(x)
    centered = x - mean
    above = x > mean
    # starts and ends of the runs above the mean alternate among the edges
    edges = np.flatnonzero(np.diff(above, prepend=False, append=False))
    # roundoff in the mean of a constant window can leave var a hair above
    # zero; treat such windows as degenerate
    degenerate = sd <= 1e-12 * max(1.0, abs(mean))
    if degenerate:
        sd = var = 0.0

    if n >= 4 and not degenerate:
        m3 = float(np.mean(centered ** 3))
        m4 = float(np.mean(centered ** 4))
        skew = m3 / sd ** 3
        kurt = m4 / var ** 2 - 3.0  # excess
    else:
        skew = kurt = np.nan

    def acf(k: int) -> float:
        if n <= k or degenerate:
            return np.nan
        return float(np.sum(centered[:-k] * centered[k:]) / np.sum(centered ** 2))

    # least-squares trend against interval index
    t = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(t, x, 1)

    half = n // 2
    return {
        "rr_stat_mean": mean,
        "rr_stat_sd": sd,
        "rr_stat_var": var,
        "rr_stat_min": float(s[0]),
        "rr_stat_max": float(s[-1]),
        "rr_stat_range": float(s[-1] - s[0]),
        "rr_stat_median": median,
        "rr_stat_q05": q05, "rr_stat_q10": q10, "rr_stat_q25": q25,
        "rr_stat_q75": q75, "rr_stat_q90": q90, "rr_stat_q95": q95,
        "rr_stat_iqr": q75 - q25,
        "rr_stat_skew": skew,
        "rr_stat_kurt": kurt,
        "rr_stat_mad": float(np.median(np.abs(s - median))),
        "rr_stat_cv": sd / mean if mean != 0 else np.nan,
        # k = n // 10 and n // 4 are floor(0.10 n) and floor(0.25 n), and
        # 2k < n always
        "rr_stat_trim10": float(np.mean(s[n // 10:n - n // 10])),
        "rr_stat_trim25": float(np.mean(s[n // 4:n - n // 4])),
        "rr_stat_halves_diff": float(np.mean(x[half:]) - np.mean(x[:half])),
        "rr_stat_acf1": acf(1), "rr_stat_acf2": acf(2), "rr_stat_acf3": acf(3),
        "rr_stat_acf4": acf(4), "rr_stat_acf5": acf(5),
        "rr_stat_succ_mean_abs": float(np.mean(np.abs(d))),
        "rr_stat_succ_sd": float(np.std(d)),
        "rr_stat_succ_max": float(np.max(np.abs(d))),
        "rr_stat_count_above_mean": float(np.sum(above)),
        "rr_stat_longest_run_above": float(np.max(edges[1::2] - edges[::2],
                                                  initial=0)),
        "rr_stat_trend_slope": float(slope),
        "rr_stat_trend_intercept": float(intercept),
        "rr_stat_energy": float(np.sum(x * x)),
    }


def _window_columns(fn, values, lo, hi) -> dict:
    """A per-window family's columns over windows values[lo:hi], one row per
    window, NaN where the window has too few intervals."""
    rows = []
    for a, b in zip(lo, hi):
        try:
            rows.append(fn(values[a:b]))
        except InsufficientData:
            rows.append(None)
    keys = next(r for r in rows if r is not None)
    return {k: np.array([np.nan if r is None else r[k] for r in rows])
            for k in keys}


def _night_columns(fn, values, lo, hi) -> dict:
    """A whole-night family's columns over the windows values[lo:hi]."""
    return fn(values, lo, hi)


def _concat(windows):
    """One series holding the windows back to back, and their bounds."""
    lengths = np.array([len(x) for x in windows], dtype=int)
    hi = np.cumsum(lengths)
    return (np.concatenate([np.asarray(x, dtype=float) for x in windows]),
            hi - lengths, hi)


def _assert_matches(fn, oracle, values, lo, hi):
    """``fn`` over the windows equals ``oracle`` window by window: rtol 1e-12
    plus atol 1e-12 times the column's largest magnitude, NaN where the
    oracle has NaN."""
    got = _night_columns(fn, values, lo, hi)
    want = _window_columns(oracle, values, lo, hi)
    assert list(got) == list(want)
    for k, w in want.items():
        g = np.asarray(got[k])
        assert g.shape == w.shape, k
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan), k
        scale = np.max(np.abs(w[~nan]), initial=0.0)
        np.testing.assert_allclose(g[~nan], w[~nan], rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=k)


LENGTHS = [*range(121), 150, 299, 300, 301, 1000]

FAMILIES = [(fr.hrv_time_features, _window_hrv_time_features),
            (fr.statistical_features, _window_statistical_features)]


def _night_bounds(times, width, n_epochs=960):
    """The RR index bounds of every centre epoch's window of one width."""
    spans = np.array([resolve_window(n_epochs, c, width)
                      for c in range(n_epochs)])
    return np.searchsorted(times, (spans[:, 0] * EPOCH_S,
                                   (spans[:, 1] + 1) * EPOCH_S))


@pytest.fixture(scope="module")
def night_960():
    """The usable RR intervals of a preprocessed 960-epoch synthetic night."""
    record = synth.generate_subject(seed=1000, profile=synth.easy_profile(),
                                    n_epochs=960)
    return usable_intervals(pipeline.preprocess_subject(record).rr)


@pytest.mark.parametrize("fn, oracle", FAMILIES,
                         ids=["hrv_time", "statistical"])
class TestWholeNightMatchesWindowOracle:
    def test_random_windows_every_length(self, fn, oracle):
        rng = np.random.default_rng(12)
        _assert_matches(fn, oracle, *_concat(
            [rng.normal(0.9, 0.08, n) for n in LENGTHS]))

    def test_tied_and_quantised_windows(self, fn, oracle):
        rng = np.random.default_rng(13)
        windows = [np.round(rng.normal(0.9, 0.05, n) * 50) / 50 for n in LENGTHS]
        windows += [np.repeat([0.8, 0.9, 1.0], k) for k in (1, 2, 5, 40)]
        _assert_matches(fn, oracle, *_concat(windows))

    def test_values_within_roundoff_of_the_mean(self, fn, oracle):
        # on a 10 ms grid a window's mean often lands on one of its values,
        # up to roundoff that decides whether the value lies above the mean
        rng = np.random.default_rng(17)
        _assert_matches(fn, oracle, *_concat(
            [np.round(rng.normal(0.9, 0.05, n), 2)
             for n in rng.integers(2, 400, 1000)]))

    def test_degenerate_empty_and_one_interval_rows(self, fn, oracle):
        rng = np.random.default_rng(14)
        windows = [np.full(10, 0.1 + 0.2), rng.normal(0.9, 0.08, 30), [],
                   np.full(2, 0.9), [0.9], np.full(37, 0.9),
                   rng.normal(0.9, 0.08, 5), [], [1.1]]
        values, lo, hi = _concat(windows)
        _assert_matches(fn, oracle, values, lo, hi)
        got = _night_columns(fn, values, lo, hi)
        short = hi - lo < 2
        assert all(np.isnan(col[short]).all() for col in got.values())

    def test_overlapping_random_bounds(self, fn, oracle):
        rng = np.random.default_rng(15)
        values = rng.normal(0.9, 0.08, 2000)
        lo = rng.integers(0, 2000, 300)
        hi = np.minimum(lo + rng.integers(0, 400, 300), 2000)
        _assert_matches(fn, oracle, values, lo, hi)

    @pytest.mark.parametrize("width", [1, 9])
    def test_windows_of_a_960_epoch_night(self, fn, oracle, width, night_960):
        times, values = night_960
        lo, hi = _night_bounds(times, width)
        assert width == 1 or np.all(lo[1:] < hi[:-1])  # the windows overlap
        _assert_matches(fn, oracle, values, lo, hi)

    def test_row_blocks_bound_the_traced_peak(self, fn, oracle, night_960):
        times, values = night_960
        lo, hi = _night_bounds(times, 9)

        def peak(copies):
            tracemalloc.start()
            try:
                fn(values, np.tile(lo, copies), np.tile(hi, copies))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(8) < 2 * peak(1)


# --- the loop-based statistics as an exact oracle --------------------------

def _loop_statistical_features(values: np.ndarray) -> dict:
    """The sort-per-statistic, Python-loop version of
    ``statistical_features``, kept verbatim as its oracle."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 2:
        raise InsufficientData(f"need >= 2 intervals, got {n}")
    mean = float(np.mean(x))
    sd = float(np.std(x))
    var = sd * sd
    q05, q10, q25, q75, q90, q95 = (
        float(v) for v in np.quantile(x, [0.05, 0.10, 0.25, 0.75, 0.90, 0.95]))
    d = np.diff(x)
    centered = x - mean
    above = x > mean
    # roundoff in the mean of a constant window can leave var a hair above
    # zero; treat such windows as degenerate
    degenerate = sd <= 1e-12 * max(1.0, abs(mean))
    if degenerate:
        sd = var = 0.0

    if n >= 4 and not degenerate:
        m3 = float(np.mean(centered ** 3))
        m4 = float(np.mean(centered ** 4))
        skew = m3 / sd ** 3
        kurt = m4 / var ** 2 - 3.0  # excess
    else:
        skew = kurt = np.nan

    def acf(k: int) -> float:
        if n <= k or degenerate:
            return np.nan
        return float(np.sum(centered[:-k] * centered[k:]) / np.sum(centered ** 2))

    # least-squares trend against interval index
    t = np.arange(n, dtype=float)
    slope, intercept = np.polyfit(t, x, 1)

    runs = _longest_true_run(above)
    half = n // 2
    return {
        "rr_stat_mean": mean,
        "rr_stat_sd": sd,
        "rr_stat_var": var,
        "rr_stat_min": float(np.min(x)),
        "rr_stat_max": float(np.max(x)),
        "rr_stat_range": float(np.ptp(x)),
        "rr_stat_median": float(np.median(x)),
        "rr_stat_q05": q05, "rr_stat_q10": q10, "rr_stat_q25": q25,
        "rr_stat_q75": q75, "rr_stat_q90": q90, "rr_stat_q95": q95,
        "rr_stat_iqr": q75 - q25,
        "rr_stat_skew": skew,
        "rr_stat_kurt": kurt,
        "rr_stat_mad": float(np.median(np.abs(x - np.median(x)))),
        "rr_stat_cv": sd / mean if mean != 0 else np.nan,
        "rr_stat_trim10": _trimmed_mean(x, 0.10),
        "rr_stat_trim25": _trimmed_mean(x, 0.25),
        "rr_stat_halves_diff": float(np.mean(x[half:]) - np.mean(x[:half])),
        "rr_stat_acf1": acf(1), "rr_stat_acf2": acf(2), "rr_stat_acf3": acf(3),
        "rr_stat_acf4": acf(4), "rr_stat_acf5": acf(5),
        "rr_stat_succ_mean_abs": float(np.mean(np.abs(d))),
        "rr_stat_succ_sd": float(np.std(d)),
        "rr_stat_succ_max": float(np.max(np.abs(d))),
        "rr_stat_count_above_mean": float(np.sum(above)),
        "rr_stat_longest_run_above": float(runs),
        "rr_stat_trend_slope": float(slope),
        "rr_stat_trend_intercept": float(intercept),
        "rr_stat_energy": float(np.sum(x * x)),
    }


def _trimmed_mean(x: np.ndarray, frac: float) -> float:
    k = int(np.floor(frac * len(x)))
    s = np.sort(x)
    trimmed = s[k:len(s) - k] if len(s) > 2 * k else s
    return float(np.mean(trimmed))


def _longest_true_run(mask: np.ndarray) -> int:
    best = cur = 0
    for b in mask:
        cur = cur + 1 if b else 0
        best = max(best, cur)
    return best


class TestStatisticalMatchesLoopCode:
    @staticmethod
    def _assert_same(windows):
        _assert_matches(fr.statistical_features, _loop_statistical_features,
                        *_concat(windows))

    def test_random_windows_every_length(self):
        rng = np.random.default_rng(12)
        self._assert_same([rng.normal(0.9, 0.08, n) for n in range(2, 120)])

    def test_long_and_tied_windows(self):
        rng = np.random.default_rng(13)
        windows = []
        for n in (150, 299, 300, 301, 1000):
            windows.append(rng.normal(0.9, 0.08, n))
            # quantised values: ties in the sort and in the median
            windows.append(np.round(rng.normal(0.9, 0.05, n) * 50) / 50)
        self._assert_same(windows)

    def test_runs_at_the_window_edges(self):
        self._assert_same([
            [1.2, 1.1, 0.8, 0.8], [0.8, 0.8, 1.1, 1.2], [1.5, 0.5],
            [0.5, 1.5], [1.0] * 7 + [2.0], [2.0] + [1.0] * 7,
            [1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0]])

    def test_degenerate_windows(self):
        # the trend of a constant window is roundoff (polyfit's is ~1e-17),
        # so a random window gives the columns their scale
        self._assert_same([np.full(2, 0.9), np.full(37, 0.9),
                           np.full(10, 0.1 + 0.2),
                           np.random.default_rng(16).normal(0.9, 0.08, 30)])


class TestNonlinear:
    def test_sd1_sd2_closed_form(self):
        x = np.array([0.8, 1.0, 0.9, 1.1, 1.0])
        out = fr.nonlinear_features(x)
        d = np.diff(x)
        s = x[:-1] + x[1:]
        assert out["rr_sd1"] == pytest.approx(np.std(d) / np.sqrt(2))
        assert out["rr_sd2"] == pytest.approx(np.std(s) / np.sqrt(2))
        # SD1 equals RMSSD/sqrt(2) only up to the mean of the differences;
        # for zero-mean differences they coincide
        x2 = np.array([1.0, 1.1, 1.0, 1.1, 1.0])
        out2 = fr.nonlinear_features(x2)
        rmssd = np.sqrt(np.mean(np.diff(x2) ** 2))
        assert out2["rr_sd1"] == pytest.approx(rmssd / np.sqrt(2), rel=1e-3)

    def test_zero_crossings(self):
        x = np.array([1.0, 2.0, 1.0, 2.0])  # mean 1.5, signs - + - +
        out = fr.nonlinear_features(x)
        assert out["rr_zero_cross_count"] == 3.0
        assert out["rr_zero_cross_rate"] == pytest.approx(3 / 4)

    def test_sampen_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0.9, 0.05, 80)
        expected = _sampen_oracle(x, 2, 0.2 * np.std(x))
        assert fr.sample_entropy(x) == expected

    def test_sampen_regular_vs_random(self):
        t = np.arange(120)
        regular = 0.9 + 0.05 * np.sin(2 * np.pi * t / 24)
        random = np.random.default_rng(1).normal(0.9, 0.05, 120)
        assert fr.sample_entropy(regular) < fr.sample_entropy(random)

    def test_sampen_nan_below_fifty_intervals(self):
        out = fr.nonlinear_features(np.random.default_rng(2).normal(0.9, 0.05, 49))
        assert math.isnan(out["rr_sampen"])
        out = fr.nonlinear_features(np.random.default_rng(2).normal(0.9, 0.05, 50))
        assert math.isfinite(out["rr_sampen"])

    def test_sampen_constant_is_nan(self):
        assert math.isnan(fr.sample_entropy(np.full(60, 1.0)))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_sampen_equals_oracle_on_quantised_rr(self, m, seed):
        # RR values on a 5 ms grid repeat, so many template distances tie
        x = _quantised_rr(seed, 160)
        expected = _sampen_oracle(x, m, 0.2 * np.std(x))
        assert math.isfinite(expected)
        assert fr.sample_entropy(x, m) == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sampen_equals_oracle_at_tolerance_boundary(self, m):
        # choose r_frac near 0.2 so that r equals a pairwise distance that
        # occurs: pairs at exactly |x_i - x_j| == r must count as matches
        x = _quantised_rr(3, 160)
        sd = np.std(x)
        dist = np.abs(x[:, None] - x[None, :])
        r_frac = min((d / sd for d in np.unique(dist[dist > 0])
                      if (d / sd) * sd == d), key=lambda f: abs(f - 0.2))
        r = r_frac * sd
        assert np.any(dist == r)
        expected = _sampen_oracle(x, m, r)
        assert math.isfinite(expected)
        assert fr.sample_entropy(x, m, r_frac) == expected

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sampen_nan_cases(self, m):
        x = _quantised_rr(4, 40)
        assert math.isnan(fr.sample_entropy(x[:m + 1], m))
        assert math.isfinite(fr.sample_entropy(x[:m + 2], m, r_frac=10.0))
        assert math.isnan(fr.sample_entropy(np.full(40, 0.9), m))
        # no two values lie within r, so no template pair matches
        assert math.isnan(fr.sample_entropy(np.arange(40.0), m, r_frac=0.01))


def _quantised_rr(seed, n):
    return np.round(np.random.default_rng(seed).normal(0.9, 0.05, n) * 200) / 200


def _sampen_oracle(x, m, r):
    """Literal double-loop sample entropy, Chebyshev distance, i != j.

    Counts N - length + 1 templates at each length; NaN when either count is 0.
    """
    def matches(length):
        count = 0
        n = len(x) - length + 1
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if max(abs(x[i + k] - x[j + k]) for k in range(length)) <= r:
                    count += 1
        return count
    a, b = matches(m + 1), matches(m)
    if a == 0 or b == 0:
        return np.nan
    return -np.log(a / b)


class TestNovelFeatures:
    def _epochs(self, rng, n_epochs, per_epoch=5):
        means = rng.normal(0.9, 0.08, n_epochs)
        counts = rng.integers(1, per_epoch + 1, n_epochs)
        return means, counts.astype(int)

    def test_f1_hand_case(self):
        means = np.array([1.0, 1.3, 0.7])
        counts = np.array([2, 1, 1])
        # window mean = (2*1.0 + 1.3 + 0.7) / 4 = 1.0
        assert fr.novel_f1(means, counts, 1, 119) == pytest.approx(0.3)

    def test_f2_hand_case(self):
        means = np.array([1.0, 1.2, 0.8])
        counts = np.array([1, 1, 1])
        window_values = np.array([1.0, 1.2, 0.8])
        assert fr.novel_f2(means, counts, window_values, 1) == pytest.approx(0.2)

    def test_f3_hand_case(self):
        means = np.array([1.0, 1.2, 0.8])
        counts = np.array([1, 1, 1])
        # window mean 1.0; deviations 0, .2, -.2 -> population SD
        expected = np.sqrt(np.mean(np.array([0.0, 0.2, -0.2]) ** 2))
        assert fr.novel_f3(means, counts, 1, 9) == pytest.approx(expected)

    def test_f1_brute_force_random_windows(self):
        rng = np.random.default_rng(11)
        means, counts = self._epochs(rng, 150)
        for center in rng.integers(0, 150, 50):
            got = fr.novel_f1(means, counts, int(center), 119)
            first, last = resolve_window(150, int(center), 119)
            num = den = 0.0
            for e in range(first, last + 1):
                num += means[e] * counts[e]
                den += counts[e]
            assert got == pytest.approx(means[center] - num / den, abs=1e-12)

    def test_f3_brute_force_random_windows(self):
        rng = np.random.default_rng(12)
        means, counts = self._epochs(rng, 60)
        for center in range(60):
            got = fr.novel_f3(means, counts, center, 9)
            first, last = resolve_window(60, center, 9)
            es = list(range(first, last + 1))
            w = sum(means[e] * counts[e] for e in es) / sum(counts[e] for e in es)
            sq = [(means[e] - w) ** 2 for e in es]
            assert got == pytest.approx(np.sqrt(np.mean(sq)), abs=1e-12)

    def test_empty_center_epoch_raises(self):
        means = np.array([1.0, np.nan, 0.8])
        counts = np.array([1, 0, 1])
        with pytest.raises(MissingCenter):
            fr.novel_f1(means, counts, 1, 9)
        with pytest.raises(MissingCenter):
            fr.novel_f2(means, counts, np.array([1.0]), 1)

    def test_f3_skips_empty_epochs(self):
        means = np.array([1.0, np.nan, 0.8])
        counts = np.array([1, 0, 1])
        # window mean 0.9; deviations +-0.1 over the two usable epochs
        assert fr.novel_f3(means, counts, 0, 9) == pytest.approx(0.1)

    def test_f3_all_empty_raises(self):
        with pytest.raises(NoValidEpochs):
            fr.novel_f3(np.array([np.nan, np.nan]), np.array([0, 0]), 0, 9)

    @given(shift=st.floats(-0.5, 0.5), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_f1_translation_invariant(self, shift, seed):
        rng = np.random.default_rng(seed)
        means, counts = self._epochs(rng, 20)
        a = fr.novel_f1(means, counts, 10, 9)
        b = fr.novel_f1(means + shift, counts, 10, 9)
        assert b == pytest.approx(a, abs=1e-9)

    @given(scale=st.floats(0.1, 5.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_f3_scales_homogeneously(self, scale, seed):
        rng = np.random.default_rng(seed)
        means, counts = self._epochs(rng, 20)
        a = fr.novel_f3(means, counts, 10, 9)
        b = fr.novel_f3(means * scale, counts, 10, 9)
        assert b == pytest.approx(scale * a, rel=1e-9)


class TestFrequency:
    def _series(self, rng, seconds=270.0, mean=0.9):
        n = int(seconds / mean)
        values = np.clip(rng.normal(mean, 0.04, n), 0.4, 1.8)
        times = np.cumsum(values)
        return times, values

    def test_names_count(self):
        assert len(fr.FREQ_NAMES) == 21

    def test_parseval_total_power(self):
        rng = np.random.default_rng(3)
        times, values = self._series(rng)
        out = fr.rr_freq_features(times, values, 0.0, 270.0)
        # reproduce the windowed series the feature works on
        grid_t = np.arange(0.0, 270.0, 0.25)
        y = np.interp(grid_t, times, values)
        y = (y - np.mean(y)) * np.hanning(len(y))
        assert out["rrf_total_power"] == pytest.approx(np.mean(y ** 2), rel=1e-6)

    def test_planted_lf_oscillation_dominates(self):
        t = np.arange(0.5, 270.0, 0.9)
        values = 0.9 + 0.05 * np.sin(2 * np.pi * 0.1 * t)
        out = fr.rr_freq_features(t, values, 0.0, 270.0)
        assert out["rrf_lf_peak_freq"] == pytest.approx(0.1, abs=1.0 / 270.0)
        assert out["rrf_lf_power"] > out["rrf_hf_power"]
        assert out["rrf_lf_norm"] > 0.9
        assert out["rrf_lf_norm"] + out["rrf_hf_norm"] == pytest.approx(1.0)

    def test_planted_hf_oscillation(self):
        t = np.arange(0.5, 270.0, 0.9)
        values = 0.9 + 0.05 * np.sin(2 * np.pi * 0.25 * t)
        out = fr.rr_freq_features(t, values, 0.0, 270.0)
        assert out["rrf_hf_peak_freq"] == pytest.approx(0.25, abs=1.0 / 270.0)
        assert out["rrf_hf_total_ratio"] > 0.8
        assert out["rrf_lf_hf_ratio"] < 0.2

    def test_band_sums_are_consistent(self):
        rng = np.random.default_rng(4)
        times, values = self._series(rng)
        out = fr.rr_freq_features(times, values, 0.0, 270.0)
        assert out["rrf_hf_total_ratio"] == pytest.approx(
            out["rrf_hf_power"] / out["rrf_total_power"])
        assert out["rrf_lf_total_ratio"] == pytest.approx(
            out["rrf_lf_power"] / out["rrf_total_power"])
        assert 0.0 <= out["rrf_spec_entropy"] <= 1.0
        assert 0.0 <= out["rrf_spec_flatness"] <= 1.0
        assert out["rrf_sef95"] >= out["rrf_median_freq"]

    def test_too_few_values_rejected(self):
        with pytest.raises(InsufficientData):
            fr.rr_freq_features(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                                0.0, 60.0)

    def test_sparse_coverage_rejected(self):
        # all intervals bunched into the first quarter of the window
        t = np.arange(0.5, 20.0, 0.9)
        with pytest.raises(InsufficientData):
            fr.rr_freq_features(t, np.full(len(t), 0.9), 0.0, 270.0)

    def test_short_window_rejected(self):
        t = np.arange(0.5, 25.0, 0.9)
        with pytest.raises(InsufficientData):
            fr.rr_freq_features(t, np.full(len(t), 0.9), 0.0, 25.0)
