"""RR feature families against closed forms and brute-force oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiosleep import features_rr as fr
from cardiosleep.epoching import resolve_window
from cardiosleep.errors import InsufficientData, MissingCenter, NoValidEpochs


class TestHrvTime:
    def test_closed_form_small_series(self):
        x = np.array([0.8, 1.0, 0.9, 1.1])
        out = fr.hrv_time_features(x)
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
        out = fr.hrv_time_features(np.full(10, 1.0))
        assert out["rr_sdnn"] == 0.0
        assert out["rr_rmssd"] == 0.0
        assert out["rr_pnn50"] == 0.0
        assert out["hr_mean"] == pytest.approx(60.0)

    def test_too_few_intervals(self):
        with pytest.raises(InsufficientData):
            fr.hrv_time_features(np.array([0.9]))

    def test_pnn_threshold_strictly_greater(self):
        # a 40 ms difference counts for pNN20 but not pNN50
        out = fr.hrv_time_features(np.array([1.0, 1.04]))
        assert out["rr_pnn50"] == 0.0
        assert out["rr_pnn20"] == 1.0


class TestStatistical:
    def test_names_count(self):
        assert len(fr.STAT_NAMES) == 34
        out = fr.statistical_features(np.array([0.8, 0.9, 1.0, 1.1]))
        assert set(out) == set(fr.STAT_NAMES)

    def test_quantile_linear_interpolation(self):
        out = fr.statistical_features(np.array([0.6, 0.8, 1.0]))
        assert out["rr_stat_q25"] == pytest.approx(0.7)
        assert out["rr_stat_q75"] == pytest.approx(0.9)
        assert out["rr_stat_iqr"] == pytest.approx(0.2)
        assert out["rr_stat_median"] == pytest.approx(0.8)

    def test_moments_population_convention(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = fr.statistical_features(x)
        assert out["rr_stat_var"] == pytest.approx(1.25)
        assert out["rr_stat_sd"] == pytest.approx(np.sqrt(1.25))
        assert out["rr_stat_skew"] == pytest.approx(0.0, abs=1e-12)
        # symmetric uniform-ish, excess kurtosis of this exact set
        m4 = np.mean((x - 2.5) ** 4)
        assert out["rr_stat_kurt"] == pytest.approx(m4 / 1.25 ** 2 - 3.0)

    def test_ramp_trend(self):
        x = 0.5 + 0.2 * np.arange(100) / 99
        out = fr.statistical_features(x)
        assert out["rr_stat_trend_slope"] == pytest.approx(0.2 / 99)
        assert out["rr_stat_trend_intercept"] == pytest.approx(0.5)
        assert out["rr_stat_halves_diff"] == pytest.approx(0.1 * 100 / 99)

    def test_acf_of_alternating_sequence(self):
        x = np.array([1.0, -1.0] * 20)
        out = fr.statistical_features(x)
        assert out["rr_stat_acf1"] == pytest.approx(-39 / 40)
        assert out["rr_stat_acf2"] == pytest.approx(38 / 40)

    def test_successive_and_runs(self):
        x = np.array([1.0, 1.2, 1.1, 1.5, 1.4])
        out = fr.statistical_features(x)
        d = np.diff(x)
        assert out["rr_stat_succ_mean_abs"] == pytest.approx(np.mean(np.abs(d)))
        assert out["rr_stat_succ_max"] == pytest.approx(0.4)
        assert out["rr_stat_count_above_mean"] == 2.0   # 1.5 and 1.4
        assert out["rr_stat_longest_run_above"] == 2.0

    def test_trimmed_means(self):
        x = np.concatenate([[0.0, 100.0], np.full(18, 1.0)])
        out = fr.statistical_features(x)
        # 10% trim drops two from each tail: both outliers go
        assert out["rr_stat_trim10"] == pytest.approx(1.0)
        assert out["rr_stat_mad"] == pytest.approx(0.0)

    def test_constant_window_degenerate_entries_nan(self):
        out = fr.statistical_features(np.full(20, 0.9))
        assert math.isnan(out["rr_stat_skew"])
        assert math.isnan(out["rr_stat_kurt"])
        assert math.isnan(out["rr_stat_acf1"])
        assert out["rr_stat_sd"] == 0.0


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
    def _assert_same(x):
        got, want = fr.statistical_features(x), _loop_statistical_features(x)
        assert list(got) == list(want)
        # bit-identical, NaN matching NaN
        np.testing.assert_array_equal(np.array(list(got.values())),
                                      np.array(list(want.values())))

    def test_random_windows_every_length(self):
        rng = np.random.default_rng(12)
        for n in range(2, 120):
            self._assert_same(rng.normal(0.9, 0.08, n))

    def test_long_and_tied_windows(self):
        rng = np.random.default_rng(13)
        for n in (150, 299, 300, 301, 1000):
            self._assert_same(rng.normal(0.9, 0.08, n))
            # quantised values: ties in the sort and in the median
            self._assert_same(np.round(rng.normal(0.9, 0.05, n) * 50) / 50)

    def test_runs_at_the_window_edges(self):
        for x in ([1.2, 1.1, 0.8, 0.8], [0.8, 0.8, 1.1, 1.2], [1.5, 0.5],
                  [0.5, 1.5], [1.0] * 7 + [2.0], [2.0] + [1.0] * 7,
                  [1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0]):
            self._assert_same(np.array(x))

    def test_degenerate_windows(self):
        for x in (np.full(2, 0.9), np.full(37, 0.9), np.full(10, 0.1 + 0.2)):
            self._assert_same(x)


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
