"""RR feature families against closed forms and brute-force oracles."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiosleep import features_rr as fr
from cardiosleep import pipeline, synth
from cardiosleep.epoching import EPOCH_S, resolve_window
from cardiosleep.preprocess import usable_intervals


# why a per-window oracle leaves a window's entries missing
class InsufficientData(Exception):
    """Too few intervals or samples in the window."""


class MissingCenter(Exception):
    """The centre epoch has no usable intervals."""


class NoValidEpochs(Exception):
    """No epoch of the window has usable intervals."""


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


def _window_zero_crossings(centered: np.ndarray) -> int:
    """Sign changes of a mean-removed signal, ignoring exact zeros."""
    signs = np.sign(centered)
    return int(np.count_nonzero(np.diff(signs[signs != 0])))


def _window_nonlinear_without_sampen(values: np.ndarray) -> dict:
    """The nonlinear family's entries but sample entropy, which
    ``_window_sampen_entry`` gives."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n < 2:
        raise InsufficientData(f"need >= 2 intervals, got {n}")
    zc = _window_zero_crossings(x - np.mean(x))
    d = np.diff(x)
    s = x[:-1] + x[1:]
    sd1 = float(np.std(d) / np.sqrt(2))
    sd2 = float(np.std(s) / np.sqrt(2))
    return {
        "rr_zero_cross_count": float(zc),
        "rr_zero_cross_rate": zc / n,
        "rr_sd1": sd1,
        "rr_sd2": sd2,
    }


def _window_one_sided_power(y: np.ndarray) -> np.ndarray:
    """One-sided power spectrum normalized so the bins sum to mean(y^2)."""
    n = len(y)
    spec = np.fft.rfft(y)
    p = np.abs(spec) ** 2 / n ** 2
    p[1:] *= 2.0
    if n % 2 == 0:
        p[-1] /= 2.0
    return p


def _window_hann_spectrum(x: np.ndarray, fs: float
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and one-sided power of x, mean-removed and Hann-windowed."""
    y = (x - np.mean(x)) * np.hanning(len(x))
    return np.fft.rfftfreq(len(y), d=1.0 / fs), _window_one_sided_power(y)


def _window_spectral_shape(freqs: np.ndarray, p: np.ndarray
                           ) -> tuple[np.ndarray, float, float]:
    """The non-DC bins of a power spectrum as a distribution, its Shannon
    entropy normalised by the log of the bin count, and its centroid."""
    q = p[1:] / np.sum(p[1:])
    pos = q > 0
    entropy = float(-np.sum(q[pos] * np.log(q[pos])) / np.log(len(q)))
    return q, entropy, float(np.sum(freqs[1:] * q))


def _window_band_mask(freqs: np.ndarray, lo: float, hi: float) -> np.ndarray:
    # boundary bins belong to the higher band
    return (freqs >= lo) & (freqs < hi)


def _window_rr_freq_features(times: np.ndarray, values: np.ndarray,
                             t0: float, t1: float) -> dict:
    """21 spectral features of the RR series resampled to a uniform 4 Hz grid,
    mean-removed and Hann-windowed."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    win = t1 - t0
    if len(values) < 4:
        raise InsufficientData(f"need >= 4 intervals, got {len(values)}")
    if win < 30.0 - 1e-9 or (times[-1] - times[0]) < 0.75 * win:
        raise InsufficientData("need >= 30 s of RR coverage in the window")
    grid_t = np.arange(t0, t1, 1.0 / fr.RESAMPLE_HZ)
    freqs, p = _window_hann_spectrum(np.interp(grid_t, times, values),
                                     fr.RESAMPLE_HZ)
    total = float(np.sum(p))

    out = dict.fromkeys(fr.FREQ_NAMES, np.nan)
    out["rrf_total_power"] = total
    bands = {"vlf": fr.VLF_BAND, "lf": fr.LF_BAND, "hf": fr.HF_BAND}
    power = {}
    for name, (lo, hi) in bands.items():
        mask = _window_band_mask(freqs, lo, hi)
        power[name] = float(np.sum(p[mask]))
        out[f"rrf_{name}_power"] = power[name]
        if total > 1e-12 and np.any(mask):
            k = np.flatnonzero(mask)[np.argmax(p[mask])]
            out[f"rrf_{name}_peak_freq"] = float(freqs[k])
            out[f"rrf_{name}_peak_power"] = float(p[k])
    out["rrf_band_power_04_10"] = float(
        np.sum(p[_window_band_mask(freqs, 0.4, 1.0)]))

    if total > 1e-12:
        lf, hf = power["lf"], power["hf"]
        out["rrf_lf_hf_ratio"] = lf / hf if hf > 0 else np.nan
        denom = lf + hf
        if denom > 0:
            out["rrf_lf_norm"] = lf / denom
            out["rrf_hf_norm"] = hf / denom
        out["rrf_hf_total_ratio"] = hf / total
        out["rrf_lf_total_ratio"] = lf / total
        q, out["rrf_spec_entropy"], out["rrf_spec_centroid"] = (
            _window_spectral_shape(freqs, p))
        cum = np.cumsum(p) / total
        out["rrf_sef95"] = float(freqs[np.searchsorted(cum, 0.95)])
        out["rrf_median_freq"] = float(freqs[np.searchsorted(cum, 0.5)])
        if np.all(q > 0):
            out["rrf_spec_flatness"] = float(np.exp(np.mean(np.log(q))) / np.mean(q))
        else:
            out["rrf_spec_flatness"] = 0.0
    return out


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


# outputs that count, index or pick: they must equal the oracle's exactly
DISCRETE = {
    "rr_nn50_count", "rr_stat_count_above_mean", "rr_stat_longest_run_above",
    "rr_zero_cross_count", "rr_zero_cross_rate", "rrf_vlf_peak_freq",
    "rrf_lf_peak_freq", "rrf_hf_peak_freq", "rrf_sef95", "rrf_median_freq",
    "peak_count", "sig_zcr", "dom_freq", "dom_bandwidth", "peak2_freq",
}


def assert_columns_match(got: dict, want: dict, exact=()):
    """Columns equal the oracle's: rtol 1e-12 plus atol 1e-12 times the
    column's largest magnitude, NaN where the oracle has NaN, and exactly
    for the ``DISCRETE`` outputs and the keys in ``exact``."""
    assert list(got) == list(want)
    for k, w in want.items():
        g = np.asarray(got[k])
        assert g.shape == w.shape, k
        nan = np.isnan(w)
        assert np.array_equal(np.isnan(g), nan), k
        if k in DISCRETE or k in exact:
            np.testing.assert_array_equal(g, w, err_msg=k)
        scale = np.max(np.abs(w[~nan]), initial=0.0)
        np.testing.assert_allclose(g[~nan], w[~nan], rtol=1e-12,
                                   atol=1e-12 * scale, err_msg=k)


def _assert_matches(fn, oracle, values, lo, hi):
    """``fn`` over the windows equals ``oracle`` window by window."""
    assert_columns_match(_night_columns(fn, values, lo, hi),
                         _window_columns(oracle, values, lo, hi))


LENGTHS = [*range(121), 150, 299, 300, 301, 1000]


FAMILIES = [(fr.hrv_time_features, _window_hrv_time_features),
            (fr.statistical_features, _window_statistical_features),
            (fr.nonlinear_features, lambda x: {
                **_window_sampen_entry(x), **_window_nonlinear_without_sampen(x)})]


def night_edges(width, n_epochs=960):
    """The edges [t0, t1) in seconds of every centre epoch's window of one
    width."""
    first, last = resolve_window(n_epochs, np.arange(n_epochs), width)
    return first * EPOCH_S, (last + 1) * EPOCH_S


def _night_bounds(times, width, n_epochs=960):
    """The RR index bounds of every centre epoch's window of one width."""
    return np.searchsorted(times, night_edges(width, n_epochs))


@pytest.fixture(scope="module")
def night_960(night_960_subject):
    """The usable RR intervals of a preprocessed 960-epoch synthetic night."""
    return usable_intervals(night_960_subject.rr)


@pytest.mark.parametrize("fn, oracle", FAMILIES,
                         ids=["hrv_time", "statistical", "nonlinear"])
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


# --- the row-block driver ---------------------------------------------------

class TestInBlocks:
    """``_in_blocks`` fills each row of ``rows`` once and leaves every other
    row NaN; each kernel block holds rows of one size and at most
    ``BLOCK_VALUES`` values, unless it is one row longer than that."""

    @staticmethod
    def _blocks(size, rows):
        """The driver's columns, with the rows and size of each kernel
        block in call order, after checking its contract."""
        blocks = []

        def kernel(r, m):
            blocks.append((r.copy(), m))
            return {"row": 1.0 * r, "size": np.full(len(r), 1.0 * m)}
        out = fr._in_blocks(["row", "size"], size, rows, kernel)
        filled = np.concatenate([r for r, _ in blocks] + [[]]).astype(int)
        assert len(filled) == len(np.unique(filled))
        np.testing.assert_array_equal(np.sort(filled), np.sort(rows))
        for r, m in blocks:
            assert np.all(size[r] == m)
            assert len(r) == 1 or len(r) * max(m, 1) <= fr.BLOCK_VALUES
        np.testing.assert_array_equal(out["row"][rows], rows)
        np.testing.assert_array_equal(out["size"][rows], size[rows])
        rest = np.setdiff1d(np.arange(len(size)), rows)
        assert all(np.isnan(col[rest]).all() for col in out.values())
        return blocks

    def test_one_width_for_every_row(self):
        # the padded families' call: consecutive runs of the rows in order,
        # as many as fit BLOCK_VALUES at the one width
        rng = np.random.default_rng(16)
        rows = np.sort(rng.choice(5000, 3000, replace=False))
        blocks = self._blocks(np.full(5000, 301), rows)
        step = fr.BLOCK_VALUES // 301
        assert len(blocks) == -(-len(rows) // step)
        for i, (r, m) in enumerate(blocks):
            np.testing.assert_array_equal(r, rows[i * step:(i + 1) * step])

    def test_rows_grouped_by_length(self):
        rng = np.random.default_rng(18)
        size = rng.integers(0, 3000, 4000)
        size[[5, 77]] = fr.BLOCK_VALUES + 10    # rows longer than a block
        rows = np.flatnonzero(rng.random(4000) < 0.7)
        blocks = self._blocks(size, np.union1d(rows, [5, 77]))
        assert [len(r) for r, m in blocks if m > fr.BLOCK_VALUES] == [1, 1]

    def test_no_rows(self):
        assert self._blocks(np.arange(7), np.array([], dtype=int)) == []
        assert self._blocks(np.array([], dtype=int),
                            np.array([], dtype=int)) == []


# --- the RR spectrum over a night's windows --------------------------------

def _freq_window_columns(fn, times, values, t0, t1) -> dict:
    """A per-window RR spectrum's columns over the windows [t0, t1) of one
    night's RR series, NaN rows where it raises ``InsufficientData``."""
    lo, hi = np.searchsorted(times, t0), np.searchsorted(times, t1)
    rows = []
    for a, b, s, e in zip(lo, hi, t0, t1):
        try:
            rows.append(fn(times[a:b], values[a:b], s, e))
        except InsufficientData:
            rows.append(dict.fromkeys(fr.FREQ_NAMES, np.nan))
    return {k: np.array([r[k] for r in rows]) for k in fr.FREQ_NAMES}


def _rr_series(rng, seconds, mean=0.9):
    """Start times and values of a random RR series covering ``seconds``."""
    values = np.clip(rng.normal(mean, 0.05, int(seconds / mean) + 10), 0.4, 1.8)
    times = 0.3 + np.cumsum(values) - values[0]
    keep = times < seconds
    return times[keep], values[keep]


@pytest.fixture(scope="module")
def night_120():
    """The usable RR intervals of a preprocessed 120-epoch synthetic night,
    whose last R peak falls in its 120th epoch."""
    record = synth.generate_subject(seed=7, profile=synth.easy_profile(),
                                    n_epochs=120)
    return usable_intervals(pipeline.preprocess_subject(record).rr)


class TestRrFreqMatchesWindowOracle:
    @staticmethod
    def _assert_same(times, values, t0, t1):
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        assert_columns_match(
            fr.rr_freq_features(times, values, t0, t1),
            _freq_window_columns(_window_rr_freq_features, times, values, t0, t1),
            exact=fr.FREQ_NAMES)

    @pytest.mark.parametrize("width", [1, 9])
    def test_windows_of_a_960_epoch_night(self, width, night_960):
        self._assert_same(*night_960, *night_edges(width))

    @pytest.mark.parametrize("width", [1, 9])
    def test_windows_of_a_120_epoch_night(self, width, night_120):
        # the width-9 windows of the first and last four epochs are clipped
        self._assert_same(*night_120, *night_edges(width, 119))

    def test_random_windows_on_the_grid(self):
        # quarter-second edges: odd and even sample counts, windows shorter
        # than 30 s and windows running past the last interval
        rng = np.random.default_rng(31)
        times, values = _rr_series(rng, 3000.0)
        t0 = rng.integers(0, 4 * 3000, 400) / 4
        t1 = t0 + rng.integers(100, 1300, 400) / 4
        self._assert_same(times, values, t0, t1)

    def test_gaps_sparse_and_constant_windows(self):
        rng = np.random.default_rng(32)
        times, values = _rr_series(rng, 2400.0)
        # no intervals in [600, 900); 0.9 s exactly in [1200, 1500), so the
        # windows inside it have no power; a lone interval every 25 s in
        # [1800, 2100)
        values[(times >= 1200) & (times < 1500)] = 0.9
        lone = (times >= 1800) & (times < 2100)
        keep = ((times < 600) | (times >= 900)) & (~lone | (times % 25 < 0.9))
        times, values = times[keep], values[keep]
        t0 = np.arange(0.0, 2400.0, 30.0)
        for width in (1, 3, 9):
            self._assert_same(times, values, t0, t0 + 30.0 * width)

    def test_row_blocks_bound_the_traced_peak(self, night_960):
        times, values = night_960
        t0, t1 = night_edges(9)

        def peak(copies):
            tracemalloc.start()
            try:
                fr.rr_freq_features(times, values, np.tile(t0, copies),
                                    np.tile(t1, copies))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(8) < 2 * peak(1)

    def test_no_intervals_or_no_windows(self):
        empty = np.array([])
        got = fr.rr_freq_features(empty, empty, [0.0, 30.0], [30.0, 60.0])
        assert all(np.isnan(col).all() and len(col) == 2 for col in got.values())
        got = fr.rr_freq_features(*_rr_series(np.random.default_rng(34), 90.0),
                                  empty, empty)
        assert all(len(col) == 0 for col in got.values())

    def test_windows_of_few_intervals(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 28.0, 29.0, 40.0, 70.0, 71.0])
        values = np.array([0.8, 0.9, 1.0, 0.9, 0.7, 0.8, 0.9, 1.0, 1.1])
        t0 = np.array([0.0, 0.0, 0.0, 30.0, 60.0, 90.0, 0.0])
        t1 = np.array([30.0, 60.0, 90.0, 60.0, 90.0, 120.0, 120.0])
        self._assert_same(times, values, t0, t1)


# --- the 4 Hz grid gather against its two-branch form ------------------------

def _two_branch_grid_gather(times, values, lo, hi, k0, k1):
    """The grid gather as it was before one blocked path served both series:
    an RR series (``times`` an array) interpolated over the whole grid at
    once, a belt (``times`` a sample rate) in blocks bracketed by floor and
    ceil of the sample index."""
    start = k0.min()
    grid = np.arange(start, k1.max()) / fr.RESAMPLE_HZ
    if np.ndim(times):
        at = times.__getitem__
        series = np.interp(grid, times, values)
    else:
        rate = float(times)

        def at(i):
            return i / rate
        series = np.empty(len(grid))
        step = max(1, int(fr.BLOCK_VALUES * fr.RESAMPLE_HZ / rate))
        for g in range(0, len(grid), step):
            t = grid[g:g + step]
            a = min(max(0, int(np.floor(t[0] * rate)) - 1), len(values) - 1)
            b = min(len(values), int(np.ceil(t[-1] * rate)) + 2)
            series[g:g + len(t)] = np.interp(t, at(np.arange(a, b)), values[a:b])

    def take(r, m):
        idx = (k0[r] - start)[:, None] + np.arange(m)
        first, last = lo[r, None], hi[r, None] - 1
        X = np.where(grid[idx] < at(first), values[first], series[idx])
        return np.where(grid[idx] > at(last), values[last], X)
    return take


def assert_gather_matches(times_or_rate, values, t0, t1):
    """``_grid_gather`` equals the two-branch form bit for bit on every
    window [t0, t1) holding at least one point of the series, which is an RR
    series at ``times_or_rate`` or a trace sampled at that rate."""
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    if np.ndim(times_or_rate):
        at = times_or_rate
        lo, hi = np.searchsorted(times_or_rate, (t0, t1))
    else:
        at = np.arange(len(values)) / times_or_rate
        lo = np.ceil(t0 * times_or_rate - 1e-9).astype(int)
        hi = np.minimum(np.ceil(t1 * times_or_rate - 1e-9).astype(int),
                        len(values))
    k0, k1 = fr._grid_index(t0), fr._grid_index(t1)
    take = fr._grid_gather(at, values, lo, hi, k0, k1)
    want = _two_branch_grid_gather(times_or_rate, values, lo, hi, k0, k1)
    size = k1 - k0
    for m in np.unique(size[hi > lo]):
        r = np.flatnonzero((size == m) & (hi > lo))
        np.testing.assert_array_equal(take(r, m), want(r, m))


def _edge_windows(seconds):
    """Windows [t0, t1) of one and many grid points at the first and the
    last point of a grid covering [0, seconds)."""
    t0 = np.array([0.0, 0.0, 0.0, seconds - 0.25, seconds - 30.0,
                   seconds - 270.0, 0.25])
    return t0, np.array([0.25, 30.0, 270.0, seconds, seconds, seconds,
                         seconds - 0.25])


class TestGridGatherMatchesTwoBranchOracle:
    def test_irregular_rr_series_with_gaps(self):
        rng = np.random.default_rng(33)
        times, values = _rr_series(rng, 2400.0)
        # no intervals in [600, 900), a lone interval every 25 s after 1800
        keep = (((times < 600) | (times >= 900))
                & ((times < 1800) | (times % 25 < 0.9)))
        times, values = times[keep], values[keep]
        t0 = rng.integers(0, 4 * 2300, 300) / 4
        t0 = np.concatenate([t0, _edge_windows(2400.0)[0]])
        t1 = np.concatenate([t0[:300] + rng.integers(1, 1300, 300) / 4,
                             _edge_windows(2400.0)[1]])
        assert_gather_matches(times, values, t0, t1)

    @pytest.mark.parametrize("width", [1, 9])
    def test_rr_of_a_960_epoch_night(self, width, night_960):
        t0, t1 = night_edges(width)
        edge0, edge1 = _edge_windows(960 * EPOCH_S)
        assert_gather_matches(*night_960, np.concatenate([t0, edge0]),
                              np.concatenate([t1, edge1]))

    @pytest.mark.parametrize("rate", [25.0, 10.0, 7.35, 2.5])
    def test_belts_at_several_rates(self, rate, night_960_subject):
        x = night_960_subject.breath_chest.samples
        seconds = 300 * EPOCH_S
        belt = np.interp(np.arange(int(seconds * rate)) / rate,
                         np.arange(len(x)) / 25.0, x)
        for width in (1, 9):
            t0, t1 = night_edges(width, 300)
            edge0, edge1 = _edge_windows(seconds)
            assert_gather_matches(rate, belt, np.concatenate([t0, edge0]),
                                  np.concatenate([t1, edge1]))


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
        out = _one(fr.nonlinear_features, x)
        d = np.diff(x)
        s = x[:-1] + x[1:]
        assert out["rr_sd1"] == pytest.approx(np.std(d) / np.sqrt(2))
        assert out["rr_sd2"] == pytest.approx(np.std(s) / np.sqrt(2))
        # SD1 equals RMSSD/sqrt(2) only up to the mean of the differences;
        # for zero-mean differences they coincide
        x2 = np.array([1.0, 1.1, 1.0, 1.1, 1.0])
        out2 = _one(fr.nonlinear_features, x2)
        rmssd = np.sqrt(np.mean(np.diff(x2) ** 2))
        assert out2["rr_sd1"] == pytest.approx(rmssd / np.sqrt(2), rel=1e-3)

    def test_zero_crossings(self):
        x = np.array([1.0, 2.0, 1.0, 2.0])  # mean 1.5, signs - + - +
        out = _one(fr.nonlinear_features, x)
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
        x = np.random.default_rng(2).normal(0.9, 0.05, 50)
        out = fr.nonlinear_features(x, [0, 0], [49, 50])["rr_sampen"]
        assert math.isnan(out[0])
        assert math.isfinite(out[1])

    def test_nonlinear_features_calls_sample_entropy_once_per_long_window(
            self, monkeypatch):
        # perfbench times the family by wrapping this module attribute
        calls = []
        real = fr.sample_entropy

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)
        monkeypatch.setattr(fr, "sample_entropy", counted)
        x = np.random.default_rng(8).normal(0.9, 0.05, 300)
        out = fr.nonlinear_features(x, [0, 0, 10, 100, 0], [49, 50, 200, 100, 300])
        assert calls == [50, 190, 300]
        assert np.isnan(out["rr_sampen"][[0, 3]]).all()

    def test_sampen_traced_peak_below_six_bytes_per_pair(self):
        # the lag fold holds ceil(n/2) x n distances, not n x n (16 n^2 bytes)
        n = 500
        x = np.random.default_rng(9).normal(0.9, 0.05, n)
        tracemalloc.start()
        try:
            fr.sample_entropy(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n ** 2

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

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("r_frac", [0.2, 10.0])
    def test_sampen_equals_broadcast_oracle_at_every_short_length(self, m, r_frac):
        # odd and even n down to m + 2, on quantised values whose distances tie
        x = _quantised_rr(6, 61)
        for n in range(m + 2, len(x) + 1):
            np.testing.assert_array_equal(fr.sample_entropy(x[:n], m, r_frac),
                                          _broadcast_sampen(x[:n], m, r_frac))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [140, 141, 522, 523])
    def test_sampen_equals_broadcast_oracle_on_window_lengths(self, m, n):
        # the 9-epoch windows of a night hold 140-523 intervals
        for x in (np.random.default_rng(n).normal(0.9, 0.05, n),
                  _quantised_rr(n, n)):
            np.testing.assert_array_equal(fr.sample_entropy(x, m),
                                          _broadcast_sampen(x, m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [159, 160])
    def test_sampen_equals_broadcast_oracle_at_tolerance_boundary(self, m, n):
        # r equals a pairwise distance that occurs, which counts as a match
        x = _quantised_rr(3, n)
        sd = np.std(x)
        dist = np.abs(x[:, None] - x[None, :])
        r_frac = min((d / sd for d in np.unique(dist[dist > 0])
                      if (d / sd) * sd == d), key=lambda f: abs(f - 0.2))
        assert np.any(dist == r_frac * sd)
        want = _broadcast_sampen(x, m, r_frac)
        assert math.isfinite(want)
        assert fr.sample_entropy(x, m, r_frac) == want

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sampen_of_a_constant_window_is_nan_as_in_the_oracle(self, m):
        for n in (m + 2, m + 3, 60, 61):
            assert math.isnan(_broadcast_sampen(np.full(n, 0.9), m))
            assert math.isnan(fr.sample_entropy(np.full(n, 0.9), m))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(150, 210), min_size=3, max_size=90),
           st.integers(1, 3), st.sampled_from([0.1, 0.2, 10.0]))
    def test_sampen_equals_broadcast_oracle_on_tied_values(self, ticks, m, r_frac):
        x = np.array(ticks) / 200
        np.testing.assert_array_equal(fr.sample_entropy(x, m, r_frac),
                                      _broadcast_sampen(x, m, r_frac))


def _quantised_rr(seed, n):
    return np.round(np.random.default_rng(seed).normal(0.9, 0.05, n) * 200) / 200


def _broadcast_sampen(values, m=2, r_frac=0.2):
    """Sample entropy from the full n x n matrix of |x_i - x_j|, comparing
    every ordered template pair and the diagonal: the reference that
    ``fr.sample_entropy`` must equal exactly, NaN for NaN."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    sd = np.std(x)
    if n < m + 2 or sd == 0:
        return np.nan
    r = r_frac * sd
    # templates i and j of length L match iff close[i + s, j + s] for all s < L
    close = np.abs(x[:, None] - x[None, :]) <= r
    k = n - m + 1
    match = close[:k, :k].copy()
    for s in range(1, m):
        match &= close[s:s + k, s:s + k]
    b = np.count_nonzero(match) - k  # exclude self-matches
    a = np.count_nonzero(match[:-1, :-1] & close[m:, m:]) - (k - 1)
    if b == 0 or a == 0:
        return np.nan
    return float(-np.log(a / b))


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


# --- the per-window sudden-variation features and sample entropy ---------

def _window_center_mean(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                        center: int) -> float:
    if epoch_counts[center] == 0 or not np.isfinite(epoch_means[center]):
        raise MissingCenter(f"epoch {center} has no usable intervals")
    return epoch_means[center]


def _window_usable(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                   center: int, n: int) -> tuple[np.ndarray, float]:
    """Mean RRs of the window's epochs with usable intervals and their
    interval-weighted mean."""
    first, last = resolve_window(len(epoch_means), center, n)
    means = epoch_means[first:last + 1]
    counts = epoch_counts[first:last + 1]
    ok = (counts > 0) & np.isfinite(means)
    if not np.any(ok):
        raise NoValidEpochs(f"no epoch in window around {center} has intervals")
    means, counts = means[ok], counts[ok]
    return means, float(np.sum(means * counts) / np.sum(counts))


def _window_novel_f1(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                     center: int, n: int) -> float:
    """Mid-epoch mean RR minus the mean over the whole (shrunken) window."""
    mid = _window_center_mean(epoch_means, epoch_counts, center)
    _, w_mean = _window_usable(epoch_means, epoch_counts, center, n)
    return float(mid - w_mean)


def _window_novel_f2(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                     window_values: np.ndarray, center: int) -> float:
    """Mid-epoch mean RR minus the median of all raw RR values in the window."""
    mid = _window_center_mean(epoch_means, epoch_counts, center)
    if len(window_values) == 0:
        raise MissingCenter("empty window")
    return float(mid - np.median(window_values))


def _window_novel_f3(epoch_means: np.ndarray, epoch_counts: np.ndarray,
                     center: int, n: int) -> float:
    """Population SD of the per-epoch mean RRs around the all-window mean.

    Epochs without usable intervals are excluded and the effective n reduced.
    """
    means, w_mean = _window_usable(epoch_means, epoch_counts, center, n)
    dev = means - w_mean
    return float(np.sqrt(np.mean(dev * dev)))


def _novel_window_columns(epoch_means, epoch_counts, values, lo, hi,
                          n) -> dict:
    """The per-window sudden-variation features of every centre epoch:
    ``rr_f1`` and ``rr_f3`` over its window of n epochs, ``rr_f2`` over the
    RR values ``values[lo:hi]``; NaN where the oracle raises."""
    def column(fn):
        out = []
        for c in range(len(epoch_means)):
            try:
                out.append(fn(c))
            except (MissingCenter, NoValidEpochs):
                out.append(np.nan)
        return np.array(out)
    return {
        "rr_f1": column(lambda c: _window_novel_f1(epoch_means, epoch_counts,
                                                   c, n)),
        "rr_f2": column(lambda c: _window_novel_f2(
            epoch_means, epoch_counts, values[lo[c]:hi[c]], c)),
        "rr_f3": column(lambda c: _window_novel_f3(epoch_means, epoch_counts,
                                                   c, n)),
    }


def _window_sampen_entry(values: np.ndarray) -> dict:
    """The nonlinear family's sample entropy of one window, NaN below 50
    intervals."""
    return {"rr_sampen": _broadcast_sampen(values) if len(values) >= 50
            else np.nan}


class TestNovelFeatures:
    def _epochs(self, rng, n_epochs, per_epoch=5):
        means = rng.normal(0.9, 0.08, n_epochs)
        counts = rng.integers(1, per_epoch + 1, n_epochs)
        return means, counts.astype(int)

    def test_f1_hand_case(self):
        means = np.array([1.0, 1.3, 0.7])
        counts = np.array([2, 1, 1])
        # window mean = (2*1.0 + 1.3 + 0.7) / 4 = 1.0
        assert fr.novel_f1(means, counts, 119)[1] == pytest.approx(0.3)

    def test_f2_hand_case(self):
        means = np.array([1.0, 1.2, 0.8])
        counts = np.array([1, 1, 1])
        window_values = np.array([1.0, 1.2, 0.8])
        got = fr.novel_f2(means, counts, window_values, [0, 0, 0], [3, 3, 3])
        assert got[1] == pytest.approx(0.2)

    def test_f3_hand_case(self):
        means = np.array([1.0, 1.2, 0.8])
        counts = np.array([1, 1, 1])
        # window mean 1.0; deviations 0, .2, -.2 -> population SD
        expected = np.sqrt(np.mean(np.array([0.0, 0.2, -0.2]) ** 2))
        assert fr.novel_f3(means, counts, 9)[1] == pytest.approx(expected)

    def test_f1_brute_force_random_windows(self):
        rng = np.random.default_rng(11)
        means, counts = self._epochs(rng, 150)
        got = fr.novel_f1(means, counts, 119)
        for center in rng.integers(0, 150, 50):
            first, last = resolve_window(150, int(center), 119)
            num = den = 0.0
            for e in range(first, last + 1):
                num += means[e] * counts[e]
                den += counts[e]
            assert got[center] == pytest.approx(means[center] - num / den,
                                                abs=1e-12)

    def test_f3_brute_force_random_windows(self):
        rng = np.random.default_rng(12)
        means, counts = self._epochs(rng, 60)
        got = fr.novel_f3(means, counts, 9)
        for center in range(60):
            first, last = resolve_window(60, center, 9)
            es = list(range(first, last + 1))
            w = sum(means[e] * counts[e] for e in es) / sum(counts[e] for e in es)
            sq = [(means[e] - w) ** 2 for e in es]
            assert got[center] == pytest.approx(np.sqrt(np.mean(sq)), abs=1e-12)

    def test_empty_center_epoch_is_nan(self):
        means = np.array([1.0, np.nan, 0.8])
        counts = np.array([1, 0, 1])
        assert np.isnan(fr.novel_f1(means, counts, 9)).tolist() == [
            False, True, False]
        f2 = fr.novel_f2(means, counts, np.array([1.0, 0.8]), [0, 0, 0],
                         [2, 2, 2])
        assert np.isnan(f2).tolist() == [False, True, False]

    def test_f3_skips_empty_epochs(self):
        means = np.array([1.0, np.nan, 0.8])
        counts = np.array([1, 0, 1])
        # window mean 0.9; deviations +-0.1 over the two usable epochs
        assert fr.novel_f3(means, counts, 9)[0] == pytest.approx(0.1)

    def test_f3_all_empty_is_nan(self):
        got = fr.novel_f3(np.array([np.nan, np.nan]), np.array([0, 0]), 9)
        assert np.isnan(got).all()

    @given(shift=st.floats(-0.5, 0.5), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_f1_translation_invariant(self, shift, seed):
        rng = np.random.default_rng(seed)
        means, counts = self._epochs(rng, 20)
        a = fr.novel_f1(means, counts, 9)[10]
        b = fr.novel_f1(means + shift, counts, 9)[10]
        assert b == pytest.approx(a, abs=1e-9)

    @given(scale=st.floats(0.1, 5.0), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_f3_scales_homogeneously(self, scale, seed):
        rng = np.random.default_rng(seed)
        means, counts = self._epochs(rng, 20)
        a = fr.novel_f3(means, counts, 9)[10]
        b = fr.novel_f3(means * scale, counts, 9)[10]
        assert b == pytest.approx(scale * a, rel=1e-9)


def _novel_night_columns(epoch_means, epoch_counts, values, lo, hi,
                         n) -> dict:
    """The whole-night sudden-variation features, as the oracle's columns."""
    return {
        "rr_f1": fr.novel_f1(epoch_means, epoch_counts, n),
        "rr_f2": fr.novel_f2(epoch_means, epoch_counts, values, lo, hi),
        "rr_f3": fr.novel_f3(epoch_means, epoch_counts, n),
    }


def _epoch_stats(times, values, n_epochs):
    """Each epoch's mean RR and interval count, as the registry forms them."""
    idx = np.floor(times / EPOCH_S).astype(int)
    counts = np.bincount(idx, minlength=n_epochs)[:n_epochs]
    sums = np.bincount(idx, weights=values, minlength=n_epochs)[:n_epochs]
    means = np.full(n_epochs, np.nan)
    means[counts > 0] = sums[counts > 0] / counts[counts > 0]
    return means, counts


class TestNovelMatchesWindowOracle:
    @staticmethod
    def _assert_same(times, values, n_epochs, width):
        means, counts = _epoch_stats(times, values, n_epochs)
        lo, hi = _night_bounds(times, width, n_epochs)
        assert_columns_match(
            _novel_night_columns(means, counts, values, lo, hi, width),
            _novel_window_columns(means, counts, values, lo, hi, width),
            exact={"rr_f2"})

    @pytest.mark.parametrize("width", [1, 9, 119])
    def test_windows_of_a_960_epoch_night(self, width, night_960):
        self._assert_same(*night_960, 960, width)

    @pytest.mark.parametrize("width", [9, 119])
    def test_windows_of_a_120_epoch_night(self, width, night_120):
        # every 119-epoch window is clipped
        self._assert_same(*night_120, 119, width)

    @pytest.mark.parametrize("width", [1, 3, 9, 119])
    def test_empty_epochs_and_runs_of_them(self, width):
        # single empty epochs, a run longer than a 9-epoch window, and empty
        # first and last epochs
        rng = np.random.default_rng(33)
        times, values = _rr_series(rng, 200 * EPOCH_S)
        epoch = np.floor(times / EPOCH_S).astype(int)
        empty = rng.random(200) < 0.15
        empty[[0, 199]] = True
        empty[60:75] = True
        keep = ~empty[epoch]
        self._assert_same(times[keep], values[keep], 200, width)

    def test_night_without_intervals(self):
        empty = np.array([])
        for width in (1, 9, 119):
            self._assert_same(empty, empty, 12, width)

    def test_sample_entropy_of_a_960_epoch_night(self, night_960):
        times, values = night_960
        lo, hi = _night_bounds(times, 9)
        want = np.array([_window_sampen_entry(values[a:b])["rr_sampen"]
                         for a, b in zip(lo, hi)])
        np.testing.assert_array_equal(
            fr.nonlinear_features(values, lo, hi)["rr_sampen"], want)


def _one_freq(times, values, t0, t1) -> dict:
    """The RR spectrum's entries for the single window [t0, t1)."""
    return {k: col[0] for k, col in fr.rr_freq_features(
        times, values, [t0], [t1]).items()}


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
        out = _one_freq(times, values, 0.0, 270.0)
        # reproduce the windowed series the feature works on, from the
        # intervals starting inside the window
        grid_t = np.arange(0.0, 270.0, 0.25)
        inside = times < 270.0
        y = np.interp(grid_t, times[inside], values[inside])
        y = (y - np.mean(y)) * np.hanning(len(y))
        assert out["rrf_total_power"] == pytest.approx(np.mean(y ** 2), rel=1e-6)

    def test_planted_lf_oscillation_dominates(self):
        t = np.arange(0.5, 270.0, 0.9)
        values = 0.9 + 0.05 * np.sin(2 * np.pi * 0.1 * t)
        out = _one_freq(t, values, 0.0, 270.0)
        assert out["rrf_lf_peak_freq"] == pytest.approx(0.1, abs=1.0 / 270.0)
        assert out["rrf_lf_power"] > out["rrf_hf_power"]
        assert out["rrf_lf_norm"] > 0.9
        assert out["rrf_lf_norm"] + out["rrf_hf_norm"] == pytest.approx(1.0)

    def test_planted_hf_oscillation(self):
        t = np.arange(0.5, 270.0, 0.9)
        values = 0.9 + 0.05 * np.sin(2 * np.pi * 0.25 * t)
        out = _one_freq(t, values, 0.0, 270.0)
        assert out["rrf_hf_peak_freq"] == pytest.approx(0.25, abs=1.0 / 270.0)
        assert out["rrf_hf_total_ratio"] > 0.8
        assert out["rrf_lf_hf_ratio"] < 0.2

    def test_band_sums_are_consistent(self):
        rng = np.random.default_rng(4)
        times, values = self._series(rng)
        out = _one_freq(times, values, 0.0, 270.0)
        assert out["rrf_hf_total_ratio"] == pytest.approx(
            out["rrf_hf_power"] / out["rrf_total_power"])
        assert out["rrf_lf_total_ratio"] == pytest.approx(
            out["rrf_lf_power"] / out["rrf_total_power"])
        assert 0.0 <= out["rrf_spec_entropy"] <= 1.0
        assert 0.0 <= out["rrf_spec_flatness"] <= 1.0
        assert out["rrf_sef95"] >= out["rrf_median_freq"]

    def test_too_few_values_rejected(self):
        out = _one_freq(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 0.0, 60.0)
        assert all(math.isnan(v) for v in out.values())

    def test_sparse_coverage_rejected(self):
        # all intervals bunched into the first quarter of the window
        t = np.arange(0.5, 20.0, 0.9)
        out = _one_freq(t, np.full(len(t), 0.9), 0.0, 270.0)
        assert all(math.isnan(v) for v in out.values())

    def test_short_window_rejected(self):
        t = np.arange(0.5, 25.0, 0.9)
        out = _one_freq(t, np.full(len(t), 0.9), 0.0, 25.0)
        assert all(math.isnan(v) for v in out.values())

    def test_edges_off_the_grid_rejected(self):
        t = np.arange(0.5, 270.0, 0.9)
        with pytest.raises(ValueError, match="4 Hz grid"):
            _one_freq(t, np.full(len(t), 0.9), 0.1, 270.0)
