"""Breathing-window statistics and cardiopulmonary coupling."""
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from scipy import signal as sps

from cardiosleep import features_resp as resp
from cardiosleep import features_rr as fr
from cardiosleep.errors import LengthMismatch
from cardiosleep.features_rr import RESAMPLE_HZ
from cardiosleep.preprocess import usable_intervals
from test_features_rr import (InsufficientData, _rr_series, _window_band_mask,
                              _window_hann_spectrum, _window_spectral_shape,
                              _window_zero_crossings, assert_columns_match,
                              night_edges)

FS = 25.0


def _breathing(freq=0.25, seconds=30.0, amp=1.0, fs=FS, phase=0.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


def _one_breath(x, fs) -> dict:
    """The breath features of the single window x."""
    return {k: col[0] for k, col in resp.breath_features(
        x, fs, [0], [len(x)]).items()}


class TestBreathFeatures:
    def test_names_count(self):
        assert len(resp.BREATH_NAMES) == 25

    def test_sinusoid_rates_and_amplitudes(self):
        x = _breathing(0.25, 30.0, 2.0)
        out = _one_breath(x, FS)
        # 7 full cycles of 4 s fit in 30 s (first peak at t = 1 s)
        assert out["peak_count"] == 8.0
        assert out["bb_mean"] == pytest.approx(4.0, rel=0.02)
        assert out["bb_sd"] == pytest.approx(0.0, abs=0.1)
        assert out["amp_mean"] == pytest.approx(2.0, rel=0.01)
        assert out["trough_mean"] == pytest.approx(-2.0, rel=0.01)
        assert out["dom_freq"] == pytest.approx(0.25, abs=1.0 / 30.0)
        assert out["ie_ratio_mean"] == pytest.approx(1.0, rel=0.05)
        assert out["sig_mean"] == pytest.approx(0.0, abs=0.1)
        # 7.5 cycles fit in the window, so the extra half-cycle leaves a
        # small negative skew
        assert out["sig_skew"] == pytest.approx(0.0, abs=0.15)

    def test_dominant_frequency_tracks_planted_rate(self):
        for freq in (0.15, 0.2, 0.3):
            out = _one_breath(_breathing(freq, 60.0), FS)
            assert out["dom_freq"] == pytest.approx(freq, abs=1.0 / 60.0)

    def test_constant_segment_yields_missing_breath_stats(self):
        out = _one_breath(np.full(750, 1.0), FS)
        assert out["peak_count"] == 0.0
        assert math.isnan(out["bb_mean"])
        assert math.isnan(out["sig_kurt"])
        assert out["sig_sd"] == 0.0

    def test_too_short_segment_gives_a_nan_row(self):
        out = _one_breath(np.array([1.0]), FS)
        assert all(math.isnan(v) for v in out.values())

    def test_spectral_total_matches_windowed_energy(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=750)
        out = _one_breath(x, FS)
        y = (x - np.mean(x)) * np.hanning(len(x))
        assert out["total_energy"] == pytest.approx(np.mean(y ** 2), rel=1e-6)


# --- the loop-based breath pairing and bandwidth as exact oracles ----------

def _loop_ie_ratio_mean(peaks, troughs, fs):
    """The per-peak trough search of ``breath_features``, kept verbatim as
    the oracle of its inhale/exhale ratio."""
    ratios = []
    for p in peaks:
        prev = troughs[troughs < p]
        nxt = troughs[troughs > p]
        if len(prev) and len(nxt):
            inhale = (p - prev[-1]) / fs
            exhale = (nxt[0] - p) / fs
            if exhale > 0:
                ratios.append(inhale / exhale)
    return float(np.mean(ratios)) if ratios else math.nan


def _loop_half_power_bandwidth(freqs: np.ndarray, p: np.ndarray, k: int) -> float:
    """The two-walk version of ``_half_power_bandwidth``, kept verbatim as
    its oracle."""
    half = p[k] / 2.0
    lo = k
    while lo > 0 and p[lo - 1] >= half:
        lo -= 1
    hi = k
    while hi < len(p) - 1 and p[hi + 1] >= half:
        hi += 1
    return float(freqs[hi] - freqs[lo])


class TestMatchesLoopCode:
    def test_breath_pairing_on_random_windows(self):
        rng = np.random.default_rng(21)
        first_peak = last_peak = 0
        for _ in range(300):
            seconds = rng.uniform(8.0, 150.0)
            x = (_breathing(rng.uniform(0.1, 0.5), seconds, phase=rng.uniform(0, 7))
                 + rng.normal(0, rng.uniform(0.01, 0.4), int(seconds * FS)))
            peaks, troughs = resp._detect_breaths(x, FS)
            want = (_loop_ie_ratio_mean(peaks, troughs, FS)
                    if len(peaks) >= 1 and len(troughs) >= 2 else math.nan)
            got = _one_breath(x, FS)["ie_ratio_mean"]
            np.testing.assert_allclose(got, want, rtol=1e-12)
            if len(peaks) and len(troughs):
                first_peak += peaks[0] < troughs[0]
                last_peak += peaks[-1] > troughs[-1]
        # windows with a peak before the first trough and after the last
        assert first_peak and last_peak

    def test_breath_pairing_with_no_peak_between_troughs(self):
        # peaks at 1 s and 7 s, troughs at 3 s and 5 s with a shallow bump
        # between them: two troughs, but no peak has one on both sides
        t = np.arange(200) / FS
        x = np.interp(t, [0, 1, 3, 4, 5, 7, 8], [0, 1, -1, -0.85, -1, 1, 0])
        peaks, troughs = resp._detect_breaths(x, FS)
        assert list(peaks) == [25, 175] and list(troughs) == [75, 125]
        assert math.isnan(_loop_ie_ratio_mean(peaks, troughs, FS))
        assert math.isnan(_one_breath(x, FS)["ie_ratio_mean"])

    def test_second_peak_on_random_spectra(self):
        # quantised spectra have flat tops, which find_peaks centres
        rng = np.random.default_rng(23)
        for n in range(2, 60):
            freqs = np.arange(n) * 0.05
            P = np.vstack([rng.exponential(size=(20, n)),
                           np.round(rng.random((20, n)) * 3), np.zeros((1, n))])
            dom = np.argmax(P, axis=1)
            f2, p2 = resp._second_peak(freqs, P, dom)
            for r, p in enumerate(P):
                want = _window_second_peak(freqs, p, dom[r])
                np.testing.assert_array_equal((f2[r], p2[r]), want)

    def test_half_power_bandwidth_on_random_spectra(self):
        rng = np.random.default_rng(22)
        for n in range(1, 60):
            freqs = np.arange(n) * 0.05
            for p in (rng.exponential(size=n), np.round(rng.random(n) * 4),
                      np.zeros(n)):
                # every bin as the peak: bin 0, the last bin and ties
                for k in range(n):
                    got = resp._half_power_bandwidth(freqs, p[None],
                                                     np.array([k]))
                    assert got[0] == _loop_half_power_bandwidth(freqs, p, k)


# --- the per-window breath features as the oracle of the night's ----------

def _window_detect_breaths(x: np.ndarray, fs: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Peak and trough sample indices of a breathing segment."""
    ptp = np.ptp(x)
    if ptp <= 0:
        return np.array([], dtype=int), np.array([], dtype=int)
    dist = max(1, int(round(resp.MIN_BREATH_SPACING_S * fs)))
    prom = resp.PROMINENCE_FRAC * ptp
    peaks, _ = sps.find_peaks(x, distance=dist, prominence=prom)
    troughs, _ = sps.find_peaks(-x, distance=dist, prominence=prom)
    return peaks, troughs


def _window_breath_features(segment: np.ndarray, sample_rate_hz: float) -> dict:
    """25 statistics of one breathing window (15 time-domain, 10 spectral)."""
    x = np.asarray(segment, dtype=float)
    fs = sample_rate_hz
    if len(x) < 2:
        raise InsufficientData("segment too short")
    out = dict.fromkeys(resp.BREATH_NAMES, np.nan)

    mean = float(np.mean(x))
    sd = float(np.std(x))
    out["sig_mean"] = mean
    out["sig_sd"] = sd
    out["sig_range"] = float(np.ptp(x))
    centered = x - mean
    if sd > 0:
        m2 = sd * sd
        out["sig_kurt"] = float(np.mean(centered ** 4) / m2 ** 2 - 3.0)
        out["sig_skew"] = float(np.mean(centered ** 3) / sd ** 3)
        out["sig_zcr"] = _window_zero_crossings(centered) / (len(x) / fs)

    peaks, troughs = _window_detect_breaths(x, fs)
    out["peak_count"] = float(len(peaks))
    if len(peaks) >= 2:
        bb = np.diff(peaks) / fs
        out["bb_mean"] = float(np.mean(bb))
        out["bb_sd"] = float(np.std(bb))
        out["amp_mean"] = float(np.mean(x[peaks]))
        out["amp_sd"] = float(np.std(x[peaks]))
        if len(bb) >= 2:
            out["bb_succ_sd"] = float(np.std(np.diff(bb)))
    if len(troughs) >= 1:
        out["trough_mean"] = float(np.mean(x[troughs]))
        out["trough_sd"] = float(np.std(x[troughs])) if len(troughs) >= 2 else 0.0
    if len(peaks) >= 1 and len(troughs) >= 2:
        # each peak between two troughs, with the nearest trough on each side
        before = np.searchsorted(troughs, peaks, side="left")
        after = np.searchsorted(troughs, peaks, side="right")
        paired = (before > 0) & (after < len(troughs))
        if np.any(paired):
            mid = peaks[paired]
            inhale = (mid - troughs[before[paired] - 1]) / fs
            exhale = (troughs[after[paired]] - mid) / fs
            out["ie_ratio_mean"] = float(np.mean(inhale / exhale))

    # spectral block
    freqs, p = _window_hann_spectrum(x, fs)
    total = float(np.sum(p))
    out["total_energy"] = total
    if total > 1e-15 and len(p) > 2:
        q = p[1:]
        fq = freqs[1:]
        k = int(np.argmax(q))
        out["dom_freq"] = float(fq[k])
        out["dom_power"] = float(q[k])
        out["dom_total_ratio"] = float(q[k] / total)
        out["band_01_04"] = float(np.sum(p[_window_band_mask(freqs, 0.1, 0.4)]))
        _, out["spec_entropy"], out["spec_centroid"] = _window_spectral_shape(
            freqs, p)
        out["dom_bandwidth"] = _window_half_power_bandwidth(fq, q, k)
        f2, p2 = _window_second_peak(fq, q, k)
        out["peak2_freq"] = f2
        out["peak2_power"] = p2
    return out


def _window_half_power_bandwidth(freqs: np.ndarray, p: np.ndarray,
                                 k: int) -> float:
    """Width of the run of bins around peak bin k with at least half its
    power; p is a power spectrum, so bin k itself is never below half."""
    edges = np.concatenate(([-1], np.flatnonzero(p < p[k] / 2.0), [len(p)]))
    j = np.searchsorted(edges, k)
    return float(freqs[edges[j] - 1] - freqs[edges[j - 1] + 1])


def _window_second_peak(freqs: np.ndarray, p: np.ndarray,
                        dom: int) -> tuple[float, float]:
    locs, _ = sps.find_peaks(p)
    locs = locs[np.abs(locs - dom) > 1]
    if len(locs) == 0:
        return np.nan, np.nan
    k = locs[np.argmax(p[locs])]
    return float(freqs[k]), float(p[k])


def _breath_window_columns(fn, samples, fs, lo, hi) -> dict:
    """A per-window breath extractor's columns over the windows
    samples[lo:hi], NaN rows where it raises ``InsufficientData``."""
    rows = []
    for a, b in zip(lo, hi):
        try:
            rows.append(fn(samples[a:b], fs))
        except InsufficientData:
            rows.append(dict.fromkeys(resp.BREATH_NAMES, np.nan))
    return {k: np.array([r[k] for r in rows]) for k in resp.BREATH_NAMES}


def _assert_breath_matches(samples, fs, lo, hi):
    """Every entry equals the oracle's bit for bit but the breath-cycle
    means and SDs, summed over zero-padded rows in another order, and the
    third and fourth moments, which take cubes and fourth powers by
    multiplication."""
    samples = np.asarray(samples, dtype=float)
    assert_columns_match(
        resp.breath_features(samples, fs, lo, hi),
        _breath_window_columns(_window_breath_features, samples, fs, lo, hi),
        exact=set(resp.BREATH_NAMES) - {
            "bb_mean", "bb_sd", "amp_mean", "amp_sd", "trough_mean",
            "trough_sd", "ie_ratio_mean", "bb_succ_sd", "sig_skew", "sig_kurt"})


def _trace_bounds(n_samples, fs, t0, t1):
    """Index bounds of the samples whose timestamps lie in [t0, t1)."""
    lo = np.ceil(t0 * fs - 1e-9).astype(int)
    hi = np.minimum(np.ceil(t1 * fs - 1e-9).astype(int), n_samples)
    return lo, hi


class TestBreathMatchesWindowOracle:
    @pytest.mark.parametrize("channel", ["breath_chest", "breath_abdomen"])
    @pytest.mark.parametrize("width", [1, 9])
    def test_windows_of_a_960_epoch_night(self, channel, width,
                                          night_960_subject):
        trace = getattr(night_960_subject, channel)
        fs = trace.sample_rate_hz
        _assert_breath_matches(trace.samples, fs, *_trace_bounds(
            len(trace.samples), fs, *night_edges(width)))

    def test_ten_hertz_belt(self, night_960_subject):
        x = sps.resample_poly(night_960_subject.breath_chest.samples, 2, 5)
        _assert_breath_matches(x, 10.0, *_trace_bounds(
            len(x), 10.0, *night_edges(1)))

    def test_row_blocks_bound_the_traced_peak(self, night_960_subject):
        trace = night_960_subject.breath_chest
        fs = trace.sample_rate_hz
        lo, hi = _trace_bounds(len(trace.samples), fs, *night_edges(1))

        def peak(copies):
            tracemalloc.start()
            try:
                resp.breath_features(trace.samples, fs, np.tile(lo, copies),
                                     np.tile(hi, copies))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(8) < 2 * peak(1)

    def test_constant_flat_short_and_breathless_windows(self):
        rng = np.random.default_rng(41)
        windows = [np.zeros(750), np.full(750, 2.5), np.full(751, -1.0),
                   np.linspace(-1, 1, 750),            # no peak, no trough
                   _breathing(0.05, 8.0),              # half a breath
                   [], [1.0], [1.0, 2.0], [2.0, 1.0, 2.0], np.zeros(3),
                   rng.normal(size=4), rng.normal(size=5)]
        windows += [_breathing(rng.uniform(0.1, 0.5), 30.0,
                               phase=rng.uniform(0, 7))
                    + rng.normal(0, rng.uniform(0.01, 0.5), 750)
                    for _ in range(40)]
        windows += [rng.normal(size=int(n)) for n in rng.integers(6, 2000, 40)]
        lengths = np.array([len(w) for w in windows], dtype=int)
        hi = np.cumsum(lengths)
        _assert_breath_matches(np.concatenate(windows), FS, hi - lengths, hi)


def _assert_extrema_match(X: np.ndarray, fs: float = FS) -> None:
    """``_row_extrema`` of a block against the per-window oracle, row by
    row, for peaks and troughs."""
    for k, (idx, mask, count) in enumerate(resp._row_extrema(X, fs)):
        for r, x in enumerate(X):
            want = _window_detect_breaths(x, fs)[k]
            assert count[r] == len(want)
            np.testing.assert_array_equal(idx[r][mask[r]], want)


def _smooth_rows(rng, rows, n):
    """Rows of low-passed noise: many local extrema, a few breaths each."""
    return sps.sosfiltfilt(sps.butter(2, 0.5, fs=FS, output="sos"),
                           rng.normal(size=(rows, n)), axis=1)


class TestBreathDetectionInBlocks:
    """One ``find_peaks`` call per row block against the per-window calls."""

    def test_smooth_noise_rows(self):
        rng = np.random.default_rng(43)
        for n in (12, 40, 750, 2001):
            _assert_extrema_match(_smooth_rows(rng, 30, n))
        _assert_extrema_match(rng.normal(size=(30, 3)))

    def test_equal_extrema_closer_than_the_distance(self, monkeypatch):
        # each row's two highest maxima (and two lowest minima) are equal
        # and 2-37 samples apart, closer than the 38-sample distance, so
        # which survives depends on the order find_peaks visits them in
        rng = np.random.default_rng(44)
        X = _smooth_rows(rng, 60, 750)
        for x in X:
            for level in (x.max() + 1.0, x.min() - 1.0):
                i = rng.integers(5, 700)
                x[[i, i + rng.integers(2, 38)]] = level
        # quantised rows: flat tops and bottoms of equal level everywhere
        X = np.vstack([X, np.round(_smooth_rows(rng, 30, 750) * 4)])
        calls = []
        detect = resp._detect_breaths
        monkeypatch.setattr(resp, "_detect_breaths",
                            lambda x, fs: calls.append(1) or detect(x, fs))
        _assert_extrema_match(X)
        assert len(calls) >= 2 * 60

    def test_plateaus_touching_a_window_edge(self):
        rng = np.random.default_rng(45)
        X = _smooth_rows(rng, 40, 300)
        for r, x in enumerate(X):
            run = rng.integers(1, 6)
            level = x.max() + 1.0 if r % 2 else x.min() - 1.0
            if r % 4 < 2:
                x[:run] = level
            else:
                x[-run:] = level
        _assert_extrema_match(X)

    def test_flat_and_two_sample_rows(self):
        rng = np.random.default_rng(46)
        X = _smooth_rows(rng, 6, 200)
        X[[1, 4]] = 0.0
        X[2] = 2.5
        _assert_extrema_match(X)
        assert not resp._row_extrema(X, FS)[0][2][[1, 2, 4]].any()
        _assert_extrema_match(rng.normal(size=(8, 2)))
        _assert_extrema_match(np.array([[1.0, 1.0], [0.0, 1.0], [2.0, 1.0]]))

    def test_breath_features_of_such_windows(self):
        rng = np.random.default_rng(47)
        X = _smooth_rows(rng, 20, 750)
        for x in X[:10]:
            i = rng.integers(5, 700)
            x[[i, i + rng.integers(2, 38)]] = x.max() + 1.0
        X[10:15] = np.round(X[10:15] * 4)
        X[15, :4] = X[15].max() + 1.0
        X[16] = 0.0
        windows = list(X) + [np.zeros(2), np.array([1.0, -1.0])]
        lengths = np.array([len(w) for w in windows], dtype=int)
        hi = np.cumsum(lengths)
        _assert_breath_matches(np.concatenate(windows), FS, hi - lengths, hi)


def _scan_tied_maxima(flat: np.ndarray, dist: int) -> np.ndarray:
    """``_tied_maxima`` as a run-length scan of its own, the oracle of the
    ``find_peaks`` version: a run of equal samples above both neighbouring
    runs is a maximum at its middle, and a NaN is a run of its own that
    never compares above anything."""
    edge = 1 + np.flatnonzero(flat[1:] != flat[:-1])
    first = np.concatenate([[0], edge])
    last = np.concatenate([edge - 1, [len(flat) - 1]])
    level = flat[first]
    top = 1 + np.flatnonzero((level[1:-1] > level[:-2])
                             & (level[1:-1] > level[2:]))
    pos, height = (first[top] + last[top]) // 2, level[top]
    order = np.lexsort((pos, height))
    pos, height = pos[order], height[order]
    close = (height[1:] == height[:-1]) & (pos[1:] - pos[:-1] < dist)
    return pos[1:][close]


def _gapped(X: np.ndarray, gap: int) -> np.ndarray:
    """The rows of X laid end to end, each followed by ``gap`` NaN samples,
    as ``_row_extrema`` lays out a block."""
    flat = np.full((len(X), X.shape[1] + gap), np.nan)
    flat[:, :X.shape[1]] = X
    return flat.ravel()


class TestTiedMaximaMatchesScan:
    """``_tied_maxima`` against its run-length scan, position for position."""

    @staticmethod
    def _assert_match(flat: np.ndarray, dist: int) -> np.ndarray:
        got = resp._tied_maxima(flat, dist)
        np.testing.assert_array_equal(got, _scan_tied_maxima(flat, dist))
        return got

    def test_plateaus_touching_a_gap_or_an_end(self):
        rng = np.random.default_rng(48)
        X = _smooth_rows(rng, 40, 300)
        for r, x in enumerate(X):
            run = rng.integers(1, 6)
            level = x.max() + 1.0
            if r % 3 == 0:
                x[:run] = level
            elif r % 3 == 1:
                x[-run:] = level
            i = rng.integers(10, 280)
            x[[i, i + rng.integers(2, 10)]] = level
        X[7] = np.nan
        found = 0
        for dist in (1, 3, 12, 38):
            for flat in (_gapped(X, dist), X.ravel(), X[0], X[1]):
                found += len(self._assert_match(flat, dist))
        assert found

    def test_quantised_rows(self):
        rng = np.random.default_rng(49)
        X = np.round(_smooth_rows(rng, 30, 750) * 4)
        assert len(self._assert_match(_gapped(np.vstack([X, -X]), 38), 38))
        for x in X[:5]:
            self._assert_match(x, 38)

    def test_all_nan_and_short_rows(self):
        for n in (1, 2, 3, 40):
            self._assert_match(np.full(n, np.nan), 5)
        values = (0.0, 1.0, 2.0, np.nan)
        for n in (1, 2, 3):
            X = np.array(np.meshgrid(*[values] * n)).reshape(n, -1).T
            for dist in (1, 2, 4):
                for flat in (_gapped(X, dist), X.ravel()):
                    self._assert_match(flat, dist)
                for x in X:
                    self._assert_match(x, dist)


def _row_moments(V: np.ndarray, mask: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``np.mean`` and ``np.std`` over its masked cells, bit for
    bit, NaN for rows with none. Rows with the same cell count are reduced
    together, their cells moved to the front in order."""
    count = np.count_nonzero(mask, axis=1)
    V = np.take_along_axis(V, np.argsort(~mask, axis=1, kind="stable"), 1)
    mean, sd = np.full(len(V), np.nan), np.full(len(V), np.nan)
    for c in np.unique(count[count > 0]):
        r = np.flatnonzero(count == c)
        W = V[r, :c]
        # np.mean and np.std's own steps, without their wrappers
        m = np.sum(W, axis=1, keepdims=True) / c
        D = W - m
        mean[r], sd[r] = m[:, 0], np.sqrt(np.sum(D * D, axis=1) / c)
    return mean, sd


class TestMomentsMatchRowMoments:
    """``features_rr._moments`` over masked cells against the breath
    features' former per-count reduction, kept above as its oracle: within
    the RR families' tolerance, NaN for the same rows."""

    @staticmethod
    def _assert_match(V: np.ndarray, mask: np.ndarray) -> None:
        with np.errstate(invalid="ignore"):
            mean, sd, _ = fr._moments(V, mask, np.count_nonzero(mask, axis=1))
        want_mean, want_sd = _row_moments(V, mask)
        assert_columns_match({"mean": mean, "sd": sd},
                             {"mean": want_mean, "sd": want_sd})

    def test_prefix_masks(self):
        rng = np.random.default_rng(50)
        for n in (1, 2, 3, 17, 80):
            V = rng.normal(3.0, rng.uniform(0.01, 5.0, (60, 1)), size=(60, n))
            count = rng.integers(0, n + 1, 60)
            count[:2] = 0, n
            self._assert_match(V, np.arange(n) < count[:, None])

    def test_scattered_masks(self):
        rng = np.random.default_rng(51)
        for n in (1, 4, 33):
            V = rng.exponential(size=(80, n)) + rng.integers(0, 3, (80, 1))
            mask = rng.random((80, n)) < rng.random((80, 1))
            mask[0] = False
            self._assert_match(V, mask)

    def test_no_cells_and_non_finite_cells_outside_the_mask(self):
        rng = np.random.default_rng(52)
        V = rng.normal(size=(40, 12))
        mask = rng.random((40, 12)) < 0.5
        mask[:4] = False
        V[~mask & (rng.random((40, 12)) < 0.5)] = np.inf
        V[~mask & (rng.random((40, 12)) < 0.3)] = -np.inf
        V[~mask & (rng.random((40, 12)) < 0.3)] = np.nan
        self._assert_match(V, mask)
        self._assert_match(np.zeros((3, 0)), np.zeros((3, 0), dtype=bool))

    def test_breath_cells_of_smooth_rows(self):
        # the masks and values _breath_cycles reduces: peak levels, breath
        # intervals and their steps, and inhale / exhale of paired peaks,
        # whose unpaired cells hold inf and NaN
        rng = np.random.default_rng(53)
        X = np.vstack([_smooth_rows(rng, 40, 750), np.zeros((2, 750))])
        (peaks, pmask, npk), (troughs, tmask, ntr) = resp._row_extrema(X, FS)
        rows = np.arange(len(X))[:, None]
        steps, bmask = fr._diffs(peaks, pmask)
        bb = steps / FS
        before = np.count_nonzero(
            tmask[:, None, :] & (troughs[:, None, :] < peaks[:, :, None]), axis=2)
        paired = pmask & (before > 0) & (before < ntr[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = ((peaks - np.take_along_axis(
                troughs, np.maximum(before - 1, 0), 1))
                / (np.take_along_axis(
                    troughs, np.minimum(before, troughs.shape[1] - 1), 1)
                   - peaks))
        assert not np.all(np.isfinite(ratio[~paired]))
        for V, mask in ((X[rows, peaks], pmask), (X[rows, troughs], tmask),
                        (bb, bmask), fr._diffs(bb, bmask),
                        (ratio, paired)):
            self._assert_match(V, mask)


class TestCpcSpectrum:
    """The coupling estimator's properties on its per-window definition, and
    the whole-night band features of one window."""

    def _rr(self, seconds, freq=0.0, depth=0.0, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(0.45, seconds, 0.9)
        v = 0.9 + depth * np.sin(2 * np.pi * freq * t)
        if noise:
            v = v + rng.normal(0, noise, len(t))
        return t, v

    def test_self_coherence_is_one(self):
        # feed the RR series itself as the "breathing" channel
        seconds = 270.0
        t, v = self._rr(seconds, freq=0.1, depth=0.05, noise=0.01)
        grid_t = np.arange(0.0, seconds, 1.0 / FS)
        breath = np.interp(grid_t, t, v)
        spec = _window_cpc_spectrum(t, v, breath, FS, 0.0, seconds)
        strong = spec.cpc_index > 0.01 * np.max(spec.cpc_index)
        assert np.all(spec.coherence_sq[strong] > 0.98)

    def test_independent_noise_has_low_coherence(self):
        seconds = 270.0
        rng = np.random.default_rng(9)
        t, v = self._rr(seconds, noise=0.05, seed=1)
        breath = rng.normal(size=int(seconds * FS))
        spec = _window_cpc_spectrum(t, v, breath, FS, 0.0, seconds)
        assert np.mean(spec.coherence_sq) < 0.35

    def test_shared_oscillation_concentrates_in_its_band(self):
        seconds = 270.0
        rng = np.random.default_rng(10)
        t = np.arange(0.45, seconds, 0.9)
        common = np.sin(2 * np.pi * 0.3 * t)
        v = 0.9 + 0.05 * common + rng.normal(0, 0.005, len(t))
        grid_t = np.arange(0.0, seconds, 1.0 / FS)
        breath = (np.sin(2 * np.pi * 0.3 * grid_t)
                  + rng.normal(0, 0.05, len(grid_t)))
        feats = _one_cpc(t, v, breath, FS, 0.0, seconds)
        assert feats["cpc_ratio_hf"] > 0.9
        assert feats["cpc_sum_hf"] > feats["cpc_sum_lf"]

    def test_spectrum_limited_to_half_hertz(self):
        seconds = 270.0
        t, v = self._rr(seconds, noise=0.02)
        breath = np.random.default_rng(0).normal(size=int(seconds * FS))
        spec = _window_cpc_spectrum(t, v, breath, FS, 0.0, seconds)
        assert spec.freqs_hz[-1] <= 0.5

    def test_constant_breathing_rejected(self):
        t, v = self._rr(270.0, noise=0.02)
        feats = _one_cpc(t, v, np.full(int(270 * FS), 1.0), FS, 0.0, 270.0)
        assert all(math.isnan(x) for x in feats.values())

    def test_no_intervals_or_no_windows(self):
        belt = np.sin(2 * np.pi * 0.25 * np.arange(int(120 * FS)) / FS)
        empty = np.array([])
        got = resp.cpc_spectrum(empty, empty, belt, FS, [0.0], [120.0])
        assert all(np.isnan(col).all() and len(col) == 1 for col in got.values())
        got = resp.cpc_spectrum(*self._rr(120.0), belt, FS, empty, empty)
        assert all(len(col) == 0 for col in got.values())

    def test_too_few_rr_rejected(self):
        feats = _one_cpc(np.array([1.0, 2.0]), np.array([0.9, 0.9]),
                         np.random.default_rng(0).normal(size=int(270 * FS)),
                         FS, 0.0, 270.0)
        assert all(math.isnan(x) for x in feats.values())

    def test_edges_off_the_grid_rejected(self):
        t, v = self._rr(270.0, noise=0.02)
        with pytest.raises(ValueError, match="4 Hz grid"):
            _one_cpc(t, v, np.zeros(int(270 * FS)), FS, 0.1, 270.0)


def _one_cpc(rr_times, rr_values, samples, fs, t0, t1) -> dict:
    """The coupling features of the single window [t0, t1)."""
    return {k: col[0] for k, col in resp.cpc_spectrum(
        rr_times, rr_values, samples, fs, [t0], [t1]).items()}


# --- the per-window coupling spectrum as the oracle of the night's --------

CpcSpectrum = namedtuple("CpcSpectrum", "freqs_hz cpc_index coherence_sq")


class ZeroTotal(Exception):
    """The window's coupling index is zero in every bin."""


def _window_cpc_spectrum(rr_times: np.ndarray, rr_values: np.ndarray,
                         breath_segment: np.ndarray, breath_rate_hz: float,
                         t0: float, t1: float) -> CpcSpectrum:
    """Cross-spectral-power x squared-coherence index between the RR series
    and the breathing signal over a shared window, each brought to the 4 Hz
    grid ``t0 + k / 4`` and normalized to unit variance, then Welch-estimated
    over 8 half-overlapping periodic-Hann segments."""
    if t1 <= t0:
        raise LengthMismatch("empty window")
    n_breath_expected = (t1 - t0) * breath_rate_hz
    if abs(len(breath_segment) - n_breath_expected) > breath_rate_hz:
        raise LengthMismatch(
            f"breathing segment covers {len(breath_segment) / breath_rate_hz:.1f} s, "
            f"window is {t1 - t0:.1f} s")
    if len(rr_values) < 4:
        raise InsufficientData("too few RR intervals for coupling")

    grid_t = np.arange(t0, t1, 1.0 / RESAMPLE_HZ)
    x = np.interp(grid_t, rr_times, rr_values)
    bt = t0 + np.arange(len(breath_segment)) / breath_rate_hz
    y = np.interp(grid_t, bt, np.asarray(breath_segment, dtype=float))

    n = len(grid_t)
    nperseg = int(n / (resp.CPC_SEGMENTS / 2 + 0.5))
    if nperseg < 8:
        raise InsufficientData("window too short for 8 Welch sub-segments")
    scaled = []
    for name, s in (("rr", x), ("breathing", y)):
        sd = np.std(s)
        if sd == 0:
            raise InsufficientData(f"{name} signal is constant in the window")
        scaled.append((s - np.mean(s)) / sd)

    step = nperseg - nperseg // 2
    starts = step * np.arange((n - nperseg // 2) // step)
    segments = np.stack(scaled)[:, starts[:, None] + np.arange(nperseg)]
    segments -= segments.mean(axis=-1, keepdims=True)
    window = sps.get_window("hann", nperseg)
    scale = 1.0 / (RESAMPLE_HZ * np.sum(window * window))
    f = np.fft.rfftfreq(nperseg, 1.0 / RESAMPLE_HZ)
    f = f[f <= 0.5]
    fx, fy = np.fft.rfft(segments * window, axis=-1)[..., :len(f)]
    pxy = np.mean(np.conj(fx) * fy, axis=0) * scale
    pxx = np.mean(np.abs(fx) ** 2, axis=0) * scale
    pyy = np.mean(np.abs(fy) ** 2, axis=0) * scale
    for p in (pxy, pxx, pyy):
        p[1:] *= 2

    cross_power = np.abs(pxy) ** 2
    denom = pxx * pyy
    coh2 = np.zeros_like(cross_power)
    nz = denom > 0
    coh2[nz] = np.clip(cross_power[nz] / denom[nz], 0.0, 1.0)
    cpc = cross_power * coh2
    return CpcSpectrum(freqs_hz=f, cpc_index=cpc, coherence_sq=coh2)


def _window_cpc_band_features(spectrum: CpcSpectrum) -> dict:
    """Band sums of the coupling index and their ratios to the total."""
    f = spectrum.freqs_hz
    c = spectrum.cpc_index
    total = float(np.sum(c))
    sums = {}
    for name, (lo, hi) in (("vlf", resp.CPC_VLF), ("lf", resp.CPC_LF),
                           ("hf", resp.CPC_HF)):
        sums[name] = float(np.sum(c[_window_band_mask(f, lo, hi)]))
    out = {f"cpc_sum_{k}": v for k, v in sums.items()}
    if total <= 0:
        raise ZeroTotal("all-zero coupling spectrum")
    for k, v in sums.items():
        out[f"cpc_ratio_{k}"] = v / total
    return out


def _cpc_window_columns(times, values, samples, fs, t0, t1) -> dict:
    """The per-window coupling features over the windows [t0, t1) of a
    night: the RR intervals starting inside each and the belt samples inside
    it; NaN rows where the oracle raises."""
    lo, hi = np.searchsorted(times, t0), np.searchsorted(times, t1)
    blo, bhi = _trace_bounds(len(samples), fs, t0, t1)
    rows = []
    for a, b, c, d, s, e in zip(lo, hi, blo, bhi, t0, t1):
        try:
            rows.append(_window_cpc_band_features(_window_cpc_spectrum(
                times[a:b], values[a:b], samples[c:d], fs, s, e)))
        except (InsufficientData, ZeroTotal, LengthMismatch):
            rows.append(dict.fromkeys(resp.CPC_NAMES, np.nan))
    return {k: np.array([r[k] for r in rows]) for k in resp.CPC_NAMES}


def _scipy_cpc_spectrum(rr_times, rr_values, breath_segment, breath_rate_hz,
                        t0, t1):
    """Reference: the coupling spectrum from scipy's ``csd`` and two ``welch``
    calls, the estimator ``cpc_spectrum`` must reproduce."""
    if t1 <= t0:
        raise LengthMismatch("empty window")
    n_breath_expected = (t1 - t0) * breath_rate_hz
    if abs(len(breath_segment) - n_breath_expected) > breath_rate_hz:
        raise LengthMismatch("segment does not cover the window")
    if len(rr_values) < 4:
        raise InsufficientData("too few RR intervals for coupling")

    grid_t = np.arange(t0, t1, 1.0 / RESAMPLE_HZ)
    x = np.interp(grid_t, rr_times, rr_values)
    bt = t0 + np.arange(len(breath_segment)) / breath_rate_hz
    y = np.interp(grid_t, bt, np.asarray(breath_segment, dtype=float))

    n = len(grid_t)
    nperseg = int(n / (resp.CPC_SEGMENTS / 2 + 0.5))
    if nperseg < 8:
        raise InsufficientData("window too short")
    for s in (x, y):
        if np.std(s) == 0:
            raise InsufficientData("constant signal")
    x = (x - np.mean(x)) / np.std(x)
    y = (y - np.mean(y)) / np.std(y)

    kw = dict(fs=RESAMPLE_HZ, nperseg=nperseg, noverlap=nperseg // 2,
              window="hann", detrend="constant")
    f, pxy = sps.csd(x, y, **kw)
    _, pxx = sps.welch(x, **kw)
    _, pyy = sps.welch(y, **kw)

    cross_power = np.abs(pxy) ** 2
    denom = pxx * pyy
    coh2 = np.zeros_like(cross_power)
    nz = denom > 0
    coh2[nz] = np.clip(cross_power[nz] / denom[nz], 0.0, 1.0)
    cpc = cross_power * coh2

    keep = f <= 0.5
    return CpcSpectrum(freqs_hz=f[keep], cpc_index=cpc[keep],
                       coherence_sq=coh2[keep])


class TestCpcMatchesScipyReference:
    """The per-window coupling spectrum, the oracle of ``cpc_spectrum``,
    against the scipy ``csd``/``welch`` estimator, over the
    whole 9-epoch window (270 s, ``nperseg`` 240) and the clipped edge windows
    of 7 and 5 epochs (210 s and 150 s, ``nperseg`` 186 and 133)."""

    RTOL = 1e-12

    def _inputs(self, seconds, seed, t0=100.0):
        rng = np.random.default_rng(seed)
        t = t0 + np.cumsum(rng.uniform(0.7, 1.1, int(seconds / 0.7) + 2))
        t = t[t < t0 + seconds]
        v = (0.9 + 0.04 * np.sin(2 * np.pi * 0.25 * t)
             + rng.normal(0, 0.02, len(t)))
        bt = t0 + np.arange(int(seconds * FS)) / FS
        breath = (np.sin(2 * np.pi * 0.25 * bt + rng.uniform(0, 2 * np.pi))
                  + rng.normal(0, 0.3, len(bt)))
        return t, v, breath, FS, t0, t0 + seconds

    @pytest.mark.parametrize("seconds", [150.0, 210.0, 270.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_spectra_match(self, seconds, seed):
        args = self._inputs(seconds, seed)
        got = _window_cpc_spectrum(*args)
        ref = _scipy_cpc_spectrum(*args)
        np.testing.assert_array_equal(got.freqs_hz, ref.freqs_hz)
        for name in ("cpc_index", "coherence_sq"):
            g, r = getattr(got, name), getattr(ref, name)
            np.testing.assert_allclose(g, r, rtol=self.RTOL,
                                       atol=self.RTOL * np.max(np.abs(r)),
                                       err_msg=name)

    @pytest.mark.parametrize("case, error", [
        ("short_segment", LengthMismatch),
        ("constant_breathing", InsufficientData),
        ("too_few_rr", InsufficientData),
    ])
    def test_rejections_match(self, case, error):
        t, v, breath, fs, t0, t1 = self._inputs(270.0, 0)
        if case == "short_segment":
            breath = breath[:100]
        elif case == "constant_breathing":
            breath = np.ones_like(breath)
        else:
            t, v = t[:3], v[:3]
        args = (t, v, breath, fs, t0, t1)
        for fn in (_scipy_cpc_spectrum, _window_cpc_spectrum):
            with pytest.raises(Exception) as raised:
                fn(*args)
            assert type(raised.value) is error, fn.__name__


class TestCpcBandFeatures:
    """The band rule of the per-window oracle the whole-night features
    match."""

    def test_single_bin_per_band(self):
        spec = CpcSpectrum(freqs_hz=np.array([0.005, 0.05, 0.2]),
                           cpc_index=np.array([1.0, 2.0, 5.0]),
                           coherence_sq=np.ones(3))
        out = _window_cpc_band_features(spec)
        assert out["cpc_sum_vlf"] == 1.0
        assert out["cpc_sum_lf"] == 2.0
        assert out["cpc_sum_hf"] == 5.0
        assert out["cpc_ratio_hf"] == pytest.approx(5.0 / 8.0)

    def test_boundary_bin_goes_to_higher_band(self):
        spec = CpcSpectrum(freqs_hz=np.array([0.01, 0.1]),
                           cpc_index=np.array([3.0, 4.0]),
                           coherence_sq=np.ones(2))
        out = _window_cpc_band_features(spec)
        assert out["cpc_sum_vlf"] == 0.0
        assert out["cpc_sum_lf"] == 3.0
        assert out["cpc_sum_hf"] == 4.0

    def test_ratios_sum_to_one_when_bands_cover_spectrum(self):
        rng = np.random.default_rng(11)
        f = np.linspace(0.0, 0.399, 50)
        c = rng.uniform(0.1, 1.0, 50)
        out = _window_cpc_band_features(CpcSpectrum(f, c, np.ones(50)))
        total = out["cpc_ratio_vlf"] + out["cpc_ratio_lf"] + out["cpc_ratio_hf"]
        assert total == pytest.approx(1.0)

    def test_zero_spectrum_raises(self):
        spec = CpcSpectrum(np.array([0.1]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ZeroTotal):
            _window_cpc_band_features(spec)


class TestCpcMatchesWindowOracle:
    """``cpc_spectrum`` over a night's windows against the per-window
    oracle: rtol 1e-12 plus 1e-12 times the column's largest magnitude, the
    same NaN cells."""

    @staticmethod
    def _assert_same(times, values, samples, fs, t0, t1):
        t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
        assert_columns_match(
            resp.cpc_spectrum(times, values, samples, fs, t0, t1),
            _cpc_window_columns(times, values, samples, fs, t0, t1))

    @pytest.mark.parametrize("channel", ["breath_chest", "breath_abdomen"])
    @pytest.mark.parametrize("width", [1, 9])
    def test_windows_of_a_960_epoch_night(self, channel, width,
                                          night_960_subject):
        trace = getattr(night_960_subject, channel)
        self._assert_same(*usable_intervals(night_960_subject.rr),
                          trace.samples, trace.sample_rate_hz,
                          *night_edges(width))

    @pytest.mark.parametrize("rate", [10.0, 2.5])
    def test_belts_at_other_rates(self, rate, night_960_subject):
        # at 2.5 Hz a window's last sample lies 0.4 s before its end, so the
        # window holds it over its last grid point
        x = night_960_subject.breath_chest.samples
        belt = np.interp(np.arange(int(len(x) / 25.0 * rate)) / rate,
                         np.arange(len(x)) / 25.0, x)
        t0, t1 = night_edges(9, 200)
        self._assert_same(*usable_intervals(night_960_subject.rr), belt, rate,
                          t0, t1)

    def test_clipped_windows_gaps_and_constant_stretches(self):
        rng = np.random.default_rng(42)
        times, values = _rr_series(rng, 2400.0)
        # no intervals in [600, 900); a lone interval every 25 s in
        # [1800, 2100); a constant belt in [1200, 1500)
        lone = (times >= 1800) & (times < 2100)
        keep = ((times < 600) | (times >= 900)) & (~lone | (times % 25 < 0.9))
        times, values = times[keep], values[keep]
        bt = np.arange(int(2400 * FS)) / FS
        belt = np.sin(2 * np.pi * 0.25 * bt) + rng.normal(0, 0.3, len(bt))
        belt[(bt >= 1200) & (bt < 1500)] = 0.5
        for width in (1, 3, 9):
            self._assert_same(times, values, belt, FS, *night_edges(width, 80))

    def test_row_blocks_bound_the_traced_peak(self, night_960_subject):
        times, values = usable_intervals(night_960_subject.rr)
        trace = night_960_subject.breath_chest
        t0, t1 = night_edges(9)

        def peak(copies):
            tracemalloc.start()
            try:
                resp.cpc_spectrum(times, values, trace.samples,
                                  trace.sample_rate_hz, np.tile(t0, copies),
                                  np.tile(t1, copies))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(8) < 2 * peak(1)
