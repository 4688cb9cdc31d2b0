"""R-peak detection, RR cleaning, wavelet baseline, Butterworth low-pass."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cardiosleep import (blstm, pipeline, preprocess, registry, signal_io, synth,
                         wavelet)
from cardiosleep.errors import (CutoffAboveNyquist, FlatSignal, InvalidSeries,
                                SignalTooShort, TooFewPeaks)
from cardiosleep.types import RrSeries, SignalTrace, SubjectRecord


def _impulse_ecg(rr_s, fs=200.0, pad_s=1.0):
    """Unit impulses at cumulative RR times; crude but a fair QRS stand-in."""
    times = pad_s + np.concatenate([[0.0], np.cumsum(rr_s)])
    n = int((times[-1] + pad_s) * fs)
    x = np.zeros(n)
    x[np.round(times * fs).astype(int)] = 1.0
    return SignalTrace("ECG", fs, x), times


def _qrs_ecg(rr_s, fs=200.0, pad_s=1.0):
    """Mexican-hat pulses (~40 ms wide) at cumulative RR times; closer to a
    real QRS than a bare impulse, with enough in-band energy to survive
    additive noise."""
    times = pad_s + np.concatenate([[0.0], np.cumsum(rr_s)])
    n = int((times[-1] + pad_s) * fs)
    x = np.zeros(n)
    tt = np.arange(-8, 9) / fs
    pulse = (1 - (tt / 0.02) ** 2) * np.exp(-0.5 * (tt / 0.02) ** 2)
    for t in times:
        i = int(round(t * fs))
        x[i - 8:i + 9] += pulse
    return SignalTrace("ECG", fs, x), times


class TestDetectRPeaks:
    def test_regular_train_recovered_within_one_sample(self):
        rr = np.full(74, 0.8)  # 75 peaks over 60 s
        ecg, truth = _impulse_ecg(rr)
        peaks = preprocess.detect_r_peaks(ecg)
        assert len(peaks) == 75
        assert np.max(np.abs(peaks / 200.0 - truth)) <= 1.5 / 200.0

    def test_noisy_train_mostly_recovered(self):
        rng = np.random.default_rng(0)
        rr = np.clip(rng.normal(0.9, 0.05, 120), 0.5, 1.4)
        ecg, truth = _qrs_ecg(rr)
        noisy = ecg.with_samples(ecg.samples + rng.normal(0, 0.1, len(ecg.samples)))
        peaks = preprocess.detect_r_peaks(noisy) / 200.0
        # count detections within 40 ms of a true peak
        hits = sum(np.min(np.abs(peaks - t)) <= 0.040 for t in truth)
        assert hits / len(truth) >= 0.99

    @pytest.mark.parametrize("fs", [200.0, 250.0])
    @pytest.mark.parametrize("at_end", [False, True], ids=["start", "end"])
    @pytest.mark.parametrize("offset", range(13))
    def test_beat_at_either_end_kept_within_20_ms(self, offset, at_end, fs):
        # beats every 0.8 s, and one `offset` samples from the first or the
        # last sample with no other beat within 0.4 s of it
        n = int(60 * fs)
        edge = n - 1 - offset if at_end else offset
        beats = np.arange(int(0.5 * fs), n - int(0.5 * fs), int(0.8 * fs))
        beats = np.sort(np.append(beats[np.abs(beats - edge) > 0.4 * fs], edge))
        x = np.zeros(n)
        x[beats] = 1.0
        peaks = preprocess.detect_r_peaks(SignalTrace("ECG", fs, x))
        assert len(peaks) == len(beats)
        assert np.max(np.abs(peaks - beats)) <= 0.020 * fs

    def test_flat_signal_rejected(self):
        with pytest.raises(FlatSignal):
            preprocess.detect_r_peaks(SignalTrace("ECG", 200.0, np.ones(4000)))

    def test_short_signal_rejected(self):
        with pytest.raises(SignalTooShort):
            preprocess.detect_r_peaks(
                SignalTrace("ECG", 200.0, np.random.default_rng(1).normal(size=400)))

    def test_peaks_do_not_depend_on_amplitude_units(self):
        # the same night in mV, in uV and in V
        ecg = synth.generate_subject(seed=5, profile=synth.default_profile(),
                                     n_epochs=120).ecg
        peaks = preprocess.detect_r_peaks(ecg)
        assert len(peaks) > 120 * 30 * 0.5
        for scale in (1e3, 1e-3):
            np.testing.assert_array_equal(
                preprocess.detect_r_peaks(ecg.with_samples(ecg.samples * scale)),
                peaks)

    def test_refractory_suppresses_double_detections(self):
        rr = np.full(30, 1.0)
        ecg, _ = _impulse_ecg(rr)
        peaks = preprocess.detect_r_peaks(ecg)
        assert np.min(np.diff(peaks)) >= 0.3 * 200


class TestRrFromPeaks:
    def test_values_and_mask(self):
        peaks = np.array([0, 100, 200, 300])
        rr = preprocess.rr_from_peaks(peaks, 100.0)
        assert np.allclose(rr.intervals_s, 1.0)
        assert rr.valid_mask.all()

    def test_out_of_range_masked(self):
        # intervals 0.25 s, 2.5 s, 1.0 s; the first two fall outside [0.3, 2.0]
        peaks = np.array([0, 25, 275, 375], dtype=float)
        rr = preprocess.rr_from_peaks(peaks, 100.0)
        assert list(rr.valid_mask) == [False, False, True]

    def test_short_interior_run_interpolated(self):
        # middle interval 0.1 s sits between valid 1.0 s neighbors
        peaks = np.array([0, 100, 110, 210], dtype=float)
        rr = preprocess.rr_from_peaks(peaks, 100.0)
        assert list(rr.valid_mask) == [True, False, True]
        # linear interpolation between 1.0 and 1.0
        assert rr.intervals_s[1] == pytest.approx(1.0)

    def test_interpolation_is_linear_between_neighbors(self):
        times = [0.0, 0.8, 0.9, 1.0, 1.1, 2.3]
        peaks = np.round(np.array(times) * 1000)
        rr = preprocess.rr_from_peaks(peaks, 1000.0)
        # run of three 0.1 s intervals between 0.8 and 1.2
        expected = 0.8 + (1.2 - 0.8) * np.array([1, 2, 3]) / 4
        assert np.allclose(rr.intervals_s[1:4], expected)
        assert not rr.valid_mask[1:4].any()

    def test_edge_run_not_interpolated(self):
        peaks = np.array([0, 10, 110], dtype=float)  # leading 0.1 s interval
        rr = preprocess.rr_from_peaks(peaks, 100.0)
        assert rr.intervals_s[0] == pytest.approx(0.1)
        assert not rr.valid_mask[0]

    def test_long_run_left_alone(self):
        times = np.concatenate([[0.0, 1.0], 1.0 + 0.1 * np.arange(1, 5), [2.4]])
        rr = preprocess.rr_from_peaks(np.round(times * 1000), 1000.0)
        assert np.allclose(rr.intervals_s[1:5], 0.1, atol=1e-9)

    def test_single_peak_rejected(self):
        with pytest.raises(TooFewPeaks):
            preprocess.rr_from_peaks(np.array([5]), 100.0)

    def test_usable_intervals_drops_unfixed(self):
        peaks = np.array([0, 10, 110, 210], dtype=float)
        rr = preprocess.rr_from_peaks(peaks, 100.0)
        times, values = preprocess.usable_intervals(rr)
        assert np.allclose(values, [1.0, 1.0])
        assert np.allclose(times, [0.1, 1.1])

    def test_usable_intervals_drop_out_of_range_ones_marked_valid(self):
        # an archive can mark a 2.5-s and a 0.2-s interval valid
        times = np.array([0.0, 1.0, 3.5, 4.5, 4.7, 5.5])
        rr = RrSeries(times, np.diff(times), np.ones(5, dtype=bool))
        got_times, values = preprocess.usable_intervals(rr)
        np.testing.assert_array_equal(got_times, [0.0, 3.5, 4.7])
        np.testing.assert_allclose(values, [1.0, 1.0, 0.8])


# --- the loop-based detection and gap filling as exact oracles ------------

def _loop_detect_r_peaks(ecg: SignalTrace) -> np.ndarray:
    """The per-candidate refinement loop of ``detect_r_peaks``, kept as its
    oracle.

    Band-pass -> derivative -> squaring -> 150 ms moving-window integration ->
    adaptive dual threshold with a 300 ms refractory period; each detection is
    refined to the local maximum of the band-passed signal within +/-50 ms,
    a window that runs on to the end of the record when it comes within half
    the integration window of it.
    """
    fs = ecg.sample_rate_hz
    if fs < 100:
        raise ValueError(f"sample rate {fs} Hz too low for QRS detection")
    x = ecg.samples
    if len(x) / fs < 10.0:
        raise SignalTooShort(f"need >= 10 s of ECG, got {len(x) / fs:.1f} s")
    if np.std(x) < 1e-8 * (1.0 + np.abs(np.mean(x))):
        raise FlatSignal("ECG variance below detection threshold")

    bp = preprocess._bandpass_qrs(x, fs)
    # squared np.gradient(bp), built in one array to bound peak memory
    sq = np.empty_like(bp)
    np.subtract(bp[2:], bp[:-2], out=sq[1:-1])
    sq[1:-1] /= 2.0
    sq[0] = bp[1] - bp[0]
    sq[-1] = bp[-1] - bp[-2]
    sq *= sq
    win = max(1, int(round(0.150 * fs)))
    integ = np.convolve(sq, np.ones(win) / win, mode="same")
    del sq

    # candidate local maxima of the integrated signal
    cand, _ = preprocess.sps.find_peaks(
        integ, distance=max(1, int(round(preprocess.REFRACTORY_S * fs))))
    if len(cand) == 0:
        raise FlatSignal("no candidate peaks in integrated signal")

    lead = integ[: int(2 * fs)] if len(integ) >= int(2 * fs) else integ
    spki = float(np.max(lead))
    npki = float(np.mean(lead))
    refine = max(1, int(round(0.050 * fs)))
    reach = refine + win // 2
    refr = int(round(preprocess.REFRACTORY_S * fs))

    peaks: list[int] = []
    for c in cand:
        thr = npki + 0.25 * (spki - npki)
        if integ[c] >= thr:
            lo = 0 if c < reach else c - refine
            hi = len(bp) if c >= len(bp) - reach else c + refine + 1
            r = lo + int(np.argmax(bp[lo:hi]))
            if not peaks or r - peaks[-1] >= refr:
                peaks.append(r)
                spki = 0.125 * integ[c] + 0.875 * spki
            else:
                npki = 0.125 * integ[c] + 0.875 * npki
        else:
            npki = 0.125 * integ[c] + 0.875 * npki

    if not peaks:
        raise FlatSignal("adaptive threshold found no QRS complexes")
    return np.array(peaks, dtype=int)


def _loop_rr_from_peaks(peaks: np.ndarray, sample_rate_hz: float) -> RrSeries:
    """The per-interval gap-filling loop of ``rr_from_peaks``, kept verbatim
    as its oracle.

    Intervals outside [0.3 s, 2.0 s] are masked invalid; interior runs of at
    most three invalid intervals are replaced by linear interpolation between
    the neighboring valid values (mask stays False).
    """
    peaks = np.asarray(peaks)
    if len(peaks) < 2:
        raise TooFewPeaks(f"need >= 2 peaks, got {len(peaks)}")
    times = peaks.astype(float) / sample_rate_hz
    intervals = np.diff(times)
    valid = (intervals >= preprocess.RR_MIN_S) & (intervals <= preprocess.RR_MAX_S)

    values = intervals.copy()
    i = 0
    n = len(values)
    while i < n:
        if valid[i]:
            i += 1
            continue
        j = i
        while j < n and not valid[j]:
            j += 1
        run = j - i
        if run <= preprocess.MAX_INTERP_RUN and i > 0 and j < n:
            left, right = values[i - 1], values[j]
            for k in range(run):
                values[i + k] = left + (right - left) * (k + 1) / (run + 1)
        i = j
    return RrSeries(peak_times_s=times, intervals_s=values, valid_mask=valid)


def _noisy_impulses(rng, fs=200.0, seconds=60.0):
    """Unit impulses in low noise, one a sample from each end."""
    n = int(seconds * fs)
    idx = np.round(np.cumsum(rng.uniform(0.6, 1.2, int(seconds))) * fs)
    idx = np.concatenate([[1], idx[idx < n - 0.6 * fs], [n - 2]]).astype(int)
    x = rng.normal(0, 0.02, n)
    x[idx] += 1.0
    return SignalTrace("ECG", fs, x)


class TestMatchesLoopCode:
    def test_detection_on_noisy_trains(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            rr = np.clip(rng.normal(0.9, 0.15, 150), 0.35, 1.8)
            ecg, _ = _qrs_ecg(rr)
            noisy = ecg.with_samples(
                ecg.samples + rng.normal(0, 0.05 + 0.1 * seed, len(ecg.samples)))
            np.testing.assert_array_equal(preprocess.detect_r_peaks(noisy),
                                          _loop_detect_r_peaks(noisy))

    def test_refinement_at_both_signal_edges(self, monkeypatch):
        # the integrator keeps natural candidates away from the ends, so add
        # candidates whose +/-50 ms refinement window runs past either end
        find_peaks = preprocess.sps.find_peaks

        def with_edge_candidates(x, **kwargs):
            cand, props = find_peaks(x, **kwargs)
            inner = cand[(cand >= 30) & (cand < len(x) - 30)]
            return np.union1d(inner, [0, 2, len(x) - 3, len(x) - 1]), props

        monkeypatch.setattr(preprocess.sps, "find_peaks", with_edge_candidates)
        for seed in range(4):
            ecg = _noisy_impulses(np.random.default_rng(seed))
            peaks = preprocess.detect_r_peaks(ecg)
            np.testing.assert_array_equal(peaks, _loop_detect_r_peaks(ecg))
            refine = round(0.050 * ecg.sample_rate_hz)
            assert peaks[0] < refine and peaks[-1] >= len(ecg.samples) - refine

    def test_refinement_with_tied_maxima(self, monkeypatch):
        # coarse levels make the band-passed maximum tie within the window
        bandpass = preprocess._bandpass_qrs

        def coarse(x, fs):
            bp = bandpass(x, fs)
            return np.round(bp * 8 / np.max(bp))

        monkeypatch.setattr(preprocess, "_bandpass_qrs", coarse)
        ties = 0
        for seed in range(4):
            ecg = _noisy_impulses(np.random.default_rng(seed))
            peaks = preprocess.detect_r_peaks(ecg)
            np.testing.assert_array_equal(peaks, _loop_detect_r_peaks(ecg))
            bp = preprocess._bandpass_qrs(ecg.samples, ecg.sample_rate_hz)
            ties += sum(np.count_nonzero(bp[max(0, r - 10):r + 11] == bp[r]) > 1
                        for r in peaks)
        assert ties > 0

    def test_gap_filling_on_random_masks(self):
        rng = np.random.default_rng(5)
        for n in list(range(2, 40)) * 20 + [500] * 10:
            # out-of-range intervals at a random rate, so invalid runs of
            # every length occur, at both ends of the mask too
            bad = rng.random(n - 1) < rng.uniform(0.1, 0.8)
            iv = np.where(bad, rng.choice([0.1, 2.5], n - 1),
                          rng.uniform(0.4, 1.6, n - 1))
            peaks = np.round(np.concatenate([[0.0], np.cumsum(iv)]) * 256)
            got = preprocess.rr_from_peaks(peaks, 256.0)
            want = _loop_rr_from_peaks(peaks, 256.0)
            for field in ("peak_times_s", "intervals_s", "valid_mask"):
                np.testing.assert_array_equal(getattr(got, field),
                                              getattr(want, field))


# --- the convolution integrator and its detection as oracles -------------

_CONVOLVE_BLOCK = 1 << 16


def _convolve_integrate(bp: np.ndarray, win: int) -> np.ndarray:
    """The per-block ``np.convolve`` integrator of ``detect_r_peaks``, kept
    as the oracle of the doubling one: one dot product per output sample."""
    box = np.ones(win) / win
    integ = np.empty_like(bp)
    for a in range(0, len(bp), _CONVOLVE_BLOCK):
        lo = max(0, a - win)
        sq = np.gradient(bp[lo:a + _CONVOLVE_BLOCK + win]) ** 2
        integ[a:a + _CONVOLVE_BLOCK] = np.convolve(sq, box, mode="same")[
            a - lo:a - lo + _CONVOLVE_BLOCK]
    return integ


def _convolve_detect_r_peaks(ecg: SignalTrace) -> np.ndarray:
    """``detect_r_peaks`` with the convolution integrator and the ``np.std``
    flat-signal check, kept as its oracle."""
    fs = ecg.sample_rate_hz
    x = ecg.samples
    if len(x) / fs < 10.0:
        raise SignalTooShort(f"need >= 10 s of ECG, got {len(x) / fs:.1f} s")
    if np.std(x) < 1e-8 * (1.0 + np.abs(np.mean(x))):
        raise FlatSignal("ECG variance below detection threshold")

    bp = preprocess._bandpass_qrs(x, fs)
    win = max(1, int(round(0.150 * fs)))
    integ = _convolve_integrate(bp, win)

    cand, _ = preprocess.sps.find_peaks(
        integ, distance=max(1, int(round(preprocess.REFRACTORY_S * fs))))
    if len(cand) == 0:
        raise FlatSignal("no candidate peaks in integrated signal")

    lead = integ[: int(2 * fs)] if len(integ) >= int(2 * fs) else integ
    spki = float(np.max(lead))
    npki = float(np.mean(lead))
    refine = max(1, int(round(0.050 * fs)))
    refr = int(round(preprocess.REFRACTORY_S * fs))

    near = np.clip(cand[:, None] + np.arange(-refine, refine + 1), 0, len(bp) - 1)
    refined = near[np.arange(len(cand)), np.argmax(bp[near], axis=1)]
    reach = refine + win // 2
    for i in np.flatnonzero((cand < reach) | (cand >= len(bp) - reach)).tolist():
        lo = 0 if cand[i] < reach else cand[i] - refine
        hi = len(bp) if cand[i] >= len(bp) - reach else cand[i] + refine + 1
        refined[i] = lo + np.argmax(bp[lo:hi])

    peaks: list[int] = []
    for level, r in zip(integ[cand].tolist(), refined.tolist()):
        if level >= npki + 0.25 * (spki - npki) and (
                not peaks or r - peaks[-1] >= refr):
            peaks.append(r)
            spki = 0.125 * level + 0.875 * spki
        else:
            npki = 0.125 * level + 0.875 * npki

    if not peaks:
        raise FlatSignal("adaptive threshold found no QRS complexes")
    return np.array(peaks, dtype=int)


class TestMatchesConvolutionCode:
    """The doubling integrator moves values by a few ulps, which may move
    ``find_peaks`` candidates; the refined peaks must not move."""

    @pytest.mark.parametrize("block", [64, 1000, preprocess._BLOCK])
    def test_integrator_within_rtol(self, block):
        rng = np.random.default_rng(block)
        for win in (1, 2, 3, 15, 30, 31, 64, 75):
            for n in (2 * win + 1, 999, 1000, 4097, 70_000):
                bp = rng.normal(size=n) * rng.exponential(size=n) ** 3
                bp[rng.integers(0, n, 3)] = 0.0
                got = np.concatenate([
                    preprocess._integrate(bp, a, min(a + block, n), win)
                    for a in range(0, n, block)])
                assert got.shape == bp.shape
                # each output comes from its own window alone, so detection
                # may integrate any span of the record on its own
                assert np.array_equal(got.view(np.int64),
                                      preprocess._integrate(bp, 0, n, win).view(np.int64))
                np.testing.assert_allclose(got, _convolve_integrate(bp, win),
                                           rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed,n_epochs", [
        (1000, 960), (1001, 960), (1002, 960), (1003, 960), (1004, 960),
        (7, 120)])
    def test_same_peaks_on_synthetic_nights(self, seed, n_epochs):
        # seeds 1000-1004 are the five 960-epoch nights perfbench stores
        ecg = synth.generate_subject(seed, synth.easy_profile(), n_epochs).ecg
        np.testing.assert_array_equal(preprocess.detect_r_peaks(ecg),
                                      _convolve_detect_r_peaks(ecg))

    def test_same_peaks_on_noisy_trains(self):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            rr = np.clip(rng.normal(0.9, 0.15, 150), 0.35, 1.8)
            ecg, _ = _qrs_ecg(rr, fs=rng.choice([128.0, 200.0, 250.0, 500.0]))
            noisy = ecg.with_samples(
                ecg.samples + rng.normal(0, 0.05 + 0.1 * seed, len(ecg.samples)))
            np.testing.assert_array_equal(preprocess.detect_r_peaks(noisy),
                                          _convolve_detect_r_peaks(noisy))

    def test_flat_check_matches_the_std_rule(self):
        rng = np.random.default_rng(9)
        cases = []
        for offset in (0.0, 1.0, -3.5, 1e6):
            thr = 1e-8 * (1.0 + abs(offset))
            cases += [np.full(2000, offset), np.full(2001, offset)]
            for scale in (0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 100.0):
                cases.append(offset + thr * scale * rng.normal(size=2000))
                one = np.full(2000, offset)
                # a lone spike of size d has population SD just under d / sqrt(n)
                one[rng.integers(2000)] += thr * scale * np.sqrt(2000)
                cases.append(one)
        cases.append(rng.normal(size=5000))
        flat = [preprocess._maybe_flat(x) for x in cases]
        # the rule _convolve_detect_r_peaks applies
        assert flat == [bool(np.std(x) < 1e-8 * (1.0 + np.abs(np.mean(x))))
                        for x in cases]
        assert any(flat) and not all(flat)


# --- one whole-record find_peaks as the oracle of the blocked search -------

_BLOCK_SIZES = [64, 1000, preprocess._BLOCK]


def _assert_candidates_match(x: np.ndarray, distance: int, block: int) -> None:
    want, _ = preprocess.sps.find_peaks(x, distance=distance)
    cand, levels = preprocess._candidates(
        (x[a:a + block] for a in range(0, len(x), block)), distance)
    np.testing.assert_array_equal(cand, want)
    assert np.array_equal(levels.view(np.int64), x[want].view(np.int64))


class TestBlockedCandidates:
    """``_candidates`` over the integrator's blocks finds exactly what one
    ``find_peaks(integ, distance=d)`` call finds, plateaus included."""

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @pytest.mark.parametrize("values, lengths", [
        # a flat run crossing a block edge, and a lower one crossing the next
        ([0, 2, 0, 1, 0], [(1, -3), (0, 7), (1, -6), (0, 9), (1, 0)]),
        # a plateau longer than one block, and a flat stretch of two blocks
        ([0, 1, 2, 1, 0], [(0, 5), (0, 1), (2, 5), (0, 3), (2, 0)]),
        # a one-sample peak on a block's last sample, then a plateau touching
        # the record's last sample
        ([0, 3, 1, 2], [(1, -1), (0, 1), (0, 5), (1, 1)]),
        # a record that is one plateau
        ([4], [(2, 1)])])
    def test_plateaus_at_block_edges(self, block, values, lengths):
        x = np.repeat(np.array(values, dtype=float),
                      [k * block + extra for k, extra in lengths])
        for distance in (1, 3, block // 2, 2 * block):
            _assert_candidates_match(x, distance, block)

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @settings(max_examples=40, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2),
                                   st.integers(-2, 3)), min_size=1, max_size=12),
           distance=st.integers(1, 300))
    def test_any_run_lengths(self, block, runs, distance):
        # runs of a few levels, each a few samples or about one or two blocks
        # long, so plateaus cross edges, outlast blocks and end the record
        values = np.array([v for v, _, _ in runs], dtype=float)
        lengths = [max(1, k * block + extra) for _, k, extra in runs]
        _assert_candidates_match(np.repeat(values, lengths), distance, block)

    @pytest.mark.parametrize("block", _BLOCK_SIZES)
    @pytest.mark.parametrize("seed,n_epochs", [(3, 40), (11, 130)])
    def test_integrator_of_golden_nights(self, block, seed, n_epochs):
        ecg = synth.generate_subject(seed, synth.easy_profile(), n_epochs).ecg
        fs = ecg.sample_rate_hz
        bp = preprocess._bandpass_qrs(ecg.samples, fs)
        integ = preprocess._integrate(bp, 0, len(bp), round(0.150 * fs))
        _assert_candidates_match(integ, round(preprocess.REFRACTORY_S * fs), block)


def _traced_peak(fn, *args) -> tuple:
    """``fn(*args)`` and the bytes it allocated at its peak, above what was
    live when it was called."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _score_night(edf: bytes, man, params, stats):
    """EDF bytes to stages, one night in process."""
    by_label = {t.channel_label: t for t in signal_io.read_edf(edf)}
    record = SubjectRecord("night", ecg=by_label["ECG"],
                           breath_chest=by_label["THOR RES"],
                           breath_abdomen=by_label["ABDO RES"])
    matrix = registry.assemble_feature_matrix(pipeline.preprocess_subject(record), man)
    normed = registry.apply_normalization(matrix, stats)
    return blstm.predict_batch(params, [normed.values])[0]


class TestNightMemory:
    def test_detection_holds_under_one_and_a_half_records(self):
        # the record-length integrator and find_peaks's work on it took
        # 3.5x the ECG's bytes; the band-passed record alone is 1.0x
        ecg = synth.generate_subject(1001, synth.easy_profile(), 960).ecg
        peaks, peak = _traced_peak(preprocess.detect_r_peaks, ecg)
        assert len(peaks) > 960 * 30 * 0.5
        assert peak <= 1.5 * ecg.samples.nbytes

    @pytest.mark.parametrize("n_epochs", [
        960, pytest.param(2880, marks=pytest.mark.slow)])
    def test_night_from_edf_bytes_peaks_under_nine_edf_sizes(self, n_epochs):
        # it peaked at 15.2x at both lengths, in detection
        rec = synth.generate_subject(1001, synth.easy_profile(), n_epochs)
        edf = signal_io.write_edf([rec.ecg, rec.breath_chest, rec.breath_abdomen])
        del rec
        man = registry.build_manifest("single")
        k = len(man.names)
        stats = registry.NormStats(man, np.zeros(k), np.ones(k), np.zeros(k, bool))
        hyp, peak = _traced_peak(_score_night, edf, man,
                                 blstm.init_params(0, input_dim=k), stats)
        assert len(hyp) == n_epochs - 1
        assert peak <= 9 * len(edf)


# --- the one-call band-pass as its oracle ---------------------------------

def _one_call_bandpass_qrs(x: np.ndarray, fs: float) -> np.ndarray:
    """``preprocess._bandpass_qrs`` as two whole-record ``sosfilt`` calls over
    a padded copy, kept as the oracle of the blocked filter."""
    hi = min(15.0, 0.45 * fs)
    sos = preprocess.sps.butter(2, [5.0, hi], btype="bandpass", fs=fs,
                                output="sos")
    pad = int(round(0.150 * fs))
    ext = np.pad(x, pad, mode="median", stat_length=pad)
    zi = preprocess.sps.sosfilt_zi(sos)
    y = preprocess.sps.sosfilt(sos, ext, zi=zi * ext[0])[0]
    del ext
    y = preprocess.sps.sosfilt(sos, y[::-1], zi=zi * y[-1])[0]
    return y[::-1][pad:-pad]


def _assert_bandpass_matches(x: np.ndarray, fs: float) -> None:
    got = preprocess._bandpass_qrs(x, fs)
    want = _one_call_bandpass_qrs(x, fs)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestBandpassMatchesOneCall:
    """The band-pass filter, bit for bit."""

    @pytest.mark.parametrize("seed,n_epochs", [
        (1000, 960), (1001, 960), (1002, 960), (1003, 960), (1004, 960),
        (3, 40), (11, 130)])
    def test_synthetic_nights(self, seed, n_epochs):
        # seeds 1000-1004 are perfbench's five nights, 3 and 11 the golden ones
        ecg = synth.generate_subject(seed, synth.easy_profile(), n_epochs).ecg
        _assert_bandpass_matches(ecg.samples, ecg.sample_rate_hz)

    @pytest.mark.parametrize("fs", [100.0, 200.0, 256.0])
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_lengths_around_a_block_multiple(self, fs, blocks, extra):
        # the record itself, or the record with its two extensions, is one
        # sample under, at or one over a multiple of the block
        pad = int(round(0.150 * fs))
        rng = np.random.default_rng(blocks * 10 + extra)
        for n in (blocks * preprocess._BLOCK + extra,
                  blocks * preprocess._BLOCK + extra - 2 * pad):
            x = np.cumsum(rng.normal(size=n)) + rng.normal(size=n)
            _assert_bandpass_matches(x, fs)

    def test_peak_memory_is_one_record(self):
        # the one-call filter peaked at 2.0x the record's bytes: its padded
        # copy and its reversed output; the blocked one holds its output and
        # one block's temporaries
        x = np.random.default_rng(5).normal(size=60 * preprocess._BLOCK)
        tracemalloc.start()
        try:
            preprocess._bandpass_qrs(x, 200.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * x.nbytes


# --- the a-trous cascade of the wavelet baseline as its oracle -----------

_DB4_G = wavelet._DB4_G


def _cascade_smooth_level(x: np.ndarray, dilation: int) -> np.ndarray:
    """One a-trous smoothing pass with the dilated zero-phase kernel."""
    taps = len(_DB4_G)
    center = (taps // 2) * dilation
    pad = center
    ext = np.pad(x, pad, mode="symmetric")
    out = np.zeros_like(x)
    for k, g in enumerate(_DB4_G):
        shift = k * dilation - center
        start = pad + shift
        out += g * ext[start:start + len(x)]
    return out


def _cascade_approximation(x: np.ndarray, depth: int) -> np.ndarray:
    """The level-by-level a-trous cascade of ``wavelet.approximation``, kept
    verbatim as its oracle: each level smooths the previous one with the
    kernel dilated by 2**j and extended symmetrically on its own."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    a = np.asarray(x, dtype=float)
    for j in range(depth):
        a = _cascade_smooth_level(a, 2 ** j)
    return a


def _belt(rng, fs: float, seconds: float) -> np.ndarray:
    """Breathing at ~0.25 Hz on a wandering offset, plus noise."""
    t = np.arange(int(round(fs * seconds))) / fs
    return (np.sin(2 * np.pi * 0.25 * t + rng.uniform(0, 2 * np.pi))
            + 1.5 * np.sin(2 * np.pi * 0.003 * t + rng.uniform(0, 2 * np.pi))
            + rng.uniform(-2, 2) + 0.1 * rng.normal(size=len(t)))


class TestApproximationMatchesCascade:
    """``approximation`` against the cascade, within 1e-14 of the trace's
    peak, edges included."""

    @staticmethod
    def _check(x: np.ndarray, depth: int) -> None:
        got = wavelet.approximation(x, depth)
        want = _cascade_approximation(x, depth)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(x))

    # at 60 s every trace is shorter than the kernel's half-length, so the
    # boundary extension reflects more than once
    @pytest.mark.parametrize("seconds", [60.0, 600.0])
    @pytest.mark.parametrize("fs", [10.0, 25.0, 32.0, 100.0, 128.0, 200.0, 256.0])
    def test_breathing_traces(self, fs, seconds):
        x = _belt(np.random.default_rng(int(fs + seconds)), fs, seconds)
        self._check(x, wavelet.baseline_depth(fs))

    def test_night_belt(self):
        fs = 25.0
        x = _belt(np.random.default_rng(960), fs, 960 * 30.0)
        self._check(x, wavelet.baseline_depth(fs))

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_shallow_depths(self, depth):
        self._check(_belt(np.random.default_rng(depth), 25.0, 60.0), depth)

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValueError):
            wavelet.approximation(np.zeros(100), 0)


class TestButterworth:
    def _gain(self, freq, fs=25.0, seconds=120.0):
        t = np.arange(int(fs * seconds)) / fs
        x = np.sin(2 * np.pi * freq * t)
        y = preprocess.butterworth_lowpass(SignalTrace("B", fs, x)).samples
        core = slice(int(5 * fs), int((seconds - 5) * fs))
        return np.sqrt(np.mean(y[core] ** 2) / np.mean(x[core] ** 2))

    def test_minus_six_db_at_cutoff(self):
        # two zero-phase passes double the -3 dB corner attenuation
        db = 20 * np.log10(self._gain(1.0))
        assert db == pytest.approx(-6.0, abs=0.3)

    def test_stopband_at_five_hz(self):
        assert 20 * np.log10(self._gain(5.0)) <= -40.0

    def test_dc_preserved(self):
        x = np.full(500, 3.7)
        y = preprocess.butterworth_lowpass(SignalTrace("B", 25.0, x)).samples
        assert np.allclose(y, 3.7, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=1000)
        b = rng.normal(size=1000)
        f = lambda x: preprocess.butterworth_lowpass(
            SignalTrace("B", 25.0, x)).samples
        assert np.allclose(f(2 * a + 3 * b), 2 * f(a) + 3 * f(b), atol=1e-9)

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(CutoffAboveNyquist):
            preprocess.butterworth_lowpass(SignalTrace("B", 2.0, np.zeros(100)))


class TestWaveletBaseline:
    def test_constant_reproduced_exactly_by_approximation(self):
        x = np.full(1000, 5.0)
        a = wavelet.approximation(x, 6)
        assert np.max(np.abs(a - 5.0)) <= 1e-9

    def test_pure_dc_offset_removed(self):
        fs = 25.0
        x = np.full(int(fs * 120), 7.0)
        out = preprocess.remove_baseline_wavelet(SignalTrace("B", fs, x)).samples
        assert np.max(np.abs(out)) <= 1e-6 * 7.0

    def test_breathing_band_preserved(self):
        fs = 25.0
        t = np.arange(int(fs * 300)) / fs
        x = np.sin(2 * np.pi * 0.3 * t)
        out = preprocess.remove_baseline_wavelet(SignalTrace("B", fs, x)).samples
        core = slice(int(10 * fs), -int(10 * fs))
        assert np.sqrt(np.mean((out - x)[core] ** 2)) <= 0.05

    def test_slow_drift_removed(self):
        fs = 25.0
        t = np.arange(int(fs * 600)) / fs
        drift = 2.0 * np.sin(2 * np.pi * 0.002 * t)
        x = np.sin(2 * np.pi * 0.3 * t) + drift
        out = preprocess.remove_baseline_wavelet(SignalTrace("B", fs, x)).samples
        core = slice(int(30 * fs), -int(30 * fs))
        resid = out[core] - np.sin(2 * np.pi * 0.3 * t)[core]
        assert np.sqrt(np.mean(resid ** 2)) <= 0.15

    def test_short_signal_rejected(self):
        with pytest.raises(SignalTooShort):
            preprocess.remove_baseline_wavelet(
                SignalTrace("B", 25.0, np.zeros(25 * 30)))

    def test_depth_rule(self):
        assert wavelet.baseline_depth(25.0) == 8
        assert wavelet.baseline_depth(200.0) == 11


class TestSeriesTypesCheckTheirNumbers:
    @pytest.mark.parametrize("rate", [0.0, -25.0, np.nan, np.inf, 25 + 1j,
                                      np.array([25.0, 25.0]), "25"])
    def test_trace_refuses_a_rate_that_is_not_one_positive_number(self, rate):
        with pytest.raises(InvalidSeries, match="sample_rate_hz"):
            SignalTrace("B", rate, np.zeros(10))

    @pytest.mark.parametrize("samples, message", [
        (np.array([0.0, np.nan, 1.0]), "finite"),
        (np.array([0.0, -np.inf]), "finite"),
        (np.zeros((2, 5)), "1-D"), (np.zeros(3, dtype=complex), "real"),
        (np.array(["1.0", "2.0"]), "real")])
    def test_trace_refuses_samples_that_are_not_finite_reals(self, samples,
                                                              message):
        with pytest.raises(InvalidSeries, match=message):
            SignalTrace("B", 25.0, samples)

    def test_trace_keeps_an_empty_or_integer_signal_as_floats(self):
        assert SignalTrace("B", 25, []).samples.dtype == float
        np.testing.assert_array_equal(
            SignalTrace("B", 25, np.arange(3)).samples, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("field, value, message", [
        ("peak_times_s", [0.0, 1.0, np.inf], "peak times must be finite"),
        ("intervals_s", [1.0, np.nan], "intervals must be finite"),
        ("intervals_s", [[1.0, 1.0]], "intervals must be a 1-D array"),
        ("valid_mask", [1.0, 1.0], "valid_mask must be a 1-D boolean array"),
        ("valid_mask", [[True, True]], "valid_mask must be a 1-D boolean array")])
    def test_rr_series_refuses_what_is_not_finite_reals_and_a_mask(
            self, field, value, message):
        arrays = {"peak_times_s": [0.0, 1.0, 2.0], "intervals_s": [1.0, 1.0],
                  "valid_mask": [True, True], field: value}
        with pytest.raises(InvalidSeries, match=message):
            RrSeries(**arrays)
