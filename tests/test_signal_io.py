"""EDF, hypnogram text, feature-matrix CSV, and metadata round-trips."""
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cardiosleep import errors, signal_io, synth
from cardiosleep.registry import FeatureMatrix, build_manifest
from cardiosleep.types import FourStage, Hypnogram, SignalTrace, SixStage


def _sine_trace(label="ECG", rate=100.0, seconds=4.0, freq=2.0, amp=1.0):
    t = np.arange(int(rate * seconds)) / rate
    return SignalTrace(label, rate, amp * np.sin(2 * np.pi * freq * t))


class TestEdfRoundTrip:
    def test_two_signals_round_trip_within_quantization(self):
        traces = [_sine_trace("ECG", 200.0, 3.0, 5.0, 1.3),
                  _sine_trace("THOR RES", 25.0, 3.0, 0.3, 2.0)]
        out = signal_io.read_edf(signal_io.write_edf(traces))
        assert [t.channel_label for t in out] == ["ECG", "THOR RES"]
        for orig, back in zip(traces, out):
            assert back.sample_rate_hz == orig.sample_rate_hz
            assert len(back.samples) == len(orig.samples)
            # one 16-bit quantization step of the physical range
            step = np.ptp(orig.samples) / 65535
            assert np.max(np.abs(back.samples - orig.samples)) <= step + 1e-12

    def test_constant_signal_round_trips(self):
        tr = SignalTrace("FLAT", 10.0, np.full(30, 2.5))
        back = signal_io.read_edf(signal_io.write_edf([tr]))[0]
        assert np.allclose(back.samples, 2.5, atol=1e-3)

    def test_trailing_partial_record_dropped(self):
        tr = _sine_trace(rate=10.0, seconds=3.45)
        back = signal_io.read_edf(signal_io.write_edf([tr]))[0]
        assert len(back.samples) == 30  # 3 whole one-second records

    @pytest.mark.parametrize("lo, hi, too_long", [
        (-0.000123, 1.0, -0.000123), (-1.23456e-14, 0.5, -1.23456e-14),
        (-1.23456e15, 1e15, -1.23456e15), (-0.5, -0.000123, -0.000123),
        (-2.5e-14, -1.23456e-14, -1.23456e-14)])
    def test_bounds_too_long_for_8_chars_round_outward(self, lo, hi, too_long):
        """A bound that neither six nor three significant digits spell in 8
        characters is written rounded outward, so the written range holds
        every sample and the trace still round-trips."""
        with pytest.raises(ValueError, match="8-char"):
            signal_io._fit8(too_long)
        x = np.linspace(lo, hi, 40)
        data = signal_io.write_edf([SignalTrace("X", 4.0, x)])
        pmin, pmax = float(data[360:368]), float(data[368:376])
        assert pmin <= x.min() and x.max() <= pmax
        back = signal_io.read_edf(data)[0].samples
        assert np.max(np.abs(back - x)) <= (pmax - pmin) / 65535

    def test_header_size_arithmetic(self):
        data = signal_io.write_edf([_sine_trace()])
        assert int(data[184:192].decode().strip()) == 512
        assert int(data[252:256].decode().strip()) == 1


def _temporaries_write_edf(traces) -> bytes:
    """The writer that quantises through whole-signal temporaries and joins
    header and body by concatenation, kept as the oracle of
    ``signal_io.write_edf``."""
    _fit8 = signal_io._fit8
    ns = len(traces)
    spr = []
    for t in traces:
        rate = t.sample_rate_hz
        if abs(rate - round(rate)) > 1e-9:
            raise ValueError(f"rate {rate} does not fit 1 s records")
        spr.append(int(round(rate)))
    n_records = min(len(t.samples) // s for t, s in zip(traces, spr))

    head = b"0".ljust(8)
    head += b"".ljust(80)   # patient
    head += b"".ljust(80)   # recording
    head += b"01.01.00"     # start date
    head += b"00.00.00"     # start time
    head += _fit8(256 * (ns + 1))
    head += b"".ljust(44)   # reserved
    head += _fit8(n_records)
    head += _fit8(1)        # record duration, s
    head += str(ns).ljust(4).encode("ascii")

    pmins, pmaxs = [], []
    for t in traces:
        lo, hi = float(np.min(t.samples)), float(np.max(t.samples))
        if hi == lo:
            hi = lo + 1.0
        pmins.append(lo)
        pmaxs.append(hi)
    dmin, dmax = -32768, 32767

    fields = [
        b"".join(t.channel_label[:16].ljust(16).encode("ascii") for t in traces),
        b"".join(b"".ljust(80) for _ in traces),               # transducer
        b"".join(b"".ljust(8) for _ in traces),                # dimension
        b"".join(_fit8(v) for v in pmins),
        b"".join(_fit8(v) for v in pmaxs),
        b"".join(_fit8(dmin) for _ in traces),
        b"".join(_fit8(dmax) for _ in traces),
        b"".join(b"".ljust(80) for _ in traces),               # prefilter
        b"".join(_fit8(s) for s in spr),
        b"".join(b"".ljust(32) for _ in traces),               # reserved
    ]
    head += b"".join(fields)

    # parse back the 8-char physical bounds so reader and writer agree exactly
    pmins = [float(_fit8(v).decode()) for v in pmins]
    pmaxs = [float(_fit8(v).decode()) for v in pmaxs]

    body = np.empty((n_records, sum(spr)), dtype="<i2")
    col = 0
    for i, t in enumerate(traces):
        gain = (pmaxs[i] - pmins[i]) / (dmax - dmin)
        x = t.samples[: n_records * spr[i]]
        dig = np.round((x - pmins[i]) / gain + dmin)
        body[:, col:col + spr[i]] = np.clip(dig, dmin, dmax).astype("<i2").reshape(
            n_records, spr[i])
        col += spr[i]
    return head + body.tobytes()


def _subject_traces(seed, n_epochs):
    rec = synth.generate_subject(seed, synth.easy_profile(), n_epochs)
    return [rec.ecg, rec.breath_chest, rec.breath_abdomen]


class TestEdfWriterMatchesOracle:
    """``write_edf`` returns the oracle's bytes, header and records."""

    @pytest.mark.parametrize("seed, n_epochs", [(0, 20), (101, 120), (1000, 960)])
    def test_synthetic_subject(self, seed, n_epochs):
        traces = _subject_traces(seed, n_epochs)
        got = signal_io.write_edf(traces)
        assert type(got) is bytes
        assert got == _temporaries_write_edf(traces)

    def test_constant_trace(self):
        traces = [SignalTrace("FLAT", 10.0, np.full(30, 2.5)),
                  SignalTrace("ZERO", 4.0, np.zeros(13))]
        assert signal_io.write_edf(traces) == _temporaries_write_edf(traces)

    def test_samples_that_reach_the_16_bit_clip(self):
        # the bounds are written with six significant digits, so samples
        # just outside the parsed-back range quantise past -32768 and 32767
        x = np.linspace(1234.5651, 1235.1049, 500)
        traces = [SignalTrace("EDGE", 50.0, x), _sine_trace("ECG", 20.0, 10.0)]
        lo, hi = (float(signal_io._fit8(v)) for v in (x.min(), x.max()))
        assert lo > x.min() and hi < x.max()
        body = np.frombuffer(signal_io.write_edf(traces), "<i2", offset=768)
        assert body.min() == -32768 and body.max() == 32767
        assert signal_io.write_edf(traces) == _temporaries_write_edf(traces)

    @settings(max_examples=40, deadline=None)
    @given(steps=hnp.arrays(np.int64, st.integers(1, 60),
                            elements=st.integers(-10 ** 6, 10 ** 6)),
           rate=st.sampled_from([1.0, 3.0, 7.0]))
    def test_any_trace(self, steps, rate):
        traces = [SignalTrace("X", rate, steps / 64),
                  SignalTrace("ECG", 2.0, np.arange(60.0))]
        assert signal_io.write_edf(traces) == _temporaries_write_edf(traces)


def _temporaries_read_samples(data: bytes) -> list:
    """The samples of a plain EDF as ``read_edf`` decoded them through an
    int16 copy and two float temporaries per signal, kept as its oracle."""
    ns, n_records = int(data[252:256]), int(data[236:244])

    def field(offset, i, kind):
        start = 256 + offset * ns + 8 * i
        return kind(data[start:start + 8])

    raw = np.frombuffer(data, "<i2", offset=256 * (ns + 1))
    raw = raw.reshape(n_records, -1)
    out, col = [], 0
    for i in range(ns):
        pmin, pmax = field(104, i, float), field(112, i, float)
        dmin, dmax, spr = field(120, i, int), field(128, i, int), field(216, i, int)
        dig = raw[:, col:col + spr].reshape(-1).astype(float)
        col += spr
        gain = (pmax - pmin) / (dmax - dmin)
        out.append((dig - dmin) * gain + pmin)
    return out


def _assert_decodes_as_the_oracle(data: bytes) -> None:
    got = signal_io.read_edf(data)
    want = _temporaries_read_samples(data)
    assert len(got) == len(want)
    for t, w in zip(got, want):
        assert t.samples.dtype == np.float64
        assert t.samples.tobytes() == w.tobytes()


class TestEdfDecodeMatchesOracle:
    """``read_edf`` decodes each signal in place into the same bytes."""

    @pytest.mark.parametrize("seed, n_epochs", [(0, 20), (1000, 960)])
    def test_synthetic_subject(self, seed, n_epochs):
        _assert_decodes_as_the_oracle(
            signal_io.write_edf(_subject_traces(seed, n_epochs)))

    @pytest.mark.parametrize("dmin, dmax, pmin, pmax", [
        ("-32768", "32767", "-3.3", "12.5"), ("-2048", "2047", "0", "1e-6"),
        ("0", "4095", "-1e15", "7.5"), ("-1", "1", "-.25", "0.25"),
        ("100", "-100", "5", "-5")])
    def test_any_digital_and_physical_range(self, dmin, dmax, pmin, pmax):
        traces = [_sine_trace("ECG", 20.0, 6.0), _sine_trace("THOR RES", 3.0, 6.0)]
        data = bytearray(signal_io.write_edf(traces))
        body = np.random.default_rng(7).integers(-32768, 32768, len(data) - 768)
        data[768:] = body.astype("<i2").tobytes()[:len(data) - 768]
        for i in range(2):
            for offset, value in ((104, pmin), (112, pmax), (120, dmin), (128, dmax)):
                start = 256 + 2 * offset + 8 * i
                data[start:start + 8] = value.ljust(8).encode()
        _assert_decodes_as_the_oracle(bytes(data))

    def test_peak_memory_is_the_returned_arrays_and_one_int16_signal(self):
        # two float temporaries per signal made the peak 1.7x the arrays
        data = signal_io.write_edf(_subject_traces(1001, 960))
        tracemalloc.start()
        try:
            traces = signal_io.read_edf(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sizes = [t.samples.nbytes for t in traces]
        assert peak <= sum(sizes) + max(sizes) // 4


class TestEdfErrors:
    @pytest.mark.parametrize("offset, text", [
        (244, b"nan     "), (244, b"inf     "), (244, b"-inf    "),
        (256 + 104, b"nan     "), (256 + 112, b"1e999   "),
        (256 + 112, b"-1e999  ")])
    def test_non_finite_header_number_is_malformed(self, offset, text):
        # a nan or inf record duration ended in a ValueError or an
        # OverflowError, and an infinite bound in a RuntimeWarning
        data = bytearray(signal_io.write_edf([_sine_trace(rate=10.0)]))
        data[offset:offset + 8] = text
        with pytest.raises(errors.MalformedHeader,
                           match=f"non-finite header field .* at {offset}$"):
            signal_io.read_edf(bytes(data))

    @pytest.mark.parametrize("lo, hi, bound", [
        (0.0, 1.7976931348623157e308, 1.7976931348623157e308),
        (-1.7976931348623157e308, 0.0, -1.7976931348623157e308)])
    def test_writer_refuses_a_bound_that_reads_back_infinite(self, lo, hi, bound):
        # 1.8e+308 and -1.8e308, the 8-char spellings, read back as +-inf
        x = np.linspace(lo, hi, 40)
        with pytest.raises(ValueError, match=re.escape(f"bound {bound} is written")):
            signal_io.write_edf([SignalTrace("X", 4.0, x)])

    def test_short_file_raises_malformed(self):
        with pytest.raises(errors.MalformedHeader):
            signal_io.read_edf(b"0" * 100)

    def test_truncated_body_raises_truncated(self):
        data = signal_io.write_edf([_sine_trace()])
        with pytest.raises(errors.TruncatedData):
            signal_io.read_edf(data[:-10])

    def test_bad_header_byte_count(self):
        data = bytearray(signal_io.write_edf([_sine_trace()]))
        data[184:192] = b"300     "
        with pytest.raises(errors.MalformedHeader):
            signal_io.read_edf(bytes(data))

    def test_non_numeric_record_count(self):
        data = bytearray(signal_io.write_edf([_sine_trace()]))
        data[236:244] = b"oops    "
        with pytest.raises(errors.MalformedHeader):
            signal_io.read_edf(bytes(data))

    def test_zero_digital_range(self):
        data = bytearray(signal_io.write_edf([_sine_trace()]))
        # dig_min field of signal 0 starts at 256 + (16+80+8+8+8)*1
        start = 256 + 120
        data[start:start + 8] = b"32767   "
        with pytest.raises(errors.MalformedHeader):
            signal_io.read_edf(bytes(data))

    def test_fractional_duration_with_fractional_rate_unsupported(self):
        data = bytearray(signal_io.write_edf([_sine_trace()]))
        data[244:252] = b"0.3     "
        with pytest.raises(errors.UnsupportedVariant):
            signal_io.read_edf(bytes(data))

    def test_writer_refuses_no_signals(self):
        with pytest.raises(ValueError, match="at least one signal"):
            signal_io.write_edf([])

    @pytest.mark.parametrize("rate", [1e-10, 1e-300])
    def test_writer_refuses_a_rate_below_one_sample_per_record(self, rate):
        with pytest.raises(ValueError, match=f"rate {rate} gives no sample"):
            signal_io.write_edf([SignalTrace("SLOW", rate, np.zeros(3))])

    def test_implausible_signal_count(self):
        data = bytearray(signal_io.write_edf([_sine_trace()]))
        data[252:256] = b"999 "
        with pytest.raises(errors.MalformedHeader):
            signal_io.read_edf(bytes(data))

    @pytest.mark.parametrize("reserved, refused", [
        (b"EDF+D", True), (b"EDF+C", False), (b"     ", False)])
    def test_discontinuous_edf_plus_unsupported(self, reserved, refused):
        # its records have gaps between them, which reading them end to end
        # would drop, shifting every later epoch against the hypnogram
        data = bytearray(signal_io.write_edf([_sine_trace()]))
        data[192:197] = reserved
        if refused:
            with pytest.raises(errors.UnsupportedVariant, match="EDF\\+D"):
                signal_io.read_edf(bytes(data))
        else:
            assert len(signal_io.read_edf(bytes(data))[0].samples) == 400


    @pytest.mark.parametrize("reserved, kept", [
        (b"EDF+C", ["ECG", "THOR RES"]),
        (b"     ", ["ECG", "EDF Annotations", "THOR RES"])])
    def test_edf_plus_annotation_signal_is_skipped(self, reserved, kept):
        # its samples-per-record still count in each record's layout, so the
        # signal after it decodes to the same values
        ecg = _sine_trace("ECG", 20.0, 3.0, 2.0)
        chest = _sine_trace("THOR RES", 5.0, 3.0)
        notes = SignalTrace("EDF Annotations", 8.0, np.arange(24.0))
        data = bytearray(signal_io.write_edf([ecg, notes, chest]))
        data[192:197] = reserved
        got = signal_io.read_edf(bytes(data))
        assert [t.channel_label for t in got] == kept
        plain = {t.channel_label: t for t in signal_io.read_edf(
            signal_io.write_edf([ecg, notes, chest]))}
        for t in got:
            assert t.sample_rate_hz == plain[t.channel_label].sample_rate_hz
            assert t.samples.tobytes() == plain[t.channel_label].samples.tobytes()

class TestHypnogramText:
    def test_six_class_round_trip(self):
        text = "W\n1\n2\n3\n4\nR\n"
        hyp = signal_io.read_hypnogram(text)
        assert hyp.scheme == "six"
        assert signal_io.write_hypnogram(hyp) == text

    def test_four_class_round_trip(self):
        text = "WAKE\nLIGHT\nDEEP\nREM\n"
        hyp = signal_io.read_hypnogram(text)
        assert hyp.scheme == "four"
        assert list(hyp.indices()) == [0, 1, 2, 3]
        assert signal_io.write_hypnogram(hyp) == text

    def test_blank_lines_skipped(self):
        hyp = signal_io.read_hypnogram("W\n\n  \nR\n")
        assert len(hyp) == 2

    def test_unknown_token_reports_line(self):
        with pytest.raises(errors.UnknownToken, match="line 3"):
            signal_io.read_hypnogram("W\nW\nN2\n")

    def test_mixed_scheme_rejected(self):
        with pytest.raises(errors.MixedScheme):
            signal_io.read_hypnogram("W\nDEEP\n")

    def test_empty_text_gives_empty_four_class(self):
        hyp = signal_io.read_hypnogram("")
        assert len(hyp) == 0 and hyp.scheme == "four"


def _row_by_row_feature_csv(matrix: FeatureMatrix, destination) -> None:
    """The cell-by-cell CSV writer ``write_feature_matrix`` replaced, kept as
    the oracle of its bytes."""
    names = matrix.manifest.names
    with open(destination, "w", encoding="utf-8") as f:
        f.write(",".join(names + ["stage"]) + "\n")
        labels = matrix.labels.labels if matrix.labels is not None else None
        for r in range(matrix.n_epochs):
            row = [f"{v:.17g}" for v in matrix.values[r]]
            row.append(labels[r].value if labels is not None else "?")
            f.write(",".join(row) + "\n")


_FOUR_TOKENS = {s.value: s for s in FourStage}


def _row_by_row_read(source, manifest) -> FeatureMatrix:
    """The row-by-row CSV reader, one Python ``float()`` per cell, that
    ``read_feature_matrix`` replaced, kept as the oracle of its values and
    errors."""
    path = Path(source)
    with path.open("r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        if header[:-1] != manifest.names or header[-1] != "stage":
            raise errors.ManifestMismatch(f"{path}: column names differ from the manifest")
        values, stages = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise errors.ManifestMismatch(f"{path}: row has {len(parts)} fields")
            try:
                values.append([float(v) for v in parts[:-1]])
            except ValueError as e:
                raise errors.UnknownToken(f"{path}: line {lineno}: {e}") from e
            if parts[-1] != "?" and parts[-1] not in _FOUR_TOKENS:
                raise errors.UnknownToken(
                    f"{path}: line {lineno}: unknown stage token {parts[-1]!r}")
            stages.append(parts[-1])
    if not values:
        raise errors.TruncatedData(f"{path}: no rows")
    vals = np.array(values, dtype=float)
    labels = None
    if all(s != "?" for s in stages):
        labels = Hypnogram(tuple(_FOUR_TOKENS[s] for s in stages), "four")
    return FeatureMatrix(manifest=manifest, values=vals,
                         missing_mask=~np.isfinite(vals), labels=labels,
                         subject_id=path.stem)


def _write_csv(path, manifest, vals, unlabelled=()):
    """``vals`` as a feature CSV at ``path``, staged in turn through the four
    classes, with ``?`` on the rows listed in ``unlabelled``. The writer's
    binary copy stays beside it, matching it unless only some rows are
    unlabelled, which the writer cannot produce."""
    stages = list(FourStage)
    labels = None
    if len(set(unlabelled)) < len(vals):
        labels = Hypnogram(tuple(stages[i % 4] for i in range(len(vals))), "four")
    signal_io.write_feature_matrix(
        FeatureMatrix(manifest, vals, ~np.isfinite(vals), labels), path)
    if labels is not None and len(unlabelled):
        lines = path.read_text().split("\n")
        for r in unlabelled:
            lines[r + 1] = lines[r + 1].rsplit(",", 1)[0] + ",?"
        path.write_text("\n".join(lines))


def _copy_matches(path, manifest) -> bool:
    return signal_io._read_copy(path, path.read_bytes(),
                                len(manifest.names)) is not None


def _read_both_ways(path, manifest) -> FeatureMatrix:
    """The matrix at ``path`` read with its binary copy and again with the
    copy deleted, which must agree bit for bit."""
    got = signal_io.read_feature_matrix(path, manifest)
    signal_io._copy_path(path).unlink()
    _assert_same_matrix(got, signal_io.read_feature_matrix(path, manifest))
    return got


def _assert_same_matrix(got: FeatureMatrix, want: FeatureMatrix):
    """Every entry bit for bit (NaN payloads and signed zeros included), the
    mask, the labels and the subject."""
    assert got.values.dtype == want.values.dtype == np.float64
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    assert np.array_equal(np.isnan(got.values), np.isnan(want.values))
    assert np.array_equal(got.missing_mask, want.missing_mask)
    assert got.labels == want.labels
    assert got.subject_id == want.subject_id
    assert got.manifest is want.manifest


def _magnitudes(rng, n):
    return rng.normal(scale=10.0 ** rng.integers(-300, 301, (12, 1)), size=(12, n))


def _specials(rng, n):
    vals = rng.normal(size=(6, n))
    vals[0, :14] = [-0.0, 0.0, 5e-324, -5e-324, 1e-310, -4e-320,
                    2.2250738585072009e-308, 2.2250738585072014e-308,
                    np.inf, -np.inf, np.nan, 1.7976931348623157e308,
                    -1.7976931348623157e308, 0.1]
    # NaN of either sign, quiet or signalling, with payload bits: the CSV
    # writes each as "nan"
    vals[0, 14:18] = np.array([0xFFF8000000000000, 0x7FF0000000000001,
                               0xFFF4000000000123, 0x7FF80000DEADBEEF],
                              dtype=np.uint64).view(np.float64)
    vals[1] = np.nan
    vals[2] = np.inf
    vals[3, ::2] = -np.inf
    vals[4] = rng.integers(1, 2 ** 52, n).view(np.float64)  # subnormals
    vals[4, ::3] *= -1
    return vals


class TestFeatureCsvReaderParity:
    """``read_feature_matrix`` against ``_row_by_row_read`` on the same file."""

    @pytest.mark.parametrize("make, unlabelled", [
        pytest.param(_magnitudes, (), id="magnitudes-1e+-300"),
        pytest.param(_specials, (), id="zeros-subnormals-inf-nan"),
        pytest.param(_magnitudes, (0, 5, 11), id="some-rows-unlabelled"),
        pytest.param(_specials, range(6), id="all-rows-unlabelled"),
        pytest.param(lambda rng, n: rng.normal(size=(1, n)), (), id="one-row"),
        pytest.param(lambda rng, n: _specials(rng, n)[:1], (0,),
                     id="one-unlabelled-row")])
    def test_values_labels_and_mask_match_the_oracle(self, tmp_path, make,
                                                     unlabelled):
        manifest = build_manifest("single")
        path = tmp_path / "s1.csv"
        vals = make(np.random.default_rng(11), len(manifest))
        _write_csv(path, manifest, vals, unlabelled)
        assert _copy_matches(path, manifest) == (len(unlabelled) in (0, len(vals)))
        got = _read_both_ways(path, manifest)
        _assert_same_matrix(got, _row_by_row_read(path, manifest))
        assert (got.labels is None) == bool(len(unlabelled))

    @settings(max_examples=40, deadline=None)
    @given(vals=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(152)),
                           elements=st.floats(width=64)),
           labelled=st.booleans())
    def test_any_float64_rows_match_the_oracle(self, tmp_path_factory, vals,
                                               labelled):
        manifest = build_manifest("single")
        path = tmp_path_factory.mktemp("prop") / "s1.csv"
        _write_csv(path, manifest, vals, () if labelled else range(len(vals)))
        assert _copy_matches(path, manifest)
        got = _read_both_ways(path, manifest)
        _assert_same_matrix(got, _row_by_row_read(path, manifest))
        # every entry a number survives bit for bit; NaN reads back as NaN
        nan = np.isnan(vals)
        assert np.array_equal(np.isnan(got.values), nan)
        assert np.array_equal(got.values[~nan].view(np.int64),
                              vals[~nan].view(np.int64))


def _set_cell(line, col, text):
    """``line`` with cell ``col`` (0-based) replaced by ``text``."""
    cells = line.split(",")
    cells[col] = text
    return ",".join(cells)


def _damaged(row, change):
    """The lines of a four-row CSV with ``change`` applied to line ``row``."""
    return lambda lines: lines[:row - 1] + [change(lines[row - 1])] + lines[row:]


class TestMalformedFeatureCsv:
    """Damaged files read as the oracle reads them: the same values where it
    accepts the file, else the same exception type and message, to which a
    wrong field count adds the line. The writer's binary copy of the file
    before the damage stays beside it."""

    @pytest.mark.parametrize("damage, sep, line", [
        pytest.param(lambda lines: lines[:3] + [""] + lines[3:], "\n", 4,
                     id="blank-line-mid-file"),
        pytest.param(lambda lines: lines + [""], "\n", 6,
                     id="trailing-blank-line"),
        pytest.param(_damaged(4, lambda l: "#" + l), "\n", 4,
                     id="row-starting-with-hash"),
        pytest.param(_damaged(4, lambda l: "# a comment"), "\n", 4,
                     id="comment-row"),
        pytest.param(_damaged(3, lambda l: _set_cell(l, 5, "1#2")), "\n", 3,
                     id="hash-inside-a-cell"),
        pytest.param(_damaged(4, lambda l: _set_cell(l, 0, "abc")), "\n", 4,
                     id="non-numeric-cell"),
        pytest.param(_damaged(2, lambda l: _set_cell(l, 151, "")), "\n", 2,
                     id="empty-cell"),
        pytest.param(_damaged(5, lambda l: _set_cell(l, 7, " ")), "\n", 5,
                     id="blank-cell"),
        pytest.param(_damaged(3, lambda l: _set_cell(_set_cell(l, 0, " 1.5 "),
                                                     9, "\t-2e3\t")), "\n", None,
                     id="whitespace-around-values"),
        pytest.param(lambda lines: lines, "\r\n", None, id="crlf-line-endings"),
        pytest.param(lambda lines: lines, "\r", None, id="cr-line-endings"),
        pytest.param(_damaged(5, lambda l: l.replace(",", ",0,", 1)), "\n", 5,
                     id="one-field-too-many"),
        pytest.param(_damaged(3, lambda l: l.split(",", 1)[1]), "\n", 3,
                     id="one-field-too-few"),
        pytest.param(_damaged(3, lambda l: l.rsplit(",", 1)[0]), "\n", 3,
                     id="no-stage-field"),
        pytest.param(lambda lines: lines[:1], "\n", None, id="header-only"),
        pytest.param(lambda lines: [], "\n", None, id="blank-header-line")])
    def test_fails_or_reads_as_the_oracle_does(self, tmp_path, damage, sep, line):
        manifest = build_manifest("single")
        path = tmp_path / "s1.csv"
        _write_csv(path, manifest, np.random.default_rng(3).normal(size=(4, 152)))
        assert _copy_matches(path, manifest)
        lines = path.read_text().split("\n")[:-1]
        path.write_bytes((sep.join(damage(lines)) + sep).encode())
        assert signal_io._copy_path(path).is_file()
        try:
            want = _row_by_row_read(path, manifest)
        except errors.CardiosleepError as e:
            message = str(e)
            if line is not None and not message.startswith(f"{path}: line "):
                message = message.replace(f"{path}: ", f"{path}: line {line}: ", 1)
            with pytest.raises(type(e)) as got:
                signal_io.read_feature_matrix(path, manifest)
            assert str(got.value) == message
            assert line is None or message.startswith(f"{path}: line {line}: ")
        else:
            assert line is None
            _assert_same_matrix(signal_io.read_feature_matrix(path, manifest), want)

    @pytest.mark.parametrize("cell, value", [
        pytest.param("1_0", 10.0, id="digit-separator"),
        pytest.param("١", 1.0, id="arabic-indic-digit")])
    def test_python_only_number_forms_are_rejected(self, tmp_path, cell, value):
        # float() takes these and the oracle read them; the writer never emits
        # them, and the reader now refuses them naming the line
        manifest = build_manifest("single")
        path = tmp_path / "s1.csv"
        _write_csv(path, manifest, np.zeros((3, 152)))
        lines = path.read_text().split("\n")
        lines[2] = _set_cell(lines[2], 4, cell)
        path.write_text("\n".join(lines))
        assert _row_by_row_read(path, manifest).values[1, 4] == value
        with pytest.raises(errors.UnknownToken) as got:
            signal_io.read_feature_matrix(path, manifest)
        assert str(got.value) == (
            f"{path}: line 3: could not convert string to float: {cell!r}")


class TestFeatureMatrixCsv:
    @pytest.mark.parametrize("labelled", [True, False])
    def test_bytes_match_the_row_by_row_writer(self, tmp_path, labelled):
        manifest = build_manifest("two-channel")
        rng = np.random.default_rng(6)
        vals = rng.normal(scale=10.0 ** rng.integers(-300, 300, (9, 1)),
                          size=(9, len(manifest)))
        vals[0, :6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324]
        vals[1] = np.nan
        vals[2] = np.round(vals[2])
        stages = list(FourStage)
        labels = (Hypnogram(tuple(stages[i % len(stages)] for i in range(9)),
                            "four") if labelled else None)
        mat = FeatureMatrix(manifest, vals, ~np.isfinite(vals), labels, "s1")
        signal_io.write_feature_matrix(mat, tmp_path / "new.csv")
        _row_by_row_feature_csv(mat, tmp_path / "old.csv")
        got = (tmp_path / "new.csv").read_bytes()
        assert got == (tmp_path / "old.csv").read_bytes()
        assert b"\nnan,inf,-inf,-0,0,4.9406564584124654e-324," in got

    def test_round_trip_bitwise(self, tmp_path):
        manifest = build_manifest("single")
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(7, len(manifest)))
        vals[2, 10] = np.nan
        labels = Hypnogram(tuple(FourStage.LIGHT for _ in range(7)), "four")
        mat = FeatureMatrix(manifest, vals, ~np.isfinite(vals), labels, "s1")
        path = tmp_path / "s1.csv"
        signal_io.write_feature_matrix(mat, path)
        back = signal_io.read_feature_matrix(path, manifest)
        finite = np.isfinite(vals)
        assert np.array_equal(back.values[finite], vals[finite])
        assert np.array_equal(back.missing_mask, mat.missing_mask)
        assert back.labels is not None
        assert back.labels.labels == labels.labels
        assert back.subject_id == "s1"

    def test_unlabeled_rows_read_back_without_labels(self, tmp_path):
        manifest = build_manifest("single")
        vals = np.zeros((3, len(manifest)))
        mat = FeatureMatrix(manifest, vals, np.zeros_like(vals, dtype=bool))
        path = tmp_path / "x.csv"
        signal_io.write_feature_matrix(mat, path)
        back = signal_io.read_feature_matrix(path, manifest)
        assert back.labels is None

    @pytest.mark.parametrize("stage", ["W", "N2", "wake", ""])
    def test_unknown_stage_token_names_file_and_line(self, tmp_path, stage):
        manifest = build_manifest("single")
        vals = np.zeros((3, len(manifest)))
        labels = Hypnogram((FourStage.WAKE,) * 3, "four")
        path = tmp_path / "s1.csv"
        signal_io.write_feature_matrix(
            FeatureMatrix(manifest, vals, np.zeros_like(vals, dtype=bool),
                          labels, "s1"), path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + stage
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(errors.UnknownToken,
                           match=f"s1.csv: line 3: unknown stage token {stage!r}"):
            signal_io.read_feature_matrix(path, manifest)

    def test_labels_of_another_length_are_refused(self, tmp_path):
        # five rows with three labels used to write, and read back, three rows
        manifest = build_manifest("single")
        vals = np.zeros((5, len(manifest)))
        labels = Hypnogram((FourStage.WAKE,) * 3, "four")
        with pytest.raises(errors.LengthMismatch, match="s1: 3 labels for 5 rows"):
            FeatureMatrix(manifest, vals, vals != 0, labels, "s1")

    def test_six_class_labels_are_refused(self):
        # so every matrix the writer gets has stages its copy can encode
        manifest = build_manifest("single")
        vals = np.zeros((3, len(manifest)))
        labels = Hypnogram((SixStage.W,) * 3, "six")
        with pytest.raises(errors.MixedScheme, match="s1: labels are not four-class"):
            FeatureMatrix(manifest, vals, vals != 0, labels, "s1")

    def test_header_only_csv_names_the_file(self, tmp_path):
        manifest = build_manifest("single")
        path = tmp_path / "s1.csv"
        path.write_text(",".join(manifest.names + ["stage"]) + "\n")
        with pytest.raises(errors.TruncatedData, match="s1.csv: no rows"):
            signal_io.read_feature_matrix(path, manifest)

    def test_header_mismatch_rejected(self, tmp_path):
        manifest = build_manifest("single")
        path = tmp_path / "bad.csv"
        path.write_text("a,b,stage\n1,2,WAKE\n")
        with pytest.raises(errors.ManifestMismatch):
            signal_io.read_feature_matrix(path, manifest)


def _rows(csv):
    """The rows of the CSV file ``csv`` below its header."""
    return csv.read_text().splitlines()[1:]


def _labelled(manifest, vals, sid="s1"):
    stages = list(FourStage)
    labels = Hypnogram(tuple(stages[i % 4] for i in range(len(vals))), "four")
    return FeatureMatrix(manifest, vals, ~np.isfinite(vals), labels, sid)


class TestFeatureCopy:
    """The binary copy ``write_feature_matrix`` leaves beside each CSV is read
    only while it matches the CSV; otherwise the CSV is parsed."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """The rows of every CSV that ``read_feature_matrix`` parses."""
        calls = []

        def parse_rows(rows, n):
            calls.append(rows)
            return parse(rows, n)

        parse = signal_io._parse_rows
        monkeypatch.setattr(signal_io, "_parse_rows", parse_rows)
        return calls

    def _written(self, tmp_path, rows=5, sid="s1"):
        manifest = build_manifest("single")
        vals = np.random.default_rng([rows, len(sid)]).normal(
            size=(rows, len(manifest)))
        path = tmp_path / f"{sid}.csv"
        signal_io.write_feature_matrix(_labelled(manifest, vals, sid), path)
        return manifest, path

    def test_a_matching_copy_is_read_instead_of_the_csv(self, tmp_path, parsed):
        manifest, path = self._written(tmp_path)
        assert signal_io._copy_path(path).name == "s1.csv.bin"
        got = signal_io.read_feature_matrix(path, manifest)
        assert parsed == []
        _assert_same_matrix(got, _row_by_row_read(path, manifest))
        assert got.values.flags.writeable

    def test_no_cli_glob_picks_up_the_copy(self, tmp_path):
        self._written(tmp_path)
        assert [p.name for p in tmp_path.glob("*.csv")] == ["s1.csv"]
        assert not list(tmp_path.glob("*.npz"))

    def test_the_same_matrix_writes_the_same_copy(self, tmp_path):
        copies = []
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            path = self._written(tmp_path / name)[1]
            copies.append(signal_io._copy_path(path).read_bytes())
        assert copies[0] == copies[1]

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda b: b[:-1], id="last-byte-cut"),
        pytest.param(lambda b: b[:len(b) // 2], id="cut-in-half"),
        pytest.param(lambda b: b"", id="empty"),
        pytest.param(lambda b: b[:10], id="cut-in-the-magic"),
        pytest.param(lambda b: b + b"\0", id="one-byte-appended")])
    def test_a_truncated_or_padded_copy_is_ignored(self, tmp_path, parsed, damage):
        manifest, path = self._written(tmp_path)
        copy = signal_io._copy_path(path)
        copy.write_bytes(damage(copy.read_bytes()))
        got = signal_io.read_feature_matrix(path, manifest)
        assert parsed == [_rows(path)]
        _assert_same_matrix(got, _row_by_row_read(path, manifest))

    @pytest.mark.parametrize("at", [
        pytest.param(0, id="magic"),
        pytest.param(len(signal_io._COPY_MAGIC), id="row-count"),
        pytest.param(len(signal_io._COPY_MAGIC) + 8, id="column-count"),
        pytest.param(len(signal_io._COPY_MAGIC) + 16 + 7, id="first-value"),
        pytest.param(-33, id="last-stage-code"),
        pytest.param(-1, id="digest")])
    def test_a_copy_with_one_flipped_byte_is_ignored(self, tmp_path, parsed, at):
        manifest, path = self._written(tmp_path)
        copy = signal_io._copy_path(path)
        data = bytearray(copy.read_bytes())
        data[at] ^= 0x40
        copy.write_bytes(bytes(data))
        got = signal_io.read_feature_matrix(path, manifest)
        assert parsed == [_rows(path)]
        _assert_same_matrix(got, _row_by_row_read(path, manifest))

    @pytest.mark.parametrize("rows", [5, 6])
    def test_the_copy_of_another_matrix_is_ignored(self, tmp_path, parsed, rows):
        manifest, path = self._written(tmp_path)
        _, other = self._written(tmp_path, rows, sid="s22")
        signal_io._copy_path(path).write_bytes(
            signal_io._copy_path(other).read_bytes())
        got = signal_io.read_feature_matrix(path, manifest)
        assert parsed == [_rows(path)]
        _assert_same_matrix(got, _row_by_row_read(path, manifest))

    def test_a_matrix_without_rows_is_still_truncated(self, tmp_path):
        manifest = build_manifest("single")
        path = tmp_path / "s1.csv"
        vals = np.zeros((0, len(manifest)))
        signal_io.write_feature_matrix(FeatureMatrix(manifest, vals, vals != 0),
                                       path)
        assert _copy_matches(path, manifest)
        with pytest.raises(errors.TruncatedData, match="s1.csv: no rows"):
            signal_io.read_feature_matrix(path, manifest)

    def test_another_profile_is_still_a_manifest_mismatch(self, tmp_path):
        two = build_manifest("two-channel")
        path = tmp_path / "s1.csv"
        vals = np.zeros((3, len(two)))
        signal_io.write_feature_matrix(FeatureMatrix(two, vals, vals != 0), path)
        single = build_manifest("single")
        assert _copy_matches(path, single)
        with pytest.raises(errors.ManifestMismatch,
                           match="s1.csv: column names differ from the manifest"):
            signal_io.read_feature_matrix(path, single)


class TestSubjectMetadata:
    def test_round_trip(self):
        recs = [{"subject_id": "a", "ahi": 3.0}, {"subject_id": "b", "ahi": 0.5}]
        assert signal_io.read_subject_metadata(
            signal_io.write_subject_metadata(recs)) == recs

    def test_missing_subject_id(self):
        with pytest.raises(errors.MissingMetadata):
            signal_io.read_subject_metadata('{"ahi": 1.0}\n')

    def test_invalid_json_reports_line(self):
        with pytest.raises(errors.MissingMetadata, match="line 2"):
            signal_io.read_subject_metadata('{"subject_id": "a"}\nnot json\n')

    @pytest.mark.parametrize("fields", [
        {"subject_id": ["x"]}, {"subject_id": 7}, {"subject_id": ""},
        {"subject_id": "."}, {"subject_id": ".."},
        {"subject_id": "../escaped"}, {"subject_id": "a/b"},
        {"subject_id": "/abs"}, {"subject_id": "a", "edf": 5},
        {"subject_id": "a", "hypnogram": ["a.hyp"]},
        {"subject_id": "a", "ahi": "2.5"}, {"subject_id": "a", "ahi": True},
        {"subject_id": "a", "ahi": [2.5]},
        {"subject_id": "a", "ahi": float("nan")},
        {"subject_id": "a", "ahi": float("inf")}])
    def test_mistyped_field_reports_line(self, fields):
        text = '{"subject_id": "ok"}\n' + json.dumps(fields) + "\n"
        with pytest.raises(errors.MissingMetadata, match="line 2"):
            signal_io.read_subject_metadata(text)

    def test_number_too_long_to_convert_reports_line(self):
        text = '{"subject_id": "ok"}\n{"subject_id": "a", "ahi": ' + "1" * 5000 + "}\n"
        with pytest.raises(errors.MissingMetadata, match="line 2: invalid metadata"):
            signal_io.read_subject_metadata(text)

    def test_repeated_subject_id_names_both_lines(self):
        text = ('{"subject_id": "a"}\n{"subject_id": "b"}\n'
                '{"subject_id": "a", "ahi": 1.0}\n')
        with pytest.raises(errors.MissingMetadata,
                           match="line 3: subject_id 'a' repeats line 1"):
            signal_io.read_subject_metadata(text)

    def test_well_typed_fields_pass(self):
        recs = [{"subject_id": "a.b-1", "ahi": 3, "edf": "raw/a.edf",
                 "hypnogram": "raw/a.hyp"},
                {"subject_id": "b", "ahi": None, "edf": None, "hypnogram": None},
                {"subject_id": "c", "ahi": 0.5}, {"subject_id": "d", "ahi": 10 ** 400}]
        assert signal_io.read_subject_metadata(
            signal_io.write_subject_metadata(recs)) == recs
