"""File formats: minimal EDF, hypnogram text, feature-matrix CSV, metadata
lines, and the npz archives the pipeline stages write.

EDF support covers the plain 1992 layout only (no EDF+ annotations): a
256-byte fixed-width ASCII header, 256 header bytes per signal, then data
records of 16-bit little-endian samples.
"""
from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (MalformedHeader, ManifestMismatch, MissingMetadata,
                     MixedScheme, TruncatedData, UnknownToken,
                     UnsupportedVariant)
from .registry import FeatureManifest, FeatureMatrix, build_manifest
from .types import FourStage, Hypnogram, SignalTrace, SixStage

MAX_SIGNALS = 512
MAX_SAMPLES_PER_RECORD = 100_000

_SIX_TOKENS = {s.value: s for s in SixStage}
_FOUR_TOKENS = {s.value: s for s in FourStage}


# --- EDF ------------------------------------------------------------------

def _ascii_field(raw: bytes, start: int, length: int) -> str:
    chunk = raw[start:start + length]
    try:
        return chunk.decode("ascii").strip()
    except UnicodeDecodeError as e:
        raise MalformedHeader(f"non-ASCII bytes in header field at {start}") from e


def _num_field(raw: bytes, start: int, length: int, kind=float):
    text = _ascii_field(raw, start, length)
    try:
        return kind(text)
    except ValueError as e:
        raise MalformedHeader(f"non-numeric header field {text!r} at {start}") from e


def read_edf(data: bytes) -> list[SignalTrace]:
    """Parse a plain EDF byte string into one trace per signal."""
    if len(data) < 256:
        raise MalformedHeader(f"file of {len(data)} bytes is smaller than the header")
    n_records = _num_field(data, 236, 8, int)
    record_dur = _num_field(data, 244, 8, float)
    n_signals = _num_field(data, 252, 4, int)
    header_bytes = _num_field(data, 184, 8, int)
    if n_signals <= 0 or n_signals > MAX_SIGNALS:
        raise MalformedHeader(f"implausible signal count {n_signals}")
    if n_records < 0:
        raise MalformedHeader(f"negative record count {n_records}")
    if record_dur <= 0:
        raise MalformedHeader(f"non-positive record duration {record_dur}")
    expected_header = 256 * (n_signals + 1)
    if header_bytes != expected_header:
        raise MalformedHeader(
            f"header byte count {header_bytes} != 256*(ns+1) = {expected_header}")
    if len(data) < expected_header:
        raise MalformedHeader("file ends inside the signal headers")

    def sig_field(offset: int, width: int, i: int, kind=None):
        start = 256 + offset * n_signals + width * i
        if kind is None:
            return _ascii_field(data, start, width)
        return _num_field(data, start, width, kind)

    labels = [sig_field(0, 16, i) for i in range(n_signals)]
    phys_min = [sig_field(16 + 80 + 8, 8, i, float) for i in range(n_signals)]
    phys_max = [sig_field(16 + 80 + 16, 8, i, float) for i in range(n_signals)]
    dig_min = [sig_field(16 + 80 + 24, 8, i, int) for i in range(n_signals)]
    dig_max = [sig_field(16 + 80 + 32, 8, i, int) for i in range(n_signals)]
    spr = [sig_field(16 + 80 + 40 + 80, 8, i, int) for i in range(n_signals)]

    for i in range(n_signals):
        if spr[i] <= 0 or spr[i] > MAX_SAMPLES_PER_RECORD:
            raise MalformedHeader(f"implausible samples-per-record {spr[i]} for signal {i}")
        if dig_max[i] == dig_min[i]:
            raise MalformedHeader(f"zero digital range for signal {i}")
        rate = spr[i] / record_dur
        if record_dur != int(record_dur) and abs(rate - round(rate)) > 1e-9:
            raise UnsupportedVariant(
                f"fractional record duration {record_dur} with fractional rate {rate}")

    record_samples = sum(spr)
    expected_bytes = expected_header + n_records * record_samples * 2
    if len(data) < expected_bytes:
        raise TruncatedData(
            f"need {expected_bytes} bytes for {n_records} records, have {len(data)}")

    raw = np.frombuffer(data, dtype="<i2", offset=expected_header,
                        count=n_records * record_samples)
    raw = raw.reshape(n_records, record_samples)
    traces = []
    col = 0
    for i in range(n_signals):
        dig = raw[:, col:col + spr[i]].reshape(-1).astype(float)
        col += spr[i]
        gain = (phys_max[i] - phys_min[i]) / (dig_max[i] - dig_min[i])
        phys = (dig - dig_min[i]) * gain + phys_min[i]
        traces.append(SignalTrace(channel_label=labels[i],
                                  sample_rate_hz=spr[i] / record_dur,
                                  samples=phys))
    return traces


def _fit8(value) -> bytes:
    if isinstance(value, int):
        s = str(value)
    else:
        s = f"{value:.6g}"
        if len(s) > 8:
            s = f"{value:.3g}"
    if len(s) > 8:
        raise ValueError(f"value {value} does not fit an 8-char EDF field")
    return s.ljust(8).encode("ascii")


def write_edf(traces: Sequence[SignalTrace]) -> bytes:
    """Serialize traces as plain EDF with 1-s data records; rates must be
    whole numbers of samples per second. Samples are quantized to the full
    16-bit range."""
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


# --- hypnogram text -------------------------------------------------------

def read_hypnogram(text: str) -> Hypnogram:
    """One stage token per line, one line per 30-s epoch; six-class
    {W,R,1,2,3,4} or four-class {WAKE,LIGHT,DEEP,REM}, never mixed."""
    labels = []
    scheme = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        tok = line.strip()
        if not tok:
            continue
        if tok in _SIX_TOKENS:
            tok_scheme, lab = "six", _SIX_TOKENS[tok]
        elif tok in _FOUR_TOKENS:
            tok_scheme, lab = "four", _FOUR_TOKENS[tok]
        else:
            raise UnknownToken(f"line {lineno}: unknown stage token {tok!r}")
        if scheme is None:
            scheme = tok_scheme
        elif scheme != tok_scheme:
            raise MixedScheme(f"line {lineno}: {tok!r} mixes schemes")
        labels.append(lab)
    return Hypnogram(tuple(labels), scheme or "four")


def write_hypnogram(hyp: Hypnogram) -> str:
    return "".join(lab.value + "\n" for lab in hyp.labels)


# --- feature matrix CSV ---------------------------------------------------

def write_feature_matrix(matrix: FeatureMatrix, destination: Union[str, Path]) -> None:
    """CSV: header row of manifest names plus a final stage column; values
    serialized with enough digits for bitwise round-trips."""
    path = Path(destination)
    names = matrix.manifest.names
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(names + ["stage"]) + "\n")
        labels = matrix.labels.labels if matrix.labels is not None else None
        for r in range(matrix.n_epochs):
            row = [f"{v:.17g}" for v in matrix.values[r]]
            row.append(labels[r].value if labels is not None else "?")
            f.write(",".join(row) + "\n")


def read_feature_matrix(source: Union[str, Path],
                        manifest: Optional[FeatureManifest] = None) -> FeatureMatrix:
    path = Path(source)
    if manifest is None:
        manifest = build_manifest("single")
    with path.open("r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        if header[:-1] != manifest.names or header[-1] != "stage":
            raise ManifestMismatch(f"{path}: column names differ from the manifest")
        values, stages = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise ManifestMismatch(f"{path}: row has {len(parts)} fields")
            try:
                values.append([float(v) for v in parts[:-1]])
            except ValueError as e:
                raise UnknownToken(f"{path}: line {lineno}: {e}") from e
            stages.append(parts[-1])
    vals = (np.array(values, dtype=float) if values
            else np.empty((0, len(manifest))))
    labels = None
    if stages and all(s != "?" for s in stages):
        labels = Hypnogram(tuple(_FOUR_TOKENS[s] for s in stages), "four")
    return FeatureMatrix(manifest=manifest, values=vals,
                         missing_mask=~np.isfinite(vals), labels=labels,
                         subject_id=path.stem)


# --- subject metadata lines ----------------------------------------------

def read_subject_metadata(text: str) -> list[dict]:
    """One JSON object per line: {subject_id, ahi, paths...}."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise MissingMetadata(f"line {lineno}: invalid metadata ({e})") from e
        if not isinstance(obj, dict) or "subject_id" not in obj:
            raise MissingMetadata(f"line {lineno}: missing subject_id")
        records.append(obj)
    return records


def write_subject_metadata(records: Sequence[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


# --- npz archives ---------------------------------------------------------

@contextmanager
def open_npz(path: Union[str, Path]):
    """The npz archive at ``path``, open for reading without pickles. A file
    that is not one, or whose members cannot be read, raises
    ``MalformedHeader`` naming the file."""
    try:
        with np.load(Path(path), allow_pickle=False) as archive:
            yield archive
    except (ValueError, EOFError, zipfile.BadZipFile) as e:
        raise MalformedHeader(f"{path}: not a readable npz archive ({e})") from e
