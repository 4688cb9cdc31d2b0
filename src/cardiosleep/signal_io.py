"""File formats: minimal EDF, hypnogram text, feature-matrix CSV, metadata
lines, and the npz archives the pipeline stages write.

EDF support covers the plain 1992 layout and continuous EDF+ (EDF+C, whose
``EDF Annotations`` signals are skipped; EDF+D is refused): a 256-byte
fixed-width ASCII header, 256 header bytes per signal, then data records of
16-bit little-endian samples.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import tokenize
import zipfile
from contextlib import contextmanager
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (CardiosleepError, MalformedHeader, ManifestMismatch,
                     MissingMember, MissingMetadata, MixedScheme, TruncatedData,
                     UnknownToken, UnsupportedVariant)
from .registry import FeatureManifest, FeatureMatrix
from .types import FourStage, Hypnogram, SignalTrace, SixStage

MAX_SIGNALS = 512
MAX_SAMPLES_PER_RECORD = 100_000
_EDF_BLOCK = 256  # data records write_edf quantises per pass

_SIX_TOKENS = {s.value: s for s in SixStage}
_FOUR_TOKENS = {s.value: s for s in FourStage}


@contextmanager
def naming(path: Union[str, Path]):
    """Put ``path`` in front of a data error the block raises, and make text
    that is not UTF-8 an ``UnknownToken`` naming the first bad byte's offset."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise UnknownToken(f"{path}: byte {e.start} is not UTF-8") from e
    except CardiosleepError as e:
        raise type(e)(f"{path}: {e}") from e


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
        value = kind(text)
    except ValueError as e:
        raise MalformedHeader(f"non-numeric header field {text!r} at {start}") from e
    if not math.isfinite(value):  # nan, inf, or a number too large, like 1e999
        raise MalformedHeader(f"non-finite header field {text!r} at {start}")
    return value


def read_edf(data: bytes) -> list[SignalTrace]:
    """Parse an EDF byte string into one trace per signal, but an EDF+C
    file's annotation signals."""
    if len(data) < 256:
        raise MalformedHeader(f"file of {len(data)} bytes is smaller than the header")
    if data[192:197] == b"EDF+D":  # records with gaps, which would shift later epochs
        raise UnsupportedVariant("discontinuous EDF+D recording")
    plus = data[192:197] == b"EDF+C"
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
        lo, col = col, col + spr[i]
        if plus and labels[i] == "EDF Annotations":
            continue  # EDF+ annotation text: it fills its columns, holds no samples
        # (dig - dig_min) * gain + phys_min, decoded into the output array
        gain = (phys_max[i] - phys_min[i]) / (dig_max[i] - dig_min[i])
        phys = np.empty(n_records * spr[i])
        rows = phys.reshape(n_records, spr[i])
        np.subtract(raw[:, lo:col], dig_min[i], out=rows, dtype=float)
        rows *= gain
        rows += phys_min[i]
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


def _bound8(value: float, up: bool) -> bytes:
    """A physical bound as ``_fit8`` writes it or, where that does not fit,
    rounded outward (up for a maximum, down for a minimum) to the most digits
    that fit 8 characters, so the written range still holds every sample. A
    bound whose text reads back as infinite, as ``1.8e+308`` does, raises
    ``ValueError``."""
    try:
        field = _fit8(value)
    except ValueError:
        exact = Decimal(value)
        rounding = ROUND_CEILING if up else ROUND_FLOOR
        # from the finest quantum up; one a decade above the value makes the
        # bound 0 or a power of ten, which always fits
        for k in itertools.count(exact.adjusted() - 7):
            q = exact.quantize(Decimal(1).scaleb(k), rounding=rounding).normalize()
            s = min(f"{q:f}", f"{q:e}".replace("e+", "e"), key=len)
            if len(s) <= 8:
                field = s.ljust(8).encode("ascii")
                break
    if not math.isfinite(float(field)):
        raise ValueError(f"bound {value} is written as {field.decode().strip()!r}, "
                         f"which reads back as {float(field)}")
    return field


def write_edf(traces: Sequence[SignalTrace]) -> bytes:
    """Serialize traces as plain EDF with 1-s data records; rates must be
    whole numbers of samples per second. Samples are quantized to the full
    16-bit range."""
    ns = len(traces)
    if ns == 0:
        raise ValueError("an EDF file needs at least one signal")
    spr = []
    for t in traces:
        rate = t.sample_rate_hz
        if abs(rate - round(rate)) > 1e-9:
            raise ValueError(f"rate {rate} does not fit 1 s records")
        if round(rate) < 1:
            raise ValueError(f"rate {rate} gives no sample per 1 s record")
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
        pmins.append(_bound8(lo, up=False))
        pmaxs.append(_bound8(hi, up=True))
    dmin, dmax = -32768, 32767

    fields = [
        b"".join(t.channel_label[:16].ljust(16).encode("ascii") for t in traces),
        b"".join(b"".ljust(80) for _ in traces),               # transducer
        b"".join(b"".ljust(8) for _ in traces),                # dimension
        b"".join(pmins),
        b"".join(pmaxs),
        b"".join(_fit8(dmin) for _ in traces),
        b"".join(_fit8(dmax) for _ in traces),
        b"".join(b"".ljust(80) for _ in traces),               # prefilter
        b"".join(_fit8(s) for s in spr),
        b"".join(b"".ljust(32) for _ in traces),               # reserved
    ]
    head += b"".join(fields)

    # parse back the 8-char physical bounds so reader and writer agree exactly
    pmins = [float(v.decode()) for v in pmins]
    pmaxs = [float(v.decode()) for v in pmaxs]

    # quantise each signal in place, _EDF_BLOCK records at a time through one
    # float buffer, into its columns of the records, a view on the output
    out = bytearray(len(head) + 2 * n_records * sum(spr))
    out[:len(head)] = head
    body = np.frombuffer(out, dtype="<i2", offset=len(head)).reshape(n_records, sum(spr))
    col = 0
    for i, t in enumerate(traces):
        s = spr[i]
        gain = (pmaxs[i] - pmins[i]) / (dmax - dmin)
        buf = np.empty(min(_EDF_BLOCK, n_records) * s)
        for r in range(0, n_records, _EDF_BLOCK):
            rows = min(_EDF_BLOCK, n_records - r)
            dig = buf[:rows * s]
            np.subtract(t.samples[r * s:(r + rows) * s], pmins[i], out=dig)
            dig /= gain
            dig += dmin
            np.round(dig, out=dig)
            np.clip(dig, dmin, dmax, out=dig)
            body[r:r + rows, col:col + s] = dig.reshape(rows, s)
        col += s
    return bytes(out)


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
#
# Beside each CSV, at ``<csv>.bin``, the writer leaves a binary copy of the
# same matrix: ``_COPY_MAGIC``, the row and column counts (two little-endian
# uint64), the values as little-endian float64 row by row, one stage code per
# row (its index in ``_STAGES``), then the SHA-256 of the CSV's bytes followed
# by everything before it in the copy. The reader takes the copy only while
# that digest holds, so a CSV edited, copied alone or written by other code,
# or a copy truncated or damaged, reads from the CSV text.

_COPY_MAGIC = b"cardiosleep feature copy 1\n"
_STAGES = (*_FOUR_TOKENS, "?")
_STAGE_CODES = {token: code for code, token in enumerate(_STAGES)}
_DIGEST_BYTES = 32


def _copy_path(csv: Path) -> Path:
    return csv.with_name(csv.name + ".bin")


def _copy_bytes(values: np.ndarray, stages: list, csv: bytes) -> bytes:
    """The binary copy of a matrix whose CSV is ``csv``."""
    # the CSV writes every NaN as "nan", which parses to the canonical NaN
    values = np.where(np.isnan(values), np.nan, values).astype("<f8", copy=False)
    body = b"".join([_COPY_MAGIC, np.array(values.shape, "<u8").tobytes(),
                     values.tobytes(), bytes(_STAGE_CODES[s] for s in stages)])
    digest = hashlib.sha256(csv)
    digest.update(body)
    return body + digest.digest()


def _read_copy(path: Path, csv: bytes, n: int) -> Optional[tuple]:
    """The values and stage tokens of the binary copy beside the CSV ``path``
    whose bytes are ``csv``, or None if there is no copy of ``n`` columns
    whose digest holds for them."""
    try:
        copy = _copy_path(path).read_bytes()
    except OSError:
        return None
    head = len(_COPY_MAGIC) + 16
    if not copy.startswith(_COPY_MAGIC) or len(copy) < head + _DIGEST_BYTES:
        return None
    rows, cols = np.frombuffer(copy, "<u8", 2, len(_COPY_MAGIC)).tolist()
    if cols != n or len(copy) != head + rows * (8 * cols + 1) + _DIGEST_BYTES:
        return None
    digest = hashlib.sha256(csv)
    digest.update(memoryview(copy)[:-_DIGEST_BYTES])
    if digest.digest() != copy[-_DIGEST_BYTES:]:
        return None
    values = np.frombuffer(copy, "<f8", rows * cols, head).reshape(rows, cols)
    codes = copy[head + 8 * rows * cols:-_DIGEST_BYTES]
    return values.astype(np.float64), [_STAGES[c] for c in codes]


def write_feature_matrix(matrix: FeatureMatrix, destination: Union[str, Path]) -> None:
    """CSV: header row of manifest names plus a final stage column; values
    serialized with enough digits for bitwise round-trips. Beside it goes
    the matrix's binary copy (see above)."""
    path = Path(destination)
    names = matrix.manifest.names
    stages = ([s.value for s in matrix.labels.labels] if matrix.labels is not None
              else ["?"] * matrix.n_epochs)
    line = "%.17g," * len(names) + "%s\n"
    csv = "".join([",".join(names + ["stage"]) + "\n",
                   *(line % (*row, stage)
                     for row, stage in zip(matrix.values.tolist(), stages))]
                  ).encode("utf-8")
    path.write_bytes(csv)
    _copy_path(path).write_bytes(_copy_bytes(matrix.values, stages, csv))


def _numbers(rows: list, n: int) -> Optional[np.ndarray]:
    """The first ``n`` cells of each CSV row as floats, or None if one is not a number."""
    try:
        return np.loadtxt(rows, delimiter=",", usecols=range(n), comments=None, ndmin=2)
    except ValueError:
        return None


def _parse_rows(rows: list, n: int) -> tuple:
    """The values and stage tokens of a feature CSV's rows; a bad row raises
    naming its line."""
    # check every row before the parse, which would skip a blank one
    stages = [row.rpartition(",")[2] for row in rows]
    for lineno, (row, stage) in enumerate(zip(rows, stages), start=2):
        if row.count(",") != n:
            raise ManifestMismatch(
                f"line {lineno}: row has {row.count(',') + 1} fields")
        if stage != "?" and stage not in _FOUR_TOKENS:
            raise UnknownToken(f"line {lineno}: unknown stage token {stage!r}")
    vals = _numbers(rows, n)
    if vals is None:  # find the cell again: loadtxt's message counts rows from 0
        lineno, row = next((i, r) for i, r in enumerate(rows, start=2)
                           if _numbers([r], n) is None)
        cell = next(c for c in row.split(",")[:n] if _numbers([c + ","], 1) is None)
        raise UnknownToken(
            f"line {lineno}: could not convert string to float: {cell!r}")
    return vals, stages


def read_feature_matrix(source: Union[str, Path],
                        manifest: FeatureManifest) -> FeatureMatrix:
    """A ``write_feature_matrix`` CSV, unlabeled if a stage is ``?``, read from
    its binary copy while that matches the CSV's bytes. A header other than
    ``manifest``'s or no rows raises naming the file; a bad row, its line too."""
    path = Path(source)
    n = len(manifest.names)
    with naming(path):
        csv = path.read_bytes()
        copy = _read_copy(path, csv, n)
        if copy is None:  # the universal newlines of a text-mode read
            text = csv.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
            header, *rows = text.removesuffix("\n").split("\n")
        else:
            header, rows = csv.partition(b"\n")[0].decode("utf-8"), copy[0]
        if header.split(",") != manifest.names + ["stage"]:
            raise ManifestMismatch("column names differ from the manifest")
        if not len(rows):
            raise TruncatedData("no rows")
        vals, stages = _parse_rows(rows, n) if copy is None else copy
    labels = None
    if "?" not in stages:
        labels = Hypnogram(tuple(_FOUR_TOKENS[s] for s in stages), "four")
    return FeatureMatrix(manifest=manifest, values=vals,
                         missing_mask=~np.isfinite(vals), labels=labels,
                         subject_id=path.stem)


# --- subject metadata lines ----------------------------------------------

def plain_file_name(sid) -> bool:
    """Whether ``sid`` can be a subject id, which names the subject's files:
    a string that is a plain file name."""
    return (isinstance(sid, str) and sid not in ("", "..") and "\0" not in sid
            and Path(sid).name == sid)


def _metadata_fault(obj: dict) -> Optional[str]:
    """What is wrong with one metadata record's fields, or None."""
    sid = obj["subject_id"]
    if not plain_file_name(sid):
        return f"subject_id {sid!r} is not a plain file name"
    for key in ("edf", "hypnogram"):
        if obj.get(key) is not None and not isinstance(obj[key], str):
            return f"{key} {obj[key]!r} is not a path"
    ahi = obj.get("ahi")
    if ahi is not None and (isinstance(ahi, bool)
                            or not isinstance(ahi, (int, float))
                            or isinstance(ahi, float) and not math.isfinite(ahi)):
        return f"ahi {ahi!r} is not a finite number"
    return None


def read_subject_metadata(text: str) -> list[dict]:
    """One JSON object per line: {subject_id, ahi, edf, hypnogram}. A line
    that is not one, whose fields have the wrong type, or that repeats an
    earlier line's subject_id raises ``MissingMetadata`` naming the line."""
    records, first_line = [], {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError as e:  # a number too long to convert is no JSONDecodeError
            raise MissingMetadata(f"line {lineno}: invalid metadata ({e})") from e
        if not isinstance(obj, dict) or "subject_id" not in obj:
            raise MissingMetadata(f"line {lineno}: missing subject_id")
        fault = _metadata_fault(obj)
        if fault:
            raise MissingMetadata(f"line {lineno}: {fault}")
        first = first_line.setdefault(obj["subject_id"], lineno)
        if first != lineno:
            raise MissingMetadata(
                f"line {lineno}: subject_id {obj['subject_id']!r} repeats line {first}")
        records.append(obj)
    return records


def write_subject_metadata(records: Sequence[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


# --- npz archives ---------------------------------------------------------

class _Archive:
    """An open npz archive whose missing members raise ``MissingMember``
    naming the member."""

    def __init__(self, archive):
        self.files = archive.files
        self._archive = archive

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self.files:
            raise MissingMember(f"no member {name!r}")
        return self._archive[name]


@contextmanager
def open_npz(path: Union[str, Path]):
    """The npz archive at ``path``, open for reading without pickles, with the
    block inside ``naming(path)``. A file that is not one, or whose members
    cannot be read, raises ``MalformedHeader``; a member it lacks,
    ``MissingMember``; a missing file, ``FileNotFoundError``."""
    with naming(path):
        try:
            with np.load(Path(path), allow_pickle=False) as archive:
                yield _Archive(archive)
        except FileNotFoundError:
            raise
        # zipfile refuses encrypted or unknown members with RuntimeError or
        # NotImplementedError; a damaged .npy header can fail to tokenize
        except (ValueError, EOFError, OSError, RuntimeError, NotImplementedError,
                tokenize.TokenError, zipfile.BadZipFile) as e:
            raise MalformedHeader(f"not a readable npz archive ({e})") from e
