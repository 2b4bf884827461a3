"""Serialization of captures, profiles and ground truth.

A measurement campaign records captures once and analyzes them many
times; these helpers give the repository a stable on-disk format:

* captures -> ``.npz`` (magnitude array + acquisition metadata),
* profile reports -> ``.json`` (stall list + accounting, plus the
  per-stall ``evidence`` block when the run was flight-recorded),
* ground-truth traces -> ``.npz`` (columnar miss/stall records),
* flight recordings -> ``.flight`` (NDJSON decision-event sidecars,
  see :mod:`repro.obs.flight`).

All formats are versioned with a ``format`` field so future layouts
can be detected rather than mis-parsed.  The current (v2) ``.npz``
layouts additionally carry array-length fields and a CRC-32 content
checksum, so a capture truncated by a dying disk or an interrupted
copy is *detected* (:class:`repro.errors.CorruptCaptureError`, naming
the file) instead of silently profiling garbage; v1 files (no
checksum) are still read.  Every malformed-file failure mode -
not-a-zip, missing keys, undecodable region JSON - raises the same
typed error rather than leaking ``KeyError``/``JSONDecodeError`` from
the internals.
"""

from __future__ import annotations

import json
import math
import zipfile
import zlib
from dataclasses import replace
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Union

import numpy as np

from .core.events import DetectedStall, ProfileReport, QualitySummary
from .emsignal.capture import Capture
from .errors import CorruptCaptureError
from .obs.flight import FlightRecorder, ReportEvidence, read_flight
from .sim.trace import GroundTruth, MissRecord, StallRecord

_CAPTURE_FORMAT = "emprof-capture-v2"
_CAPTURE_FORMAT_V1 = "emprof-capture-v1"
_REPORT_FORMAT = "emprof-report-v1"
_TRUTH_FORMAT = "emprof-truth-v2"
_TRUTH_FORMAT_V1 = "emprof-truth-v1"

PathLike = Union[str, Path]

#: Errors np.load / zipfile / field coercion can raise on a damaged
#: file.  FileNotFoundError is deliberately NOT wrapped: a missing
#: file is a caller mistake, not a corrupt capture.
_READ_ERRORS = (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError)


def _checksum(*arrays: np.ndarray) -> int:
    """CRC-32 over the raw bytes of ``arrays``, in order."""
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc


def _decode_region_names(raw: str, path: PathLike) -> dict:
    """Parse a ``{"id": "name"}`` JSON mapping, typed-error wrapped."""
    try:
        decoded = json.loads(raw)
        return {int(k): str(v) for k, v in decoded.items()}
    except (json.JSONDecodeError, ValueError, TypeError, AttributeError) as exc:
        raise CorruptCaptureError(
            f"malformed region_names mapping: {exc}", path=path
        ) from exc


# -- captures -----------------------------------------------------------------


def save_capture(path: PathLike, capture: Capture) -> None:
    """Write a capture to ``path`` (.npz, format v2 with checksum)."""
    magnitude = np.asarray(capture.magnitude, dtype=np.float64)
    np.savez_compressed(
        path,
        format=_CAPTURE_FORMAT,
        magnitude=magnitude,
        n_samples=len(magnitude),
        checksum=_checksum(magnitude),
        sample_rate_hz=capture.sample_rate_hz,
        clock_hz=capture.clock_hz,
        bandwidth_hz=capture.bandwidth_hz,
        region_names=json.dumps(
            {str(k): v for k, v in capture.region_names.items()}
        ),
    )


def load_capture(path: PathLike) -> Capture:
    """Read a capture written by :func:`save_capture` (v1 or v2).

    Raises:
        CorruptCaptureError: wrong format, missing fields, malformed
            region JSON, truncated array, or checksum mismatch.
        FileNotFoundError: the path does not exist.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format" not in data:
                raise CorruptCaptureError(
                    "no 'format' field; not an EMPROF capture file", path=path
                )
            fmt = str(data["format"])
            if fmt not in (_CAPTURE_FORMAT, _CAPTURE_FORMAT_V1):
                raise CorruptCaptureError(
                    f"not an EMPROF capture file (format={fmt!r})", path=path
                )
            try:
                magnitude = np.asarray(data["magnitude"], dtype=np.float64)
                sample_rate_hz = float(data["sample_rate_hz"])
                clock_hz = float(data["clock_hz"])
                bandwidth_hz = float(data["bandwidth_hz"])
                regions_raw = str(data["region_names"])
            except KeyError as exc:
                raise CorruptCaptureError(
                    f"capture file is missing field {exc}", path=path
                ) from exc
            regions = _decode_region_names(regions_raw, path)
            if fmt == _CAPTURE_FORMAT:
                _verify_lengths_and_checksum(
                    path,
                    expected_n=int(data["n_samples"]),
                    actual_n=len(magnitude),
                    expected_crc=int(data["checksum"]),
                    arrays=(magnitude,),
                    what="capture",
                )
            return Capture(
                magnitude=magnitude,
                sample_rate_hz=sample_rate_hz,
                clock_hz=clock_hz,
                bandwidth_hz=bandwidth_hz,
                region_names=regions,
            )
    except (CorruptCaptureError, FileNotFoundError):
        raise
    except _READ_ERRORS as exc:
        raise CorruptCaptureError(
            f"unreadable capture file: {exc}", path=path
        ) from exc


def _verify_lengths_and_checksum(
    path: PathLike,
    expected_n: int,
    actual_n: int,
    expected_crc: int,
    arrays,
    what: str,
) -> None:
    """Raise :class:`CorruptCaptureError` on truncation or bit rot."""
    if expected_n != actual_n:
        raise CorruptCaptureError(
            f"truncated {what}: header promises {expected_n} records, "
            f"file holds {actual_n}",
            path=path,
        )
    actual_crc = _checksum(*arrays)
    if actual_crc != expected_crc:
        raise CorruptCaptureError(
            f"{what} checksum mismatch: stored {expected_crc:#010x}, "
            f"computed {actual_crc:#010x} (bit rot or partial write)",
            path=path,
        )


# -- profile reports ------------------------------------------------------------


def report_to_dict(report: ProfileReport) -> dict:
    """JSON-ready representation of a profile report."""
    payload = {
        "format": _REPORT_FORMAT,
        "clock_hz": report.clock_hz,
        "sample_period_cycles": report.sample_period_cycles,
        "total_cycles": report.total_cycles,
        "region_names": {str(k): v for k, v in report.region_names.items()},
        "stalls": [
            {
                "begin_sample": s.begin_sample,
                "end_sample": s.end_sample,
                "begin_cycle": s.begin_cycle,
                "end_cycle": s.end_cycle,
                "min_level": s.min_level,
                "is_refresh": s.is_refresh,
                "region": s.region,
                "low_confidence": s.low_confidence,
            }
            for s in report.stalls
        ],
    }
    if report.quality is not None:
        q = report.quality
        payload["quality"] = {
            "gap_count": q.gap_count,
            "dropped_samples": q.dropped_samples,
            "clipped_samples": q.clipped_samples,
            "burst_samples": q.burst_samples,
            "gain_steps": q.gain_steps,
            "impaired_sample_spans": q.impaired_sample_spans,
            "impaired_samples": q.impaired_samples,
        }
    if report.evidence is not None:
        # Only present on flight-recorded runs, so reports profiled
        # without a recorder serialize byte-identically to before.
        payload["evidence"] = report.evidence.to_dict()
    return payload


def report_from_dict(payload: dict) -> ProfileReport:
    """Inverse of :func:`report_to_dict`."""
    fmt = payload.get("format")
    if fmt != _REPORT_FORMAT:
        raise ValueError(f"not an EMPROF report payload (format={fmt!r})")
    stalls = [
        DetectedStall(
            begin_sample=s["begin_sample"],
            end_sample=s["end_sample"],
            begin_cycle=s["begin_cycle"],
            end_cycle=s["end_cycle"],
            min_level=s["min_level"],
            is_refresh=s["is_refresh"],
            region=s.get("region"),
            low_confidence=s.get("low_confidence", False),
        )
        for s in payload["stalls"]
    ]
    quality = None
    if payload.get("quality"):
        quality = QualitySummary(**payload["quality"])
    evidence = None
    if payload.get("evidence"):
        evidence = ReportEvidence.from_dict(payload["evidence"])
    return ProfileReport(
        stalls=stalls,
        total_cycles=payload["total_cycles"],
        clock_hz=payload["clock_hz"],
        sample_period_cycles=payload["sample_period_cycles"],
        region_names={int(k): v for k, v in payload.get("region_names", {}).items()},
        quality=quality,
        evidence=evidence,
    )


# -- report JSON writer ---------------------------------------------------------
#
# ``json.dumps(..., indent=2)`` runs CPython's pure-Python encoder (the
# C encoder writes compact output only), one generator step per value;
# on a stall-dense capture that costs more than profiling it.
# :func:`report_json` writes the same bytes.  The small members are
# ``json.dumps`` of what :func:`report_to_dict` gives them; each list
# of records is gathered one field at a time, each column is encoded
# in one pass, and the rows are joined through one ``%`` template per
# record type.

_STALL_FIELDS = (
    "begin_sample", "end_sample", "begin_cycle", "end_cycle", "min_level",
    "is_refresh", "region", "low_confidence",
)
_STALL_EVIDENCE_FIELDS = (
    "index", "trigger_sample", "begin_sample", "end_sample", "threshold",
    "min_level", "depth_margin", "duration_cycles", "merge_chain", "carried",
    "carry_chunks", "quality_overlaps", "low_confidence", "is_refresh", "complete",
)
_NEAR_MISS_FIELDS = (
    "trigger_sample", "begin_sample", "end_sample", "reason", "measured",
    "limit", "min_level", "depth_margin",
)
#: json's literals; looked up for bool and None columns only
#: (``1 == True`` would find "true" for an int).
_LITERALS = {None: "null", True: "true", False: "false"}


def _json_float(value: float) -> str:
    """One float as json writes it, non-finite values included."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _json_value(value, pad: str) -> str:
    """``value`` as ``json.dumps(..., indent=2)`` writes it inside a
    document, on a line indented by ``pad``."""
    kind = type(value)
    if kind is float:
        return _json_float(value)
    if kind is int:
        return int.__repr__(value)
    if value is None or kind is bool:
        return _LITERALS[value]
    if kind is str:
        return encode_basestring_ascii(value)
    return json.dumps(value, indent=2).replace("\n", "\n" + pad)


def _json_column(values: list, pad: str) -> List[str]:
    """Each of ``values`` as :func:`_json_value` writes it, in one pass."""
    kinds = set(map(type, values))
    if kinds == {float}:
        text = list(map(float.__repr__, values))
        finite = np.isfinite(np.array(values))
        if not finite.all():
            for i in np.flatnonzero(~finite).tolist():
                text[i] = _json_float(values[i])
        return text
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds <= {bool, type(None)}:
        return list(map(_LITERALS.__getitem__, values))
    return [_json_value(v, pad) for v in values]


def _json_lists(lists: List[list], pad: str) -> List[str]:
    """Each of ``lists`` as :func:`_json_value` writes it; the items of
    all of them are encoded as one column (lists of lists recurse)."""
    inner = pad + "  "
    flat = [item for items in lists for item in items]
    if flat and all(type(item) is list for item in flat):
        text = _json_lists(flat, inner)
    else:
        text = _json_column(flat, inner)
    out = []
    sep = ",\n" + inner
    pos = 0
    for items in lists:
        n = len(items)
        out.append(f"[\n{inner}{sep.join(text[pos:pos + n])}\n{pad}]" if n else "[]")
        pos += n
    return out


def _json_object(members: Dict[str, str], pad: str) -> str:
    """An object from its members' encoded values."""
    inner = pad + "  "
    body = ",\n".join(
        f"{inner}{encode_basestring_ascii(key)}: {text}" for key, text in members.items()
    )
    return f"{{\n{body}\n{pad}}}"


def _json_records(records, fields, pad: str, nested=None) -> str:
    """A list of objects (``fields`` of each of ``records``), opening on
    a line indented by ``pad``.  ``nested`` maps a field holding a
    sequence of containers to the type ``to_dict`` copies each to."""
    if not records:
        return "[]"
    item = pad + "  "
    member = item + "  "
    columns = []
    for name in fields:
        values = list(map(attrgetter(name), records))
        if nested and name in nested:
            copy = nested[name]
            columns.append(_json_lists([[copy(v) for v in vs] for vs in values], member))
        else:
            columns.append(_json_column(values, member))
    template = _json_object({name: "%s" for name in fields}, item)
    rows = [template % row for row in zip(*columns)]
    return f"[\n{item}" + f",\n{item}".join(rows) + f"\n{pad}]"


def report_json(report: ProfileReport) -> str:
    """``json.dumps(report_to_dict(report), indent=2)``, byte for byte.

    Raises what that would raise on a value json cannot encode.
    """
    head = report_to_dict(replace(report, stalls=[], evidence=None))
    members = {key: _json_value(value, "  ") for key, value in head.items()}
    members["stalls"] = _json_records(report.stalls, _STALL_FIELDS, "  ")
    evidence = report.evidence
    if evidence is not None:
        head = replace(evidence, stalls=(), near_misses=()).to_dict()
        block = {key: _json_value(value, "    ") for key, value in head.items()}
        block["stalls"] = _json_records(
            evidence.stalls, _STALL_EVIDENCE_FIELDS, "    ",
            nested={"merge_chain": dict, "quality_overlaps": list},
        )
        block["near_misses"] = _json_records(evidence.near_misses, _NEAR_MISS_FIELDS, "    ")
        members["evidence"] = _json_object(block, "  ")
    return _json_object(members, "")


def save_report(path: PathLike, report: ProfileReport) -> None:
    """Write a profile report to ``path`` (.json, :func:`report_json`)."""
    Path(path).write_text(report_json(report))


def load_report(path: PathLike) -> ProfileReport:
    """Read a report written by :func:`save_report`.

    Raises:
        CorruptCaptureError: not JSON, or not a well-formed report.
        FileNotFoundError: the path does not exist.
    """
    try:
        return report_from_dict(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CorruptCaptureError(f"malformed report: {exc!r}", path=path) from exc


# -- flight sidecars ----------------------------------------------------------


def save_flight(path: PathLike, recorder: FlightRecorder, **meta) -> int:
    """Spill a flight recorder's events to ``path`` (NDJSON sidecar).

    ``meta`` key/values land in the sidecar header (capture path,
    campaign run name, ...).  Returns the number of events written.
    """
    return recorder.spill(path, meta=meta or None)


def load_flight(path: PathLike):
    """Read a ``.flight`` sidecar written by :func:`save_flight`.

    Returns ``(header, events)`` where ``events`` is a list of
    :class:`repro.obs.flight.FlightEvent`.

    Raises:
        CorruptCaptureError: empty file, foreign/malformed header, or
            a malformed event line.
        FileNotFoundError: the path does not exist.
    """
    try:
        return read_flight(path)
    except FileNotFoundError:
        raise
    except _READ_ERRORS as exc:
        raise CorruptCaptureError(
            f"unreadable flight sidecar: {exc}", path=path
        ) from exc


# -- ground truth ------------------------------------------------------------------


def save_ground_truth(path: PathLike, truth: GroundTruth) -> None:
    """Write a ground-truth trace to ``path`` (.npz, columnar, v2)."""
    misses = truth.misses
    stalls = truth.stalls
    miss_addr = np.array([m.addr for m in misses], dtype=np.int64)
    miss_detect = np.array([m.detect_cycle for m in misses], dtype=np.int64)
    stall_begin = np.array([s.begin_cycle for s in stalls], dtype=np.int64)
    stall_end = np.array([s.end_cycle for s in stalls], dtype=np.int64)
    np.savez_compressed(
        path,
        format=_TRUTH_FORMAT,
        total_cycles=truth.total_cycles,
        total_instructions=truth.total_instructions,
        n_misses=len(misses),
        n_stalls=len(stalls),
        checksum=_checksum(miss_addr, miss_detect, stall_begin, stall_end),
        region_names=json.dumps({str(k): v for k, v in truth.region_names.items()}),
        region_cycles=json.dumps({str(k): v for k, v in truth.region_cycles.items()}),
        miss_kind=np.array([m.kind for m in misses], dtype="U8"),
        miss_addr=miss_addr,
        miss_detect=miss_detect,
        miss_ready=np.array([m.ready_cycle for m in misses], dtype=np.int64),
        miss_stall=np.array(
            [-1 if m.stall_id is None else m.stall_id for m in misses], dtype=np.int64
        ),
        miss_refresh=np.array([m.refresh_blocked for m in misses], dtype=bool),
        miss_region=np.array([m.region for m in misses], dtype=np.int64),
        stall_begin=stall_begin,
        stall_end=stall_end,
        stall_cause=np.array([s.cause for s in stalls], dtype="U16"),
        stall_refresh=np.array([s.refresh for s in stalls], dtype=bool),
        stall_region=np.array([s.region for s in stalls], dtype=np.int64),
        stall_misses=json.dumps([s.miss_ids for s in stalls]),
    )


def load_ground_truth(path: PathLike) -> GroundTruth:
    """Read a trace written by :func:`save_ground_truth` (v1 or v2).

    Raises:
        CorruptCaptureError: wrong format, missing/truncated columns,
            malformed JSON fields, or checksum mismatch.
        FileNotFoundError: the path does not exist.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            if "format" not in data:
                raise CorruptCaptureError(
                    "no 'format' field; not an EMPROF ground-truth file",
                    path=path,
                )
            fmt = str(data["format"])
            if fmt not in (_TRUTH_FORMAT, _TRUTH_FORMAT_V1):
                raise CorruptCaptureError(
                    f"not an EMPROF ground-truth file (format={fmt!r})",
                    path=path,
                )
            try:
                return _decode_ground_truth(data, fmt, path)
            except KeyError as exc:
                raise CorruptCaptureError(
                    f"ground-truth file is missing field {exc}", path=path
                ) from exc
    except (CorruptCaptureError, FileNotFoundError):
        raise
    except _READ_ERRORS as exc:
        raise CorruptCaptureError(
            f"unreadable ground-truth file: {exc}", path=path
        ) from exc


def _decode_ground_truth(data, fmt: str, path: PathLike) -> GroundTruth:
    """Decode the columnar arrays of one ground-truth npz."""
    n_miss = len(data["miss_addr"])
    n_stall = len(data["stall_begin"])
    if fmt == _TRUTH_FORMAT:
        _verify_lengths_and_checksum(
            path,
            expected_n=int(data["n_misses"]),
            actual_n=n_miss,
            expected_crc=int(data["checksum"]),
            arrays=(
                np.asarray(data["miss_addr"], dtype=np.int64),
                np.asarray(data["miss_detect"], dtype=np.int64),
                np.asarray(data["stall_begin"], dtype=np.int64),
                np.asarray(data["stall_end"], dtype=np.int64),
            ),
            what="ground truth",
        )
        if int(data["n_stalls"]) != n_stall:
            raise CorruptCaptureError(
                f"truncated ground truth: header promises "
                f"{int(data['n_stalls'])} stalls, file holds {n_stall}",
                path=path,
            )
    misses = [
        MissRecord(
            miss_id=i,
            kind=str(data["miss_kind"][i]),
            addr=int(data["miss_addr"][i]),
            detect_cycle=int(data["miss_detect"][i]),
            ready_cycle=int(data["miss_ready"][i]),
            stall_id=(
                None
                if int(data["miss_stall"][i]) < 0
                else int(data["miss_stall"][i])
            ),
            refresh_blocked=bool(data["miss_refresh"][i]),
            region=int(data["miss_region"][i]),
        )
        for i in range(n_miss)
    ]
    try:
        miss_lists = json.loads(str(data["stall_misses"]))
    except json.JSONDecodeError as exc:
        raise CorruptCaptureError(
            f"malformed stall_misses JSON: {exc}", path=path
        ) from exc
    stalls = [
        StallRecord(
            stall_id=i,
            begin_cycle=int(data["stall_begin"][i]),
            end_cycle=int(data["stall_end"][i]),
            cause=str(data["stall_cause"][i]),
            miss_ids=list(miss_lists[i]),
            refresh=bool(data["stall_refresh"][i]),
            region=int(data["stall_region"][i]),
        )
        for i in range(n_stall)
    ]
    try:
        region_names = {
            int(k): v for k, v in json.loads(str(data["region_names"])).items()
        }
        region_cycles = {
            int(k): int(v)
            for k, v in json.loads(str(data["region_cycles"])).items()
        }
    except (json.JSONDecodeError, ValueError, AttributeError) as exc:
        raise CorruptCaptureError(
            f"malformed region mapping JSON: {exc}", path=path
        ) from exc
    return GroundTruth(
        misses=misses,
        stalls=stalls,
        total_cycles=int(data["total_cycles"]),
        total_instructions=int(data["total_instructions"]),
        region_names=region_names,
        region_cycles=region_cycles,
    )
