"""Self-describing export records and their two serializations.

A record carries one matrix (complex or real), an optional integer exponent
layer, and enough metadata to regenerate the matrix bit-identically:
field characteristic and degree, modulus, the unit scalar omega, and the
angle parameters.  Complex numbers are serialized as [re, im] pairs and
floats with shortest round-trip precision, so parsing reproduces every
entry exactly and repeated exports are byte-identical.

Two formats are supported: `json` (a single JSON document) and `text`
(key/value header lines followed by whitespace-separated rows, with the
metadata dict as one embedded JSON line).  Both round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import RecordParseError

MAGIC = "isoclinic-record"
VERSION = 1

KINDS = ("conference", "seidel", "gram", "planes", "hadamard")


@dataclass
class ExportRecord:
    kind: str
    order: int
    k: int
    theta: float
    entries: np.ndarray
    exponents: np.ndarray | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.entries)


def records_equal(a: ExportRecord, b: ExportRecord) -> bool:
    return (
        a.kind == b.kind
        and a.order == b.order
        and a.k == b.k
        and a.theta == b.theta
        and a.metadata == b.metadata
        and a.entries.shape == b.entries.shape
        and bool(np.array_equal(a.entries, b.entries))
        and (a.exponents is None) == (b.exponents is None)
        and (a.exponents is None or bool(np.array_equal(a.exponents, b.exponents)))
    )


def _entries_to_lists(entries: np.ndarray) -> list:
    if np.iscomplexobj(entries):
        return [[[z.real, z.imag] for z in row] for row in entries]
    return [[float(x) for x in row] for row in entries]


def _entries_from_lists(rows: list, is_complex: bool) -> np.ndarray:
    if is_complex:
        return np.array([[complex(c[0], c[1]) for c in row] for row in rows], dtype=np.complex128)
    return np.array(rows, dtype=np.float64)


def to_json(record: ExportRecord) -> str:
    doc = {
        "format": MAGIC,
        "version": VERSION,
        "kind": record.kind,
        "order": record.order,
        "k": record.k,
        "theta": record.theta,
        "complex": record.is_complex,
        "metadata": record.metadata,
        "entries": _entries_to_lists(record.entries),
        "exponents": None if record.exponents is None else record.exponents.tolist(),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


def to_text(record: ExportRecord) -> str:
    rows, cols = record.entries.shape
    lines = [
        f"{MAGIC} {VERSION}",
        f"kind {record.kind}",
        f"order {record.order}",
        f"k {record.k}",
        f"theta {_fmt(record.theta)}",
        f"complex {int(record.is_complex)}",
        "metadata " + json.dumps(record.metadata, sort_keys=True),
        f"rows {rows}",
        f"cols {cols}",
        "entries",
    ]
    if record.is_complex:
        for row in record.entries:
            lines.append(" ".join(f"{_fmt(z.real)} {_fmt(z.imag)}" for z in row))
    else:
        for row in record.entries:
            lines.append(" ".join(_fmt(x) for x in row))
    if record.exponents is not None:
        lines.append("exponents")
        for row in record.exponents:
            lines.append(" ".join(str(int(e)) for e in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize(record: ExportRecord, fmt: str) -> str:
    if fmt == "json":
        return to_json(record)
    if fmt == "text":
        return to_text(record)
    raise ValueError(f"unknown format {fmt!r}")


def _validate_header(kind: str, order: int, k: int) -> None:
    if kind not in KINDS:
        raise RecordParseError(f"unknown record kind {kind!r}")
    if order < 1 or k < 3:
        raise RecordParseError(f"implausible header: order={order}, k={k}")


def _exponents_from_lists(rows: list) -> np.ndarray:
    exponents = np.array(rows)
    if exponents.dtype.kind != "i" or not np.isin(exponents, (-1, 0, 1)).all():
        raise RecordParseError("exponents must be integers in {-1, 0, 1}")
    return exponents.astype(np.int8)


def _metadata(value: Any) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise RecordParseError(f"metadata must be a JSON object, got {value!r}")
    return value


def _validate_shapes(record: ExportRecord) -> None:
    # the checks index entries by the header order, so a disagreement must
    # stop here rather than surface as a broadcast error downstream
    shape, order = record.entries.shape, record.order
    if record.kind == "planes":
        ok = len(shape) == 2 and shape[0] == order and shape[1] > 0 and shape[1] % 2 == 0
        expected = f"({order}, even)"
    else:
        ok = shape == (order, order)
        expected = f"({order}, {order})"
    if not ok:
        raise RecordParseError(f"{record.kind} entries have shape {shape}, header implies {expected}")
    if record.exponents is not None and record.exponents.shape != shape:
        raise RecordParseError(f"exponents have shape {record.exponents.shape}, entries {shape}")


def _parse_json(text: str) -> ExportRecord:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"invalid JSON: {exc}") from exc
    try:
        if doc["format"] != MAGIC:
            raise RecordParseError(f"unexpected format tag {doc['format']!r}")
        if doc["version"] != VERSION:
            raise RecordParseError(f"unsupported version {doc['version']!r}")
        kind, order, k = doc["kind"], int(doc["order"]), int(doc["k"])
        _validate_header(kind, order, k)
        entries = _entries_from_lists(doc["entries"], bool(doc["complex"]))
        exponents = None if doc["exponents"] is None else _exponents_from_lists(doc["exponents"])
        return ExportRecord(
            kind=kind,
            order=order,
            k=k,
            theta=float(doc["theta"]),
            entries=entries,
            exponents=exponents,
            metadata=_metadata(doc["metadata"]),
        )
    except RecordParseError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise RecordParseError(f"malformed record document: {exc}") from exc


def _parse_text(text: str) -> ExportRecord:
    lines = text.splitlines()
    try:
        if not lines or lines[0].split() != [MAGIC, str(VERSION)]:
            raise RecordParseError("missing or unsupported record header line")
        header: dict[str, str] = {}
        pos = 1
        while pos < len(lines) and lines[pos] != "entries":
            key, _, value = lines[pos].partition(" ")
            header[key] = value
            pos += 1
        if pos == len(lines):
            raise RecordParseError("no entries section")
        pos += 1
        kind, order, k = header["kind"], int(header["order"]), int(header["k"])
        _validate_header(kind, order, k)
        rows, cols = int(header["rows"]), int(header["cols"])
        is_complex = bool(int(header["complex"]))
        width = 2 * cols if is_complex else cols
        matrix_rows = []
        for _ in range(rows):
            tokens = lines[pos].split()
            if len(tokens) != width:
                raise RecordParseError(f"entry row has {len(tokens)} tokens, expected {width}")
            values = [float(t) for t in tokens]
            if is_complex:
                matrix_rows.append([[values[2 * c], values[2 * c + 1]] for c in range(cols)])
            else:
                matrix_rows.append(values)
            pos += 1
        exponents = None
        if pos < len(lines) and lines[pos] == "exponents":
            pos += 1
            exp_rows = []
            for _ in range(rows):
                tokens = lines[pos].split()
                if len(tokens) != cols:
                    raise RecordParseError("exponent row width mismatch")
                exp_rows.append([int(t) for t in tokens])
                pos += 1
            exponents = _exponents_from_lists(exp_rows)
        if pos >= len(lines) or lines[pos] != "end":
            raise RecordParseError("missing end marker")
        return ExportRecord(
            kind=kind,
            order=order,
            k=k,
            theta=float(header["theta"]),
            entries=_entries_from_lists(matrix_rows, is_complex),
            exponents=exponents,
            metadata=_metadata(json.loads(header["metadata"])),
        )
    except RecordParseError:
        raise
    except (KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        raise RecordParseError(f"malformed text record: {exc}") from exc


def parse(text: str) -> ExportRecord:
    """Parse either serialization, sniffing JSON by its leading brace."""
    stripped = text.lstrip()
    record = _parse_json(text) if stripped.startswith("{") else _parse_text(text)
    _validate_shapes(record)
    return record


def read_record(path: str) -> ExportRecord:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def write_record(record: ExportRecord, path: str, fmt: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(record, fmt))
