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
A record holds few distinct floats, so the writer renders and the parser
converts each distinct number once; a text record's parse error names its
first bad token in file order.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import chain
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


def _json_float(x: float) -> str:
    """A float as json.dumps writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _float_tokens(values: np.ndarray, render) -> np.ndarray:
    """render applied to each float64 entry, called once per distinct bit pattern.

    Complex arrays are viewed as trailing (re, im) pairs.  Distinctness is
    taken on the uint64 view, so -0.0 and 0.0 (and NaN payloads) stay apart.
    """
    if np.iscomplexobj(values):
        floats = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
        floats = floats.reshape(values.shape + (2,))
    else:
        floats = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(floats.view(np.uint64).ravel(), return_inverse=True)
    strings = np.array([render(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse].reshape(floats.shape)


def _int_tokens(values: np.ndarray) -> np.ndarray:
    """int.__repr__ of each entry of an integer array, called once per distinct value."""
    distinct, inverse = np.unique(values.ravel(), return_inverse=True)
    strings = np.array([str(x) for x in distinct.tolist()], dtype=object)
    return strings[inverse].reshape(values.shape)


def _json_nested(tokens: np.ndarray, level: int) -> str:
    """The rendered scalars in tokens laid out as json.dumps(tokens.tolist(), indent=1).

    level is the indent level of the line the opening bracket sits on.  The
    layout is one join: between two consecutive scalars, j lists close and
    j open again, where j counts the trailing dimensions whose boundary lies
    between them, so only ndim distinct separators occur.
    """
    shape = tokens.shape
    if tokens.size == 0:  # empty lists print as [], which the separators do not model
        text = json.dumps(tokens.tolist(), indent=1)
        return text.replace("\n", "\n" + " " * level)
    m = len(shape)
    depth = level + m  # indent of the scalars

    def closing(j):
        return "".join("\n" + " " * (depth - 1 - t) + "]" for t in range(j))

    def opening(j):
        return "".join("[\n" + " " * (depth - j + 1 + t) for t in range(j))

    separators = np.array([closing(j) + ",\n" + " " * (depth - j) + opening(j) for j in range(m)], dtype=object)
    flat = np.arange(1, tokens.size)
    crossed = np.zeros(tokens.size - 1, dtype=np.intp)
    for stride in np.cumprod(shape[:0:-1]):
        crossed += flat % stride == 0
    out = np.empty(2 * tokens.size - 1, dtype=object)
    out[0::2] = tokens.ravel()
    out[1::2] = separators[crossed]
    return opening(m) + "".join(out.tolist()) + closing(m)


def _exponent_tokens(exponents: np.ndarray) -> np.ndarray:
    """_int_tokens of the exponents; ValueError unless their dtype is an integer one.

    Only integer exponents parse back, so a float layer, even an integral
    one, is refused rather than written as a record its parser rejects or
    reads as other values.
    """
    exponents = np.asarray(exponents)
    if exponents.dtype.kind not in "iu":
        raise ValueError(f"exponents must have an integer dtype, got {exponents.dtype}")
    return _int_tokens(exponents)


_BODY = '\n "entries": 0,\n "exponents": 0,\n'


def to_json(record: ExportRecord) -> str:
    """json.dumps(doc, indent=1, sort_keys=True) of the record, byte for byte.

    The header comes from json.dumps with placeholders; the two arrays are
    spliced in with each distinct value rendered once.  Keys are sorted and
    JSON strings hold no raw newline, so the placeholder lines occur once,
    right after "complex".
    """
    doc = {
        "format": MAGIC,
        "version": VERSION,
        "kind": record.kind,
        "order": record.order,
        "k": record.k,
        "theta": record.theta,
        "complex": record.is_complex,
        "metadata": record.metadata,
        "entries": 0,
        "exponents": 0,
    }
    head, _, tail = json.dumps(doc, indent=1, sort_keys=True).partition(_BODY)
    entries = _json_nested(_float_tokens(record.entries, _json_float), 1)
    exponents = "null" if record.exponents is None else _json_nested(_exponent_tokens(record.exponents), 1)
    return f'{head}\n "entries": {entries},\n "exponents": {exponents},\n{tail}\n'


def _fmt(x: float) -> str:
    return repr(float(x))


def _text_rows(tokens: np.ndarray) -> list[str]:
    return [" ".join(row.ravel().tolist()) for row in tokens]


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
    lines += _text_rows(_float_tokens(record.entries, float.__repr__))
    if record.exponents is not None:
        lines.append("exponents")
        lines += _text_rows(_exponent_tokens(record.exponents))
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


_EXPONENT_RULE = "exponents must be integers in {-1, 0, 1}"


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


def _json_typed(value: Any, types: tuple[type, ...], dtype: type, rule: str) -> tuple[np.ndarray, list]:
    """An empty array of dtype in the shape of a nested JSON list, and the list's scalars in order.

    The lists are walked one level at a time, as numpy finds a shape: a
    level of lists that all have one length adds an axis, and the first
    level that is not all lists holds the scalars.  RecordParseError(rule)
    unless every scalar has one of types (type, not isinstance, so a bool
    is not a number here); a ragged list leaves a list or a second length
    at some level, and more axes than numpy has fail too.  The caller fills
    the array with the scalars, after any check of its shape.
    """
    shape, level = [], [value]
    while (kinds := set(map(type, level))) == {list}:
        lengths = set(map(len, level))
        if len(lengths) > 1:
            raise RecordParseError(rule)
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    if not kinds <= set(types):
        raise RecordParseError(rule)
    try:
        return np.empty(shape, dtype), level
    except ValueError as exc:  # past numpy's maximum number of axes
        raise RecordParseError(rule) from exc


def _json_int(doc: dict, key: str) -> int:
    value = doc[key]
    if type(value) is not int:
        raise RecordParseError(f"{key} must be an integer, got {value!r}")
    return value


def _json_entries(value: Any, is_complex: bool) -> np.ndarray:
    values, scalars = _json_typed(value, (int, float), np.float64, "entries must be equal-length lists of JSON numbers")
    if is_complex and (values.ndim != 3 or values.shape[2] != 2):
        raise RecordParseError(f"complex entries must be rows of [re, im] pairs, got shape {values.shape}")
    if not is_complex and values.ndim != 2:
        raise RecordParseError(f"real entries must be rows of numbers, got shape {values.shape}")
    values.reshape(-1)[:] = scalars  # an int past the float range raises OverflowError
    return values.view(np.complex128).reshape(values.shape[:2]) if is_complex else values


class _FloatTable(dict):
    """float(token) for each JSON number token, converted on its first lookup only.

    The decoder hands parse_float the very string it would give float, so the
    values are the same bit for bit (-0.0 stays apart from 0.0, 1E400 is inf).
    """

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _parse_json(text: str) -> ExportRecord:
    try:
        # a record holds few distinct floats, so most tokens are a dict hit, not a strtod
        doc = json.loads(text, parse_float=_FloatTable().__getitem__)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise RecordParseError(f"invalid JSON: {exc}") from exc
    try:
        if doc["format"] != MAGIC:
            raise RecordParseError(f"unexpected format tag {doc['format']!r}")
        if type(doc["version"]) is not int or doc["version"] != VERSION:
            raise RecordParseError(f"unsupported version {doc['version']!r}")
        kind, order, k = doc["kind"], _json_int(doc, "order"), _json_int(doc, "k")
        _validate_header(kind, order, k)
        if type(doc["theta"]) not in (int, float):
            raise RecordParseError(f"theta must be a number, got {doc['theta']!r}")
        if type(doc["complex"]) is not bool:
            raise RecordParseError(f"complex must be true or false, got {doc['complex']!r}")
        entries = _json_entries(doc["entries"], doc["complex"])
        exponents = None
        if doc["exponents"] is not None:
            values, scalars = _json_typed(doc["exponents"], (int,), np.int64, _EXPONENT_RULE)
            values.reshape(-1)[:] = scalars  # an int past the int64 range raises OverflowError
            if not np.isin(values, (-1, 0, 1)).all():
                raise RecordParseError(_EXPONENT_RULE)
            exponents = values.astype(np.int8)
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
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise RecordParseError(f"malformed record document: {exc}") from exc


# the text tokens the writer produces, in ASCII; int() and float() alone
# would also take signs, underscores and non-ASCII digits
_DIGITS = re.compile(r"[0-9]+")
_FLOAT = re.compile(r"-?(inf|nan|[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?)")
_EXPONENT = re.compile(r"-1|0|1")
_HEADER_TOKENS = dict(order=_DIGITS, k=_DIGITS, rows=_DIGITS, cols=_DIGITS, theta=_FLOAT, complex=re.compile("[01]"))


def _text_block(lines: list[str], rows: int, width: int, convert, pattern, dtype, what: str) -> np.ndarray:
    """rows lines of width tokens as one array, checking and converting each distinct token once."""
    if len(lines) != rows:
        raise RecordParseError(f"{what} section ends after {len(lines)} of {rows} rows")
    tokens: list[str] = []
    for line in lines:
        row = line.split(" ")
        if len(row) != width:
            raise RecordParseError(f"{what} row has {len(row)} tokens, expected {width}")
        tokens += row
    table = {}
    for token in dict.fromkeys(tokens):  # file order, so the first bad token is named
        if not pattern.fullmatch(token):
            raise RecordParseError(f"malformed {what} token {token!r}")
        table[token] = convert(token)
    return np.fromiter(map(table.__getitem__, tokens), dtype=dtype, count=len(tokens)).reshape(rows, width)


def _parse_text(text: str) -> ExportRecord:
    # the writer separates lines by "\n" and tokens by " " only; splitlines()
    # and split() would also take other Unicode line breaks and spaces
    lines = text.split("\n")
    try:
        if lines[0] != f"{MAGIC} {VERSION}":
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
        for key, pattern in _HEADER_TOKENS.items():
            if not pattern.fullmatch(header[key]):
                raise RecordParseError(f"header {key} must match {pattern.pattern}, got {header[key]!r}")
        kind, order, k = header["kind"], int(header["order"]), int(header["k"])
        _validate_header(kind, order, k)
        rows, cols = int(header["rows"]), int(header["cols"])
        is_complex = header["complex"] == "1"
        width = 2 * cols if is_complex else cols
        entries = _text_block(lines[pos : pos + rows], rows, width, float, _FLOAT, np.float64, "entry")
        if is_complex:
            entries = entries.view(np.complex128)
        pos += rows
        exponents = None
        if pos < len(lines) and lines[pos] == "exponents":
            pos += 1
            exponents = _text_block(lines[pos : pos + rows], rows, cols, int, _EXPONENT, np.int8, "exponent")
            pos += rows
        if pos >= len(lines) or lines[pos] != "end":
            raise RecordParseError("missing end marker")
        return ExportRecord(
            kind=kind,
            order=order,
            k=k,
            theta=float(header["theta"]),
            entries=entries,
            exponents=exponents,
            metadata=_metadata(json.loads(header["metadata"])),
        )
    except RecordParseError:
        raise
    except (KeyError, ValueError, IndexError, OverflowError, RecursionError) as exc:
        raise RecordParseError(f"malformed text record: {exc}") from exc


def parse(text: str) -> ExportRecord:
    """Parse either serialization, sniffing JSON by its leading brace."""
    stripped = text.lstrip()
    record = _parse_json(text) if stripped.startswith("{") else _parse_text(text)
    _validate_shapes(record)
    return record


def read_record(path: str) -> ExportRecord:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise RecordParseError(f"record is not UTF-8 text: {exc}") from exc
    return parse(text)


def write_record(record: ExportRecord, path: str, fmt: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(record, fmt))
