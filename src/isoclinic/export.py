"""Self-describing export records and their two serializations.

A record carries one matrix (complex or real), an optional integer exponent
layer, and enough metadata to regenerate the matrix bit-identically:
field characteristic and degree, modulus, the unit scalar omega, and the
angle parameters.  Complex numbers are serialized as [re, im] pairs and
floats with shortest round-trip precision, so parsing reproduces every
entry exactly and repeated exports are byte-identical.

Two formats are supported: `json` (a single JSON document) and `text`
(key/value header lines followed by whitespace-separated rows, with the
metadata dict as one embedded JSON line).  Both round-trip losslessly: a
parsed record equals the written one field by field, its arrays bit for bit,
which the tests compare with their own helper.
A record holds few distinct floats, so the writer renders and the parser
converts each distinct number once; the writer finds them with one sort
(_distinct).  The writer produces the document as row-sized pieces, which
serialize joins and write_record writes one by one, over the target's old
bytes rather than into a truncated file.
Both readers convert row by row: the text reader splits one line at a time,
and the JSON reader walks each array row as soon as it is scanned, keeping
only its scalars.  A text record's parse error names its first bad token in
file order.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import sys
from dataclasses import dataclass, field
from itertools import chain
from json.decoder import JSONArray, JSONObject
from typing import Any, Iterator

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


def _json_float(x: float) -> str:
    """A float as json.dumps writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of a 1-d integer array and the index of each entry among them.

    What np.unique(values, return_inverse=True) gives, by one sort of the
    values instead of an argsort: the first sorted entry and each one that
    differs from its neighbour are the distinct ones, and a binary search
    finds each entry's index.
    """
    ordered = np.sort(values)
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    return distinct, np.searchsorted(distinct, values)


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
    bits, inverse = _distinct(floats.view(np.uint64).ravel())
    strings = np.array([render(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse].reshape(floats.shape)


def _json_nested(tokens: np.ndarray, level: int) -> Iterator[str]:
    """The rendered scalars in tokens laid out as json.dumps(tokens.tolist(), indent=1), one piece per row.

    level is the indent level of the line the opening bracket sits on.
    Between two consecutive scalars, j lists close and j open again, where j
    counts the trailing dimensions whose boundary lies between them, so only
    ndim distinct separators occur.  Every stride divides the row length, so
    all rows of the first axis share one row of separators, and only the last
    row closes the array.
    """
    shape = tokens.shape
    if tokens.size == 0:  # empty lists print as [], which the separators do not model
        yield json.dumps(tokens.tolist(), indent=1).replace("\n", "\n" + " " * level)
        return
    m = len(shape)
    depth = level + m  # indent of the scalars

    def closing(j):
        return "".join("\n" + " " * (depth - 1 - t) + "]" for t in range(j))

    def opening(j):
        return "".join("[\n" + " " * (depth - j + 1 + t) for t in range(j))

    separators = np.array([closing(j) + ",\n" + " " * (depth - j) + opening(j) for j in range(m)], dtype=object)
    width = tokens.size // shape[0]
    crossed = np.zeros(width, dtype=np.intp)
    for stride in np.cumprod(shape[:0:-1]):
        crossed += np.arange(1, width + 1) % stride == 0
    out = np.empty(2 * width, dtype=object)
    out[1::2] = separators[crossed]  # the last one crosses into the next row
    yield opening(m)
    for i, row in enumerate(tokens.reshape(shape[0], width)):
        if i == shape[0] - 1:
            out[-1] = closing(m)
        out[0::2] = row
        yield "".join(out.tolist())


def _exponent_tokens(exponents: np.ndarray) -> np.ndarray:
    """int.__repr__ of each exponent, called once per distinct value; ValueError unless their dtype is an integer one.

    Only integer exponents parse back, so a float layer, even an integral
    one, is refused rather than written as a record its parser rejects or
    reads as other values.
    """
    exponents = np.asarray(exponents)
    if exponents.dtype.kind not in "iu":
        raise ValueError(f"exponents must have an integer dtype, got {exponents.dtype}")
    distinct, inverse = _distinct(exponents.ravel())
    strings = np.array([str(x) for x in distinct.tolist()], dtype=object)
    return strings[inverse].reshape(exponents.shape)


_BODY = '\n "entries": 0,\n "exponents": 0,\n'


def record_pieces(record: ExportRecord, fmt: str) -> Iterator[str]:
    """The record serialized as fmt, in pieces of at most one array row each.

    Every check that can refuse the record (an unknown format, an exponent
    layer whose dtype is not an integer one, metadata that json.dumps cannot
    write) raises before the first piece, so a writer that takes the first
    piece before it opens its target never leaves a partial document.
    """
    if fmt not in ("json", "text"):
        raise ValueError(f"unknown format {fmt!r}")
    entries = _float_tokens(record.entries, _json_float if fmt == "json" else float.__repr__)
    exponents = None if record.exponents is None else _exponent_tokens(record.exponents)
    yield from (_json_pieces if fmt == "json" else _text_pieces)(record, entries, exponents)


def _json_pieces(record: ExportRecord, entries: np.ndarray, exponents: np.ndarray | None) -> Iterator[str]:
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
    yield head + '\n "entries": '
    yield from _json_nested(entries, 1)
    yield ',\n "exponents": '
    if exponents is None:
        yield "null"
    else:
        yield from _json_nested(exponents, 1)
    yield f",\n{tail}\n"


def _text_pieces(record: ExportRecord, entries: np.ndarray, exponents: np.ndarray | None) -> Iterator[str]:
    """The text record, one line per piece after the header, each ending in a newline."""
    rows, cols = record.entries.shape
    header = [
        f"{MAGIC} {VERSION}",
        f"kind {record.kind}",
        f"order {record.order}",
        f"k {record.k}",
        f"theta {float(record.theta)!r}",
        f"complex {int(record.is_complex)}",
        "metadata " + json.dumps(record.metadata, sort_keys=True),
        f"rows {rows}",
        f"cols {cols}",
        "entries",
    ]
    yield "\n".join(header) + "\n"
    for row in entries:
        yield " ".join(row.ravel().tolist()) + "\n"
    if exponents is not None:
        yield "exponents\n"
        for row in exponents:
            yield " ".join(row.tolist()) + "\n"
    yield "end\n"


def serialize(record: ExportRecord, fmt: str) -> str:
    return "".join(record_pieces(record, fmt))


def _validate_header(kind: str, order: int, k: int) -> None:
    if kind not in KINDS:
        raise RecordParseError(f"unknown record kind {kind!r}")
    # the checks read k as a float, so a k past the float range is as implausible as k < 3
    if order < 1 or not 3 <= k <= sys.float_info.max:
        raise RecordParseError(f"implausible header: order={order}, k={k}")


_EXPONENT_RULE = "exponents must be integers in {-1, 0, 1}"


def _validate_shapes(record: ExportRecord) -> None:
    """RecordParseError unless the arrays are of the shape and kind of number that record.kind holds."""
    # the checks index entries by the header order, so a disagreement must
    # stop here rather than surface as a broadcast error downstream
    kind, shape, order = record.kind, record.entries.shape, record.order
    if kind == "planes":
        ok = len(shape) == 2 and shape[0] == order and shape[1] > 0 and shape[1] % 2 == 0
        expected = f"({order}, even)"
    else:
        ok = shape == (order, order)
        expected = f"({order}, {order})"
    if not ok:
        raise RecordParseError(f"{kind} entries have shape {shape}, header implies {expected}")
    if record.exponents is not None and record.exponents.shape != shape:
        raise RecordParseError(f"exponents have shape {record.exponents.shape}, entries {shape}")
    # the 2 x 2 diagonal blocks of S and A pair up rows and columns
    if kind in ("seidel", "gram") and order % 2:
        raise RecordParseError(f"{kind} record order must be even")
    # the checks read S, A and the basis as float64, which would drop an imaginary part
    if kind in ("seidel", "gram", "planes") and record.is_complex:
        raise RecordParseError(f"{kind} entries must be real, got complex ones")


def _json_walk(value: Any) -> tuple[tuple[int, ...], set[type], list]:
    """The shape numpy finds for a nested JSON list, the types of its scalars, and the scalars in order.

    The lists are walked one level at a time, as numpy finds a shape: a
    level of lists that all have one length adds an axis, and the first
    level that is not all lists holds the scalars.  A ragged list stops the
    walk at a level of lists of two lengths, or of lists beside scalars, so
    list stays among the types.
    """
    shape, level = [], [value]
    while (kinds := set(map(type, level))) == {list} and len(lengths := set(map(len, level))) == 1:
        shape.append(lengths.pop())
        level = list(chain.from_iterable(level))
    return tuple(shape), kinds, level


def _json_typed(value: Any, types: tuple[type, ...], dtype: type, rule: str) -> tuple[np.ndarray, tuple[list, ...]]:
    """An empty array of dtype in the shape of a JSON value, and the value's scalars row by row.

    _parse_json reads a JSON array as the list of its rows' _json_walk;
    the rows must share one shape, and their number is the first axis.  Any
    other value is walked whole, as one row of no axis of its own.
    RecordParseError(rule) unless every scalar has one of types (type, not
    isinstance, so a bool is not a number here); a ragged list, and more
    axes than numpy has, fail too.  The caller fills the array with
    _json_fill, after any check of its shape.
    """
    # an empty array has no row to walk, but walked whole it has the shape (0,)
    rows, lead = (value, (len(value),)) if value and type(value) is list else ([_json_walk(value)], ())
    shapes, kinds, scalars = zip(*rows)
    if len(set(shapes)) > 1 or not set().union(*kinds) <= set(types):
        raise RecordParseError(rule)
    try:
        return np.empty(lead + shapes[0], dtype), scalars
    except ValueError as exc:  # past numpy's maximum number of axes
        raise RecordParseError(rule) from exc


def _json_fill(values: np.ndarray, rows: tuple[list, ...]) -> np.ndarray:
    """values filled row by row with the scalars that _json_typed gives; OverflowError for an int past dtype's range."""
    for target, scalars in zip(values.reshape(len(rows), values.size // len(rows)), rows):
        target[:] = scalars
    return values


def _json_int(doc: dict, key: str) -> int:
    if type(doc[key]) is not int:
        raise RecordParseError(f"{key} must be an integer, got {doc[key]!r}")
    return doc[key]


def _json_entries(value: Any, is_complex: bool) -> np.ndarray:
    values, rows = _json_typed(value, (int, float), np.float64, "entries must be equal-length lists of JSON numbers")
    if is_complex and (values.ndim != 3 or values.shape[2] != 2):
        raise RecordParseError(f"complex entries must be rows of [re, im] pairs, got shape {values.shape}")
    if not is_complex and values.ndim != 2:
        raise RecordParseError(f"real entries must be rows of numbers, got shape {values.shape}")
    _json_fill(values, rows)  # an int past the float range raises OverflowError
    return values.view(np.complex128).reshape(values.shape[:2]) if is_complex else values


class _TokenTable(dict):
    """convert(token) for each number token, converted on its first lookup only.

    With a pattern, a token that does not fully match it raises a
    RecordParseError naming the token and what it stands for; a text record
    is read in file order, so the first bad token is the one named.  As the
    JSON parse_float hook it takes the very string the decoder would give
    float, so the values are the same bit for bit (-0.0 stays apart from 0.0,
    1E400 is inf).
    """

    def __init__(self, convert, pattern: re.Pattern | None = None, what: str = "") -> None:
        super().__init__()
        self.convert, self.pattern, self.what = convert, pattern, what

    def __missing__(self, token: str):
        if self.pattern is not None and not self.pattern.fullmatch(token):
            raise RecordParseError(f"malformed {self.what} token {token!r}")
        value = self[token] = self.convert(token)
        return value


class _KeyMemo(dict):
    """The key memo of json.decoder.JSONObject, which also keeps the key it was handed last."""

    def setdefault(self, key, default=None):
        self.key = key
        return super().setdefault(key, default)


def _parse_json(text: str) -> tuple:
    """The ExportRecord fields of a JSON document, theta and metadata as read; see parse.

    The stdlib's own parts decode the document, so every value and every
    error is the one json.loads gives: JSONObject walks the top-level
    object, JSONArray the entries and exponents arrays, and the C scanner
    reads each of their rows and every other value.  Each row is walked
    (_json_walk) as soon as it is read and its nested lists dropped, so no
    array is held as nested lists.  Only the recursion limit can tell the two
    apart: the scanner starts a row at another stack depth than json.loads
    would, so for a row nested within a few levels of the limit one of them
    may raise RecursionError where the other reaches the entries rule; both
    are parse errors.
    """
    # a record holds few distinct floats, so most tokens are a dict hit, not a strtod
    decoder = json.JSONDecoder(parse_float=_TokenTable(float).__getitem__)
    scan, memo = decoder.scan_once, _KeyMemo()

    def row(s: str, end: int) -> tuple:
        value, end = scan(s, end)
        return _json_walk(value), end

    def member(s: str, end: int) -> tuple:  # the value of the key the memo saw last
        if memo.key in ("entries", "exponents") and s.startswith("[", end):
            return JSONArray((s, end + 1), row)
        return scan(s, end)

    # the document: JSONObject reads an object, and the C scanner anything else, as json.loads does
    decoder.scan_once = lambda s, end: (
        JSONObject((s, end + 1), decoder.strict, member, None, None, memo) if s.startswith("{", end) else scan(s, end)
    )
    try:
        doc = decoder.decode(text)
    # a JSONDecodeError is a ValueError, and so is an int token of more digits than int() converts
    except (ValueError, RecursionError) as exc:
        raise RecordParseError(f"invalid JSON: {exc}") from exc
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
        # an int past the int64 range raises OverflowError
        values = _json_fill(*_json_typed(doc["exponents"], (int,), np.int64, _EXPONENT_RULE))
        if not np.isin(values, (-1, 0, 1)).all():
            raise RecordParseError(_EXPONENT_RULE)
        exponents = values.astype(np.int8)
    return kind, order, k, doc["theta"], entries, exponents, doc["metadata"]


# the text tokens the writer produces, in ASCII; int() and float() alone
# would also take signs, underscores and non-ASCII digits
_DIGITS = re.compile(r"[0-9]+")
_FLOAT = re.compile(r"-?(inf|nan|[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?)")
_EXPONENT = re.compile(r"-1|0|1")
_HEADER_TOKENS = dict(order=_DIGITS, k=_DIGITS, rows=_DIGITS, cols=_DIGITS, theta=_FLOAT, complex=re.compile("[01]"))


def _text_block(lines: list[str], rows: int, width: int, convert, pattern, dtype, what: str) -> np.ndarray:
    """rows lines of width tokens as one array, read row by row with each distinct token checked and converted once.

    Every row's token count is checked before any token is, so a short or
    long row is named even when an earlier row holds a bad token.
    """
    if len(lines) != rows:
        raise RecordParseError(f"{what} section ends after {len(lines)} of {rows} rows")
    for line in lines:
        if (count := line.count(" ") + 1) != width:
            raise RecordParseError(f"{what} row has {count} tokens, expected {width}")
    values = np.empty((rows, width), dtype)
    lookup = _TokenTable(convert, pattern, what).__getitem__
    for i, line in enumerate(lines):
        values[i] = np.fromiter(map(lookup, line.split(" ")), dtype, width)
    return values


def _parse_text(text: str) -> tuple:
    """The ExportRecord fields of a text record, theta and metadata as read; see parse."""
    # the writer separates lines by "\n" and tokens by " " only; splitlines()
    # and split() would also take other Unicode line breaks and spaces
    lines = text.split("\n")
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
    return kind, order, k, header["theta"], entries, exponents, json.loads(header["metadata"])


def parse(text: str) -> ExportRecord:
    """Parse either serialization, sniffing JSON by its leading brace.

    Each reader returns the record's fields; an exception that is not a
    RecordParseError becomes one here, named after the format, and the
    arrays must then hold what the record's kind holds (_validate_shapes).
    """
    is_json = text.lstrip().startswith("{")
    try:
        kind, order, k, theta, entries, exponents, metadata = (_parse_json if is_json else _parse_text)(text)
        if not isinstance(metadata, dict):
            raise RecordParseError(f"metadata must be a JSON object, got {metadata!r}")
        record = ExportRecord(kind, order, k, float(theta), entries, exponents, metadata)
    except RecordParseError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, RecursionError) as exc:
        raise RecordParseError(f"malformed {'record document' if is_json else 'text record'}: {exc}") from exc
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
    """Write the record to path piece by piece, over what path held; a record it refuses leaves path untouched.

    The target is not truncated when it is opened: the record is written
    over its old bytes, and only then is a regular file cut at the record's
    end.  Truncating a written file to zero first frees all its blocks,
    and closing it then starts writeback, which costs more than the write
    on some file systems.  Opened like this, an existing target keeps its
    inode, mode bits and hard links, and a symlink is followed, as with
    O_TRUNC.  A device or a pipe, such as /dev/null, gets the bytes and no
    cut.  Nothing is synced, so no complete file is promised after a write
    that fails halfway: it leaves the new bytes over the old document's
    tail, where a truncating open left only the new bytes written so far.
    """
    pieces = record_pieces(record, fmt)
    head = next(pieces)  # every check runs before the first piece
    # TextIOWrapper hands on about 8 KiB at a time; the larger buffer batches them into fewer writes
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8", buffering=1 << 16) as fh:
        fh.write(head)
        fh.writelines(pieces)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()  # the old document's tail, when it was longer
