"""Export record serialization: lossless round-trips, determinism, parsing."""

from __future__ import annotations

import numpy as np
import pytest

from isoclinic import (
    RecordParseError,
    build_conference,
    critical_omega,
    make_field,
    parse,
    read_record,
    serialize,
    write_record,
)
from isoclinic.cli import build_record
from isoclinic.export import KINDS, records_equal

ALL_KINDS = list(KINDS)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_roundtrip_lossless(kind, fmt):
    record = build_record(kind, 5)
    text = serialize(record, fmt)
    back = parse(text)
    assert records_equal(back, record)
    # floats survive bit-exactly, so a second serialization is byte-identical
    assert serialize(back, fmt) == text


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_serialization_deterministic(fmt):
    a = serialize(build_record("conference", 3), fmt)
    b = serialize(build_record("conference", 3), fmt)
    assert a == b


def test_metadata_regenerates_matrix_bit_identically():
    record = build_record("conference", 7)
    meta = record.metadata
    field = make_field(meta["p"], meta["alpha"])
    assert list(field.modulus) == meta["modulus"]
    omega = complex(*meta["omega"])
    assert omega == critical_omega(7)
    C = build_conference(field, omega)
    assert np.array_equal(C.values, record.entries)
    assert np.array_equal(C.exponents, record.exponents)


def test_text_format_shape():
    record = build_record("conference", 3)
    lines = serialize(record, "text").splitlines()
    assert lines[0] == "isoclinic-record 1"
    assert lines[-1] == "end"
    assert "entries" in lines and "exponents" in lines


def test_file_roundtrip(tmp_path):
    record = build_record("seidel", 3)
    path = tmp_path / "s.txt"
    write_record(record, str(path), "text")
    assert records_equal(read_record(str(path)), record)


def test_parse_sniffs_format():
    record = build_record("hadamard", 3)
    assert records_equal(parse(serialize(record, "json")), record)
    assert records_equal(parse(serialize(record, "text")), record)


def test_parse_rejects_garbage():
    with pytest.raises(RecordParseError):
        parse("not a record at all\n")
    with pytest.raises(RecordParseError):
        parse("{}")
    with pytest.raises(RecordParseError):
        parse('{"format": "something-else", "version": 1}')


def test_parse_rejects_truncation():
    record = build_record("conference", 3)
    text = serialize(record, "text")
    truncated = "\n".join(text.splitlines()[:-3]) + "\n"
    with pytest.raises(RecordParseError):
        parse(truncated)


def test_parse_rejects_bad_kind():
    text = serialize(build_record("conference", 3), "text")
    with pytest.raises(RecordParseError):
        parse(text.replace("kind conference", "kind mystery"))


def test_parse_rejects_row_width_mismatch():
    text = serialize(build_record("conference", 3), "text")
    lines = text.splitlines()
    start = lines.index("entries") + 1
    lines[start] = lines[start] + " 0.0"
    with pytest.raises(RecordParseError):
        parse("\n".join(lines) + "\n")


def _drop_last_column(record):
    record.entries = record.entries[:, :-1]
    return record


def _exponents_out_of_range(record):
    record.exponents = record.exponents.astype(np.int64)
    record.exponents[0, 1] = 300
    return record


def _order_too_small(record):
    record.order -= 2
    return record


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "kind,mutate",
    [
        ("gram", _drop_last_column),
        ("planes", _drop_last_column),
        ("planes", _order_too_small),
        ("seidel", _order_too_small),
        ("conference", _exponents_out_of_range),
    ],
)
def test_parse_rejects_inconsistent_body(kind, mutate, fmt):
    text = serialize(mutate(build_record(kind, 3)), fmt)
    with pytest.raises(RecordParseError):
        parse(text)


def test_parse_rejects_fractional_exponents():
    # the text format writes exponents as integers, so only JSON can carry these
    record = build_record("conference", 3)
    record.exponents = record.exponents * 0.5
    with pytest.raises(RecordParseError, match="exponents must be integers"):
        parse(serialize(record, "json"))


def test_parse_rejects_exponent_shape_mismatch():
    record = build_record("conference", 3)
    record.exponents = record.exponents[:4, :4]
    with pytest.raises(RecordParseError, match="exponents have shape"):
        parse(serialize(record, "json"))


def test_serialize_unknown_format():
    with pytest.raises(ValueError):
        serialize(build_record("conference", 3), "yaml")
