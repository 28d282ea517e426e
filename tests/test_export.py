"""Export record serialization: lossless round-trips, determinism, parsing."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import re
import stat
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoclinic import (
    RecordParseError,
    build_conference,
    build_gram,
    build_seidel,
    critical_omega,
    extract_bases,
    make_field,
    parse,
    read_record,
    serialize,
    write_record,
)
from isoclinic import export, planes
from isoclinic.cli import EXIT_PARSE, build_record, main
from isoclinic.export import KINDS

ALL_KINDS = list(KINDS)


def records_equal(a, b):
    """Every field of two records equal, the arrays entry by entry and in shape."""
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
    # the writers refuse a float exponent layer, so the halved exponents are put into the JSON document
    doc = json.loads(serialize(build_record("conference", 3), "json"))
    doc["exponents"] = [[e * 0.5 for e in row] for row in doc["exponents"]]
    with pytest.raises(RecordParseError, match="exponents must be integers"):
        parse(json.dumps(doc))


def test_parse_rejects_exponent_shape_mismatch():
    record = build_record("conference", 3)
    record.exponents = record.exponents[:4, :4]
    with pytest.raises(RecordParseError, match="exponents have shape"):
        parse(serialize(record, "json"))


def test_serialize_unknown_format():
    with pytest.raises(ValueError):
        serialize(build_record("conference", 3), "yaml")


# SHA-256 of serialize(build_record(kind, k), fmt), unchanged since the
# per-entry writer: exports are byte-identical across versions of the writer.
# The planes rows pin the record in the eigh gauge, the basis build_record
# wrote before the character-sum extraction (_eigh_gauge_planes_record), so
# the writer stays pinned on unchanged input; TABLE_PLANES_DIGESTS pins the
# planes records build_record writes now.
PINNED_DIGESTS = """
3 conference json defebaa8340f6bb44e7ab1e4a05c1fd87930e4269bd47c45c259dcf25789f22b
3 conference text b36233608580c422ca79ce7b76766e5a96b194b8fc6abb289f3380c45ec68fe4
3 seidel json 2fe53f488868e28418e92cb6bfe3da49428e8cedb65ec82c226ff620a8823f9b
3 seidel text 27e312d69e83892a9f784164d0d870981c5363e2f97f2c4d7d5400324f52f9ec
3 gram json bad8559f799774ebdaeadc67f5f9e2b7aaa30778856782fde58aa5753bbca612
3 gram text 381b6aae11c54cc12e3c38f32887a097a5ff96ae5008739be8c8c11c40badc6c
3 planes json 15d73f701c3adced1c5b8babc009cc8ee9572ca10adf1091fa82f7ad0ef8866e
3 planes text ddd0d7bce850b7069baed0da1d5200d76f09c20860013b9ff31b78f4dc7ee074
3 hadamard json 020a9501d7e87e60e1a47cf74f2234ffa5e1a3119acc5a1ad1753c9b38bbc6c2
3 hadamard text b21abc89c1796fad54c86e76baa9c88799ff1c80ad9b6a9b956b074c6f93d8ec
5 conference json 1a2506f5349f388a0abe805df73e36d76e505c7355d77504a01914699e3cfa96
5 conference text 013f31e004bcfb78de3b237c385a37931ed0f7480d813fbbdf3bccdde0190413
5 seidel json d03d968d69bd19a5b766898378267db77201d970e42eed9e85949bf7dc1b2206
5 seidel text 4a38bb9ec46d5927966dcbb00798bcc6cc518619c9eec11b5561230a56e55ef3
5 gram json 4407008147af62cb2deb828fd0e52e4f6ab2bdad8d720e94d04a0a6328016621
5 gram text cc160b3139cd4e429cfc1b93f5f7769279ac657f53bd3de74b140a57c3aef165
5 planes json 7ec115cc3e4b2f536c772bfdf0863f57796e0e2b43038e5dd397bd20ea644793
5 planes text 528736e11e8262a6df13ebcf4d44c5faa4d61845af8e4be78de5f4dfed9b58fd
5 hadamard json 5a7cadc76bf0b628d3fa2a577b88bde28579b03f28566aaed254e7962719e5b9
5 hadamard text d02f7288998e2f68a88ff6aea3ebfcc5170840bcb0b9e022ea2ba29a9df5ec2e
7 conference json 7bec8ed55b5645979f7fcdba11ce204859f8ac8d11b3fc19ef0b161e606fc3ed
7 conference text ce39613406271f654e30330ad2b08fd0c7e830e30a3a7997befb7ae67430985e
7 seidel json f55a0ea26a38c44f646c8b755c8d7ac0c3f711f9692805d6c5511841579e6fb4
7 seidel text f9c64decafcbfb037f4b8aecffd2dc72339f42265cc36e3540451c5cbfac6b23
7 gram json 3d15026b67a47d1c7bc87aef59fb940e269987a13aaa9b4af78d2d850d41203b
7 gram text f5461d5c3d0e9eea196e5354b7dbdfc30ccccf72a43794e4b56233ac46e5db0a
7 planes json 913e447b5a9231435b456ee63876281f6e419e62e655917498ec464ccf0d4162
7 planes text 36a78d53b75b87a6fb7e1595d158dd373b4e6f773d1f6abf0a9b50adc03b902f
7 hadamard json 1b59c354fe65ae8f77cef3aa434fc4d47ec49aa2bc1f6b07d0a6d5db1c57bfcc
7 hadamard text 011fd89fe638038667fd7a43de01a50627d6e13ed915d6366bc6e1707c1f7e5e
13 conference json 631f1082a3d405aa132f48466b851c65074805177014abb6076eeffb164aca42
13 conference text bb7e400229cdcd7996043622c72ffd146991c2175a986fafbdaddce202ce7b77
13 seidel json 1c53a9702db0dfa4b0367a621339d33910802a3f315eb9d3dbd7f3ad1628e76a
13 seidel text 9c206cef15c31763cd2cf00157e6515f379563f693ecd0dcc6b88c84e66452de
13 gram json e1fd01878b68e5c78e954bf75f8bc66d3d26977675310035837666ab48b4ba96
13 gram text eec510ffa0329cafd28cc3d3fa0645fc29d9931260605c80647ada8af4c79ffa
13 planes json b95219c3468fea851d12302d4abdef8ff2a6ac3dd06a69e89c602836d6fd7541
13 planes text 696fdef12501fb1b2f0147f6a7c9d4f7a24c90a9706e53bf0b898367bcfd1e57
13 hadamard json ac9ffbaccfb759398b6aaef79030b99c65eda9eba93dc56a494b1591811dd5c1
13 hadamard text 3b9cfc00967fa06107b50bcd30a5e1abb332371560838f7ded3d4bf4f8b8aa6a
31 conference json cdadfa94a4f6ec51e47b1c96e4cb3b3cfabbb719d8c226e81ed997510c3344a7
31 conference text 6cea8285e5b782ecb422cc0406b86d56f90c9781b3fdf27197cca3bfbfa1460f
31 seidel json c54165d89b403b6fd510622ebfaded2a4da18d031defd5235f5eb5f6c9d4118a
31 seidel text eb1588ae05e96fc5126802993857190dff36e92ad09678a1d490cecde956f122
31 gram json 1e9edcb11a96238b4fcaaa7128b012d7ac71478019021fc1f126eb716df89a4a
31 gram text 482250fd9fa270e90a8e0d22d14ed5dcf34b719e1c1eb7092c2ae9d83485b3a8
31 planes json 17e72038f0561da590481739de4f5c07d94def22063f030e8d72706271f7ae31
31 planes text b8a7881e52985eff3e4899eb94cf21b57aa1eed596cae2c3b14ac00c17144050
31 hadamard json cb707f24754b067c1df4293fb1a8fba285c81fb5eebaf0b56b8327cee5519184
31 hadamard text 2d785e3d8ecce859b2b9f918afcef64588299a12152c4083e4fcb084ffe865db
41 conference json 4235dce5f7f37382402ebbbf7defcb808f22d5ea1b9df56565111a50d8fae624
41 conference text f9e6d92b5a0f9767707f41dbe29c23f10b1d16ce8567441ab34100b6045c7dc6
41 seidel json 2a99e2c2cc84b297a4c9e97a8c8c4068eb6bd2db5b2173f72a145085ed9c539b
41 seidel text be919c926b91ea3a353495515db94d085a8722e3c4abf7b8f3943220e2cb46a9
41 gram json 61ada730dacf930ccde8b11d94127626803f885f43a391d92521639588431e18
41 gram text a840b6816990f78f61518d28bca20f4e8178a81dd48d23f2f3e5dac5bd2acf63
41 planes json e3a2db5c8889faa98bda9078cf80a3229ca8d6e7e32faf8f855c809ebd3bbdc1
41 planes text 3ec1f0f90276829ff2a98bb7ffb2c5e029ddba8292055dbd0bc3c7b3f8760bed
41 hadamard json 49fa1574ab3f801d8881c0d917083229dc1899288268ad53230c83ad8d53f7e6
41 hadamard text bb7949878e571649a078812c8edb48fa17592d686f09b2d00d4fe01302b5f6a2
61 conference json f552eea56227cc70f13e5bf98b381d2c4aa382120315a1b999403ab85557b9ee
61 conference text aebb45f4f30350f3e6bbe737451d4e6e17413f326460516b2c48e60934ec5986
61 seidel json 628005e1f8604a09c1ac2b7d9459b537e52381667cabfbee415955f3ad62c6e3
61 seidel text a5ef1685792ebda185b0b6d1746ff17d993fd40739415414d8426befe1896ff4
61 gram json 3f22b6354c5334d6689c0dbea5de4cacea7459963df7f39a56ae934ee13d4238
61 gram text 82b8c2a2ac5864473df6a72e193406589307dead381e277e63031d4eaf89c025
61 planes json 7b3bc429672956a0046f9c428f348d77c2f44dd8b43eb11805c90d02398474e4
61 planes text ff23ca201411cb8ecc9fdd738985ef9968dabaa267907dfafad49a7b5a766294
61 hadamard json 98d4c89dd4341c945185d838df0a2c8287a27bb0f80c7a0b3a0df77215f3e295
61 hadamard text e911ef8ac0ef80dafe51151be6c42f03dd0f9b27f898d75baf1d4453d9497bb8
63 conference json 832aaccd11accc939682770990f503c8cc3c58643ccf8112123699561a7b0354
63 conference text 9cb29f1ac9a5149c834c94c6efc8a9ec1d97b45764cd65fac226bf600790378b
63 seidel json 830acf1986324d342aaf827bf9c79e25ed9920a159b9d1cb59700a246f7dee00
63 seidel text 3250ea2b019ab2357d810e44b3b018b5ec50f0c3921c546f6dcbf063327c21cd
63 gram json 550b2f228ea07086825ec6f0fda26827f79ee1ae259f9c0bd265801a13be0714
63 gram text dae5a9a9baf9c25906ef3542647213249b012d97a42759f98744c46a1ef9346a
63 planes json ff445493adb713a0687b0c5b939bb4ab7bf19e30534e04be3a3d173c44514906
63 planes text 8dcae3504a797f620460567a80ee1d1d0e039545978e328272c25296aba4b6cf
63 hadamard json c16a4ea59d71ff4d8a15a8005f12051168da8fe6a371bd867235dcedfd9c823d
63 hadamard text b58563675c41300f81c64918ee9590f18d9e8273bf34319a07c0304c4401b7f7
"""


# SHA-256 of serialize(record, fmt) for the planes record in the gauge that
# build_record wrote before the table form (_interleaved_planes_record): rows
# b = 0, then a cos and a sin row per pair {b, -b}, each (2/sqrt(q)) cos or sin
# times v_b.  Like the eigh-gauge rows above, they keep the writer pinned on
# unchanged input.
PLANES_DIGESTS = """
3 json 69c88d89f088daf217b7c73baf495bc6a4da669277c2f1b1de71311a88f027b0
3 text 927cab33921345bf7375acfb915b1da0ac21ed97e99510e98ed56c90dbc1ad6b
5 json 9ab5a506463542adea0ccc0855e6179746f689968562a23683b97e6ca03fc53d
5 text bcec7f46e7172df99d0c16e7a45f431405fa7b34dc4cb93e367a86a08161380e
7 json a181888feb8f74c1c3e148097f540280b762cdf6b136519bf4eaeb2826bd1350
7 text 130fdfee3f5e8a36363732131cb910df9e4ae584eb50e67eb0df4289ae4abc9c
13 json 79deb383678b169b9ebafa16f62c1ff4844649586b90914922b1830429d08e9a
13 text ff5ff13ee26a39c3828ac50e6cc08f720fa27fe9f71f3f3c54acac9ce8266206
31 json fffa535d358a43312eca45043b97c691b2a9ffec7e13e4d011b203c38c7a6738
31 text b405f2d855a512e5d2738f6b270311cf4ffba5126226612b619ec6ce726b8a11
41 json 70e55b51fd3df3785c7c142909a91dca6913bfdfdab7745471b340b6aa671ca4
41 text a7a24d984c493e041713cb8bda96b0a1ff2191a0ce125906a70e40867b323918
61 json e0fff36e10ceafee595c441b09403f5906d6c65ab74b617a1a2cb8182d2526d7
61 text 654edc1aac39b16ed96fb5099994017d0a5fe11014dd1caccea756628b2edb5e
63 json d000323d707888066f423432486087f5022fc8e3eb6adf3a4cf5364a9a1ee4eb
63 text c5ec7108870eff26e0dc9072a5c566514218540eb914d19343b563789f089a18
"""


# SHA-256 of serialize(build_record("planes", k), fmt): the table basis of the
# character-sum extraction, the cos rows (b = 0 first), then the sin rows, each
# row the table row times the w of its b
TABLE_PLANES_DIGESTS = """
3 json 82695f2a29d2458274541c5c1805ac7c6a33f35f118684f113a4e30c8b5cc778
3 text d1e8bdd179778bc899bf70e498bc077ea4925bf76966da816564f1ba36c8ebf1
5 json e37aca71e8b92626caac9193957ee63bb624bca46ada70691de792cb80b1d314
5 text d84a107a7fd29c94a4c2058c46a2bbad2e38ec832764597bfffd50a2d01e7b8f
7 json 89e81b069da1e91e9ea90d6aa65c1faf7fa1c25f02a9927a976aadccfc98ba32
7 text b27dae0c37bdd498603a7a60345bb9f178ba5915db7a647f926a70a41aaffa63
13 json d3526fb040e37dda5286b5bed4b101e6aad68b1e60b61fa26715eb39363e255d
13 text 3b2a02926c759369c09f6a93a87a3f6927cd39319b94f28d969c039a738a0543
31 json 1c46087bbb9ef133fe6681c8f1f956d6991d27e0846acc99923987eff0ce53ac
31 text 3773f20492b70f439e8b93cba83d8e87d1f7f2533ff58310edd57da3a790bc1e
41 json 8a096a5fdd0c1a8b79bcf8621d8bd802e8dc2ab7145484443eb1680caf6200c3
41 text 936b629c84bd147348e2ba4bc2c562a5e485d2fac780d13369034fadcab2ade6
61 json 5a056a9ff4b10ef7d1df7db9d5e13065c825590695a0f9607ed5e9385f4bc27b
61 text 578cab5c571941e9fbb4642aad01cbd828d6490a2797d6bb3a065e9fb4834f50
63 json f2d45a89383e7901de498e300f7d06431a81b79cd11166d63bb8edb8dea4feb5
63 text 9f72bba96927c417ea982b39312a60d8b4afd02348576ac84b7815f490099de3
"""


@functools.cache
def _record(kind, k):
    return build_record(kind, k)


@functools.cache
def _eigh_gauge_planes_record(k):
    record = build_record("planes", k)
    S = build_seidel(make_field(record.metadata["p"], record.metadata["alpha"]))
    record.entries = extract_bases(build_gram(S), S.q, Fraction(1, 2 * k - 2)).basis
    return record


@pytest.mark.parametrize("k,kind,fmt,digest", [line.split() for line in PINNED_DIGESTS.split("\n") if line])
def test_export_digest_pinned(k, kind, fmt, digest):
    record = _eigh_gauge_planes_record(int(k)) if kind == "planes" else _record(kind, int(k))
    text = serialize(record, fmt)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@functools.cache
def _interleaved_planes_record(k):
    record = build_record("planes", k)
    S = build_seidel(make_field(record.metadata["p"], record.metadata["alpha"]))
    table, _, vecs = planes._character_transform(S)
    q, m = S.q, (S.q + 1) // 2
    v = vecs[:, :, 1]
    v = v * np.copysign(1.0, np.where(np.abs(v[:, 0]) > 1e-12, v[:, 0], v[:, 1]))[:, None]
    phase = np.empty((q, q))
    phase[0] = math.sqrt(2.0 / q)
    np.multiply(table[1:m], 2.0 / math.sqrt(q), out=phase[1::2])
    np.multiply(table[m:], 2.0 / math.sqrt(q), out=phase[2::2])
    rows = np.concatenate([v[:1], np.repeat(v[1:], 2, axis=0)])
    record.entries = (phase[:, :, None] * rows[:, None, :]).reshape(q, 2 * q)
    return record


@pytest.mark.parametrize("k,fmt,digest", [line.split() for line in PLANES_DIGESTS.split("\n") if line])
def test_export_digest_pinned_planes(k, fmt, digest):
    text = serialize(_interleaved_planes_record(int(k)), fmt)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("k,fmt,digest", [line.split() for line in TABLE_PLANES_DIGESTS.split("\n") if line])
def test_export_digest_pinned_table_planes(k, fmt, digest):
    text = serialize(_record("planes", int(k)), fmt)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _reference_to_json(record):
    """The per-entry writer: json.dumps of nested Python lists."""
    if np.iscomplexobj(record.entries):
        entries = [[[z.real, z.imag] for z in row] for row in record.entries]
    else:
        entries = [[float(x) for x in row] for row in record.entries]
    doc = {
        "format": "isoclinic-record",
        "version": 1,
        "kind": record.kind,
        "order": record.order,
        "k": record.k,
        "theta": record.theta,
        "complex": record.is_complex,
        "metadata": record.metadata,
        "entries": entries,
        "exponents": None if record.exponents is None else record.exponents.tolist(),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _reference_to_text(record):
    """The per-entry writer: repr of each float, joined row by row."""

    def fmt(x):
        return repr(float(x))

    rows, cols = record.entries.shape
    lines = [
        "isoclinic-record 1",
        f"kind {record.kind}",
        f"order {record.order}",
        f"k {record.k}",
        f"theta {fmt(record.theta)}",
        f"complex {int(record.is_complex)}",
        "metadata " + json.dumps(record.metadata, sort_keys=True),
        f"rows {rows}",
        f"cols {cols}",
        "entries",
    ]
    if record.is_complex:
        for row in record.entries:
            lines.append(" ".join(f"{fmt(z.real)} {fmt(z.imag)}" for z in row))
    else:
        for row in record.entries:
            lines.append(" ".join(fmt(x) for x in row))
    if record.exponents is not None:
        lines.append("exponents")
        for row in record.exponents:
            lines.append(" ".join(str(int(e)) for e in row))
    lines.append("end")
    return "\n".join(lines) + "\n"


NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
NEGATIVE_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]
SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300, -1e300, 0.1]


def _special_conference(exponent_dtype=np.int8):
    record = build_record("conference", 3)
    values = record.entries.copy()
    values.flat[: len(SPECIAL)] = [complex(x, y) for x, y in zip(SPECIAL, SPECIAL[::-1])]
    values[4, 4] = complex(-0.0, -0.0)
    record.entries = values
    record.exponents = record.exponents.astype(exponent_dtype)
    return record


def _special_seidel():
    record = build_record("seidel", 3)
    record.entries = record.entries.copy()
    record.entries[0, : len(SPECIAL)] = SPECIAL
    return record


def _special_planes():
    record = build_record("planes", 3)  # basis of shape (5, 10)
    record.entries = record.entries.copy()
    record.entries[1, : len(SPECIAL)] = SPECIAL
    return record


def _nan_payloads():
    record = _special_seidel()
    record.entries[1, :2] = [NAN_PAYLOAD, NEGATIVE_NAN]
    return record


def _float_exponents():
    record = _special_conference()
    record.exponents = record.exponents * 0.5
    record.exponents[0, 0] = -0.0
    return record


def _integral_float_exponents():
    record = _special_conference()
    record.exponents = record.exponents.astype(np.float64)
    return record


def _dropped_plane():
    record = _special_planes()
    record.entries = record.entries[:, :-2]
    return record


def _no_columns():
    record = build_record("gram", 3)
    record.entries = np.empty((3, 0))
    return record


ROUND_TRIP = {
    "conference-int8": lambda: _special_conference(np.int8),
    "conference-int64": lambda: _special_conference(np.int64),
    "seidel": _special_seidel,
    "planes": _special_planes,
    "planes-dropped": _dropped_plane,
}
WRITE_ONLY = {
    "nan-payloads": _nan_payloads,
    "no-columns": _no_columns,
}
# only integer exponents parse back, so both writers refuse a float layer, integral or not
REFUSED = {
    "float-exponents": _float_exponents,
    "integral-float-exponents": _integral_float_exponents,
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", list(ROUND_TRIP) + list(WRITE_ONLY) + list(REFUSED))
def test_writer_matches_per_entry_reference(case, fmt):
    record = {**ROUND_TRIP, **WRITE_ONLY, **REFUSED}[case]()
    if case in REFUSED:
        with pytest.raises(ValueError, match="exponents must have an integer dtype, got float64"):
            serialize(record, fmt)
        return
    reference = _reference_to_json(record) if fmt == "json" else _reference_to_text(record)
    assert serialize(record, fmt) == reference


def _unwritable_metadata():
    record = build_record("conference", 3)
    record.metadata = {"field": object()}
    return record


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "make,write_fmt,error",
    [
        pytest.param(_float_exponents, None, ValueError, id="float-exponents"),
        pytest.param(_integral_float_exponents, None, ValueError, id="integral-float-exponents"),
        pytest.param(_unwritable_metadata, None, TypeError, id="unwritable-metadata"),
        pytest.param(lambda: build_record("conference", 3), "yaml", ValueError, id="unknown-format"),
    ],
)
def test_write_record_refuses_before_it_opens_the_target(tmp_path, fmt, make, write_fmt, error):
    # the target keeps the record written before, rather than an empty or a half-written document
    path = tmp_path / "record"
    write_record(build_record("seidel", 3), str(path), fmt)
    before = path.read_bytes()
    with pytest.raises(error):
        write_record(make(), str(path), write_fmt or fmt)
    assert path.read_bytes() == before


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", list(ROUND_TRIP))
def test_roundtrip_bitwise(case, fmt):
    record = ROUND_TRIP[case]()
    back = parse(serialize(record, fmt))
    assert back.entries.dtype == record.entries.dtype
    assert np.array_equal(back.entries.view(np.uint64), record.entries.view(np.uint64))
    assert (back.exponents is None) == (record.exponents is None)
    if record.exponents is not None:
        assert back.exponents.dtype == np.int8
        assert np.array_equal(back.exponents, record.exponents)


def _json_doc(kind):
    return json.loads(serialize(build_record(kind, 3), "json"))


def _set_entry(value, component=None):
    def mutate(doc):
        if component is None:
            doc["entries"][0][1] = value
        else:
            doc["entries"][0][1][component] = value

    return mutate


def _wrap_every_entry_of(key):
    def mutate(doc):
        doc[key] = [[[x] for x in row] for row in doc[key]]

    return mutate


_wrap_every_entry = _wrap_every_entry_of("entries")


def _extend_every_pair(doc):
    for row in doc["entries"]:
        for pair in row:
            pair.append(0.0)


STRICT_JSON = {
    "pair-of-three": ("conference", lambda doc: doc["entries"][0][1].append(0.0), "equal-length lists"),
    "every-pair-of-three": ("conference", _extend_every_pair, r"\[re, im\] pairs"),
    "complex-string": ("conference", _set_entry("0.5", 0), "JSON numbers"),
    "real-string": ("seidel", _set_entry("1.5"), "JSON numbers"),
    "real-null": ("seidel", _set_entry(None), "JSON numbers"),
    "real-true": ("seidel", _set_entry(True), "JSON numbers"),
    "real-pair": ("seidel", _set_entry([1.0, 0.0]), "equal-length lists"),
    "theta-string": ("conference", lambda doc: doc.update(theta="0.3"), "theta must be a number"),
    "order-fractional": ("conference", lambda doc: doc.update(order=4.7), "order must be an integer"),
    "k-fractional": ("conference", lambda doc: doc.update(k=3.5), "k must be an integer"),
    "k-true": ("conference", lambda doc: doc.update(k=True), "k must be an integer"),
    "k-past-the-float-range": ("seidel", lambda doc: doc.update(k=10**400), "implausible header"),
    "complex-string-flag": ("seidel", lambda doc: doc.update(complex="false"), "complex must be true or false"),
    "version-float": ("seidel", lambda doc: doc.update(version=1.0), "unsupported version"),
    "exponent-true": ("conference", lambda doc: doc["exponents"][0].__setitem__(1, True), "exponents must be"),
    "exponent-huge": ("conference", lambda doc: doc["exponents"][0].__setitem__(1, 10**30), "too large"),
    "entry-huge": ("seidel", _set_entry(10**400), "too large"),
    # ragged and wrong-depth entries and exponents, each in one place or everywhere
    "real-short-row": ("seidel", lambda doc: doc["entries"][3].pop(), "equal-length lists"),
    "real-too-deep": ("seidel", _wrap_every_entry, r"rows of numbers, got shape \(10, 10, 1\)"),
    "real-too-shallow": ("seidel", lambda doc: doc.update(entries=doc["entries"][0]), r"rows of numbers, got shape \(10,\)"),
    "complex-too-shallow": ("conference", lambda doc: doc.update(entries=[[0.5] * 5] * 5), r"\[re, im\] pairs"),
    "complex-too-deep": ("conference", _wrap_every_entry, r"\[re, im\] pairs, got shape \(5, 5, 1, 2\)"),
    "too-deep-and-huge": ("seidel", lambda doc: (_wrap_every_entry(doc), _set_entry([10**400])(doc)), "rows of numbers"),
    "past-numpy-axes": ("seidel", lambda doc: doc.update(entries=functools.reduce(lambda x, _: [x], range(70), 0.5)), "equal-length lists"),
    "exponent-short-row": ("conference", lambda doc: doc["exponents"][2].pop(), "exponents must be"),
    "exponent-too-deep": ("conference", _wrap_every_entry_of("exponents"), r"exponents have shape \(5, 5, 1\)"),
    "exponent-float": ("conference", lambda doc: doc["exponents"][0].__setitem__(1, 1.0), "exponents must be"),
    "exponent-string": ("conference", lambda doc: doc["exponents"][0].__setitem__(1, "1"), "exponents must be"),
    "exponent-null": ("conference", lambda doc: doc["exponents"][0].__setitem__(1, None), "exponents must be"),
    "exponent-pair": ("conference", lambda doc: doc["exponents"][0].__setitem__(1, [1, 1]), "exponents must be"),
}


@pytest.mark.parametrize("case", list(STRICT_JSON))
def test_parse_json_strict_typing(case):
    kind, mutate, match = STRICT_JSON[case]
    doc = _json_doc(kind)
    mutate(doc)
    with pytest.raises(RecordParseError, match=match):
        parse(json.dumps(doc))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("kind", ["seidel", "gram"])
def test_parse_refuses_an_odd_order_seidel_or_gram_record(kind, fmt):
    # square entries of the header's order, but 2 x 2 diagonal blocks need an even one
    record = build_record(kind, 3)
    record.order, record.entries = 9, record.entries[:9, :9]
    with pytest.raises(RecordParseError, match=f"{kind} record order must be even"):
        parse(serialize(record, fmt))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("kind", ["seidel", "gram", "planes"])
def test_parse_gives_real_kinds_float64_entries_and_refuses_complex_ones(kind, fmt):
    # the checks read these entries as they are, with no cast to float64
    record = build_record(kind, 3)
    assert parse(serialize(record, fmt)).entries.dtype == np.float64
    record.entries = record.entries + 0.5j
    with pytest.raises(RecordParseError, match=f"{kind} entries must be real"):
        parse(serialize(record, fmt))


def test_parse_json_refuses_an_int_past_the_digit_limit():
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an int token of more digits
    # than Python converts (4300 by default)
    text = serialize(build_record("seidel", 3), "json")
    assert '"k": 3,' in text
    with pytest.raises(RecordParseError):
        parse(text.replace('"k": 3,', '"k": 1' + "0" * 5000 + ","))


def reference_json_array(value, types, dtype, rule):
    """The object-array typing the parser used before: an oracle for export._json_typed and the fill after it."""
    array = np.array(value, dtype=object)
    if not set(map(type, array.ravel().tolist())) <= set(types):
        raise RecordParseError(rule)
    return array


def _outcome(decode, value):
    try:
        array = decode(value)
    except (RecordParseError, OverflowError) as exc:
        return type(exc).__name__, str(exc)
    return array.dtype.str, array.shape, array.tobytes()


def _as_read(value):
    """value as export._parse_json hands it to export._json_typed: an array as the walks of its rows."""
    return [export._json_walk(row) for row in value] if type(value) is list else value


def _typed_entries(value, is_complex):
    values, rows = export._json_typed(_as_read(value), (int, float), np.float64, "rule")
    shape_ok = values.ndim == 3 and values.shape[2] == 2 if is_complex else values.ndim == 2
    if not shape_ok:
        raise RecordParseError(f"shape {values.shape}")
    return export._json_fill(values, rows)


def _reference_entries(value, is_complex):
    array = reference_json_array(value, (int, float), np.float64, "rule")
    shape_ok = array.ndim == 3 and array.shape[2] == 2 if is_complex else array.ndim == 2
    if not shape_ok:
        raise RecordParseError(f"shape {array.shape}")
    return array.astype(np.float64)


def _typed_exponents(value):
    return export._json_fill(*export._json_typed(_as_read(value), (int,), np.int64, "rule"))


def _reference_exponents(value):
    return reference_json_array(value, (int,), np.int64, "rule").astype(np.int64)


JSON_SCALARS = st.one_of(
    st.integers(-2, 2),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.just({}),
)
JSON_NESTED = st.recursive(JSON_SCALARS, lambda children: st.lists(children, max_size=3), max_leaves=12)
# rows of equal length whose items are mostly scalars or pairs, so that many draws are nearly regular
JSON_ROWS = st.integers(0, 3).flatmap(
    lambda cols: st.lists(
        st.lists(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, min_size=2, max_size=2), JSON_NESTED), min_size=cols, max_size=cols),
        max_size=3,
    )
)


@settings(max_examples=400, deadline=None)
@given(value=st.one_of(JSON_NESTED, JSON_ROWS))
def test_json_typing_matches_the_object_array_reference(value):
    # the same error, or the same array bit for bit, for entries of both kinds and for exponents
    value = json.loads(json.dumps(value))
    for is_complex in (False, True):
        assert _outcome(lambda v: _typed_entries(v, is_complex), value) == _outcome(
            lambda v: _reference_entries(v, is_complex), value
        )
    assert _outcome(_typed_exponents, value) == _outcome(_reference_exponents, value)


def _set_header(key, value):
    def mutate(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
        lines[i] = f"{key} {value}"

    return mutate


def _set_token(section, token):
    # the first token of the section's first row
    def mutate(lines):
        i = lines.index(section) + 1
        lines[i] = " ".join([token] + lines[i].split()[1:])

    return mutate


def _separate(section, sep):
    # the first row of the section with its tokens separated by sep
    def mutate(lines):
        i = lines.index(section) + 1
        lines[i] = lines[i].replace(" ", sep)

    return mutate


def _join_rows(section, sep):
    # the first two rows of the section as one line, joined by sep
    def mutate(lines):
        i = lines.index(section) + 1
        lines[i : i + 2] = [lines[i] + sep + lines[i + 1]]

    return mutate


# each is accepted by int(), float(), str.split() or str.splitlines() but is
# not what the writer produces
STRICT_TEXT = {
    "complex-two": ("conference", _set_header("complex", "2"), "header complex must match"),
    "k-underscore": ("conference", _set_header("k", "0_3"), "header k must match"),
    "order-full-width-digit": ("conference", _set_header("order", "\uff15"), "header order must match"),
    "rows-signed": ("seidel", _set_header("rows", "+10"), "header rows must match"),
    "cols-spaced": ("seidel", _set_header("cols", " 10"), "header cols must match"),
    "theta-underscore": ("seidel", _set_header("theta", "1_0.5"), "header theta must match"),
    "exponent-plus-one": ("conference", _set_token("exponents", "+1"), "malformed exponent token"),
    "exponent-leading-zero": ("conference", _set_token("exponents", "00"), "malformed exponent token"),
    "entry-underscore": ("seidel", _set_token("entries", "0_0"), "malformed entry token"),
    "entry-non-ascii-digit": ("seidel", _set_token("entries", "\u0660.0"), "malformed entry token"),
    "entry-plus-sign": ("seidel", _set_token("entries", "+0.0"), "malformed entry token"),
    "entry-infinity-word": ("conference", _set_token("entries", "Infinity"), "malformed entry token"),
    "entry-capital-exponent": ("seidel", _set_token("entries", "1E-05"), "malformed entry token"),
    "entries-em-space": ("seidel", _separate("entries", "\u2003"), "entry row has 1 tokens"),
    "entries-tab": ("seidel", _separate("entries", "\t"), "entry row has 1 tokens"),
    "exponents-tab": ("conference", _separate("exponents", "\t"), "exponent row has 1 tokens"),
    "entries-line-separator": ("seidel", _join_rows("entries", "\u2028"), "entry row has 19 tokens"),
    "header-file-separator": ("seidel", _set_header("k", "3\x1c"), "header k must match"),
    "magic-tab": ("seidel", lambda lines: lines.__setitem__(0, "isoclinic-record\t1"), "header line"),
}


@pytest.mark.parametrize("case", list(STRICT_TEXT))
def test_parse_text_strict_tokens(case):
    kind, mutate, match = STRICT_TEXT[case]
    lines = serialize(build_record(kind, 3), "text").splitlines()
    mutate(lines)
    with pytest.raises(RecordParseError, match=match):
        parse("\n".join(lines) + "\n")


def test_parse_text_accepts_every_token_repr_writes():
    record = build_record("seidel", 3)
    specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e-05, 1e16, 1.7976931348623157e308, 123.0]
    record.entries.ravel()[: len(specials)] = specials
    back = parse(serialize(record, "text"))
    assert back.entries.tobytes() == record.entries.tobytes()


def test_parse_json_accepts_integer_entries():
    # JSON does not tell 1 from 1.0 apart in meaning; integers are numbers
    doc = _json_doc("seidel")
    doc["entries"][0][0] = 0
    record = parse(json.dumps(doc))
    assert record.entries.dtype == np.float64 and record.entries[0, 0] == 0.0


def test_read_record_rejects_invalid_utf8(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(serialize(build_record("seidel", 3), "text").encode().replace(b"kind", b"k\xffnd"))
    with pytest.raises(RecordParseError, match="UTF-8"):
        read_record(str(path))


def test_read_record_accepts_crlf_line_ends(tmp_path):
    # read_record opens files with universal newlines, so "\r\n" reads as "\n"
    record = build_record("seidel", 3)
    path = tmp_path / "crlf.txt"
    path.write_bytes(serialize(record, "text").replace("\n", "\r\n").encode())
    assert records_equal(read_record(str(path)), record)


def _assert_parse_matches_plain_json(text):
    """parse against plain json.loads, which calls float() on every number token."""
    doc, back = json.loads(text), parse(text)
    reference = np.array(doc["entries"], dtype=np.float64)
    assert np.array_equal(back.entries.view(np.float64).reshape(reference.shape).view(np.uint64), reference.view(np.uint64))
    assert np.float64(back.theta).view(np.uint64) == np.float64(doc["theta"]).view(np.uint64)
    assert repr(back.metadata) == repr(doc["metadata"])  # repr tells -0.0 from 0.0
    return back


@pytest.mark.parametrize("k", [3, 7, 31])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_parse_json_memo_matches_plain_json_loads_bitwise(kind, k):
    # at k = 31 a record's entries take 5 to 12 distinct floats, the planes record's 447
    _assert_parse_matches_plain_json(serialize(build_record(kind, k), "json"))


# -0.0 beside 0.0, the least subnormal, an overflow to inf, an integer, an
# underflow to 0.0, and three spellings of 0.1
EDGE_JSON = (
    '{"complex": false, "entries": [[-0.0, 0.0, 5e-324], [1E400, 3, -1e-400], [0.1, 0.10, 1e-1]],'
    ' "exponents": null, "format": "isoclinic-record", "k": 3, "kind": "conference",'
    ' "metadata": {"x": [-0.0, 0.0, 2.5]}, "order": 3, "theta": -0.0, "version": 1}'
)


def test_parse_json_memo_keeps_every_edge_value():
    back = _assert_parse_matches_plain_json(EDGE_JSON)
    entries = back.entries
    assert np.signbit(entries[0, 0]) and not np.signbit(entries[0, 1])
    assert entries[0, 2] == 5e-324 and entries[1, 0] == math.inf and entries[1, 1] == 3.0
    assert np.signbit(entries[1, 2]) and entries[1, 2] == 0.0
    assert entries[2, 0] == entries[2, 1] == entries[2, 2] == 0.1
    assert math.copysign(1.0, back.theta) == -1.0


@pytest.mark.parametrize(
    "section,what,bad",
    [
        ("exponents", "exponent", ["7", "-5", "x", "+1", "09"]),
        ("entries", "entry", ["+7", "x", "1_0", "Inf", "1E5"]),
    ],
)
def test_parse_text_names_the_first_bad_token_in_file_order(section, what, bad):
    # five distinct bad tokens, the last of row 0 first; set order would name any of them
    lines = serialize(build_record("conference", 3), "text").split("\n")
    first = lines.index(section) + 1
    for offset, token in enumerate(bad):
        row = lines[first + offset].split(" ")
        row[-1 - offset] = token
        lines[first + offset] = " ".join(row)
    with pytest.raises(RecordParseError) as exc:
        parse("\n".join(lines))
    assert str(exc.value) == f"malformed {what} token {bad[0]!r}"


@pytest.mark.parametrize("section,what", [("entries", "entry"), ("exponents", "exponent")])
def test_parse_text_checks_every_row_count_before_any_token(section, what):
    # a bad token in row 0 and an extra token in row 2: the row count is named, as every count is checked first
    lines = serialize(build_record("conference", 3), "text").split("\n")
    first = lines.index(section) + 1
    width = len(lines[first].split(" "))
    lines[first] = "x" + lines[first][lines[first].index(" ") :]
    lines[first + 2] += " 0"
    with pytest.raises(RecordParseError) as exc:
        parse("\n".join(lines))
    assert str(exc.value) == f"{what} row has {width + 1} tokens, expected {width}"


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# the q = 121 hadamard record: 242 x 242 complex entries, 3.3 MiB as json and 2.2 MiB as text
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_write_record_peak_stays_below_two_and_a_half_documents(tmp_path, fmt):
    # the writers emit one row at a time, so no copy of the whole document or its bytes is built
    record, path = _record("hadamard", 61), tmp_path / f"hadamard.{fmt}"
    peak = _traced_peak(write_record, record, str(path), fmt)
    assert peak < 2.5 * path.stat().st_size


def test_parse_text_peak_stays_below_two_documents():
    # the text reader converts row by row into the array and keeps no list of every token
    text = serialize(_record("hadamard", 61), "text")
    assert _traced_peak(parse, text) < 2 * len(text)


def test_parse_json_peak_stays_below_one_document():
    # the JSON reader walks each row as it reads it and keeps the row's scalars, not its nested lists
    text = serialize(_record("hadamard", 61), "json")
    assert _traced_peak(parse, text) < len(text)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_write_record_writes_the_bytes_of_serialize_past_its_buffer(tmp_path, fmt):
    # the q = 121 hadamard record fills many of the writer's 64 KiB buffers
    record, path = _record("hadamard", 61), tmp_path / f"hadamard.{fmt}"
    write_record(record, str(path), fmt)
    assert path.read_bytes() == serialize(record, fmt).encode()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_write_record_over_a_longer_record_leaves_exactly_the_new_one(tmp_path, fmt):
    # the target is written over, not truncated on open, so the old document's tail must be cut
    record, path = build_record("conference", 3), tmp_path / f"record.{fmt}"
    write_record(_record("hadamard", 31), str(path), fmt)
    write_record(record, str(path), fmt)
    assert path.read_bytes() == serialize(record, fmt).encode()


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_generate_writes_to_a_device_that_cannot_be_truncated(fmt):
    # only a regular file is cut at the record's end; ftruncate on /dev/null fails with EINVAL
    assert main(["generate", "--k", "3", "--format", fmt, "--out", os.devnull]) == 0


def test_write_record_keeps_the_targets_inode_mode_and_links(tmp_path):
    path, link, symlink = tmp_path / "record", tmp_path / "link", tmp_path / "symlink"
    write_record(_record("hadamard", 31), str(path), "json")
    path.chmod(0o600)
    os.link(path, link)
    symlink.symlink_to(path)
    inode = path.stat().st_ino
    record = build_record("conference", 3)
    write_record(record, str(symlink), "text")  # a symlink is followed
    assert symlink.is_symlink() and path.stat().st_ino == inode
    assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert link.read_bytes() == path.read_bytes() == serialize(record, "text").encode()


def _distinct_cases():
    floats = {
        "empty": np.empty((3, 0)),
        "one": np.full((2, 3), 1.5),
        "signed-zeros": np.array([0.0, -0.0, 0.0, -0.0]),
        "nan-payloads": np.array([np.nan, NAN_PAYLOAD, np.nan, NEGATIVE_NAN, NAN_PAYLOAD]),
        "infinities": np.array([np.inf, 1.0, -np.inf, np.inf]),
        "subnormals": np.array([1.5e-323, 5e-324, -5e-324, 5e-324]),
        "mixed": np.random.default_rng(0).choice(SPECIAL + [NAN_PAYLOAD, NEGATIVE_NAN, 1.5e-323], 40),
    }
    cases = {}
    for name, values in floats.items():
        cases[f"float64-{name}"] = values
        # the floats paired in turn as (re, im), an odd last one dropped
        cases[f"complex128-{name}"] = values.ravel()[: values.size // 2 * 2].view(np.complex128)
    for dtype in (np.int8, np.int64):
        cases[f"{dtype.__name__}-empty"] = np.empty((0, 0), dtype)
        cases[f"{dtype.__name__}-one"] = np.ones((3, 3), dtype)
        cases[f"{dtype.__name__}-exponents"] = build_record("conference", 7).exponents.astype(dtype)
        info = np.iinfo(dtype)
        cases[f"{dtype.__name__}-extremes"] = np.array([info.max, info.min, 0, -1, info.max, 1], dtype)
    return cases


DISTINCT = _distinct_cases()


@pytest.mark.parametrize("case", list(DISTINCT))
def test_distinct_values_match_numpy_unique(case):
    values = DISTINCT[case]
    if values.dtype.kind in "fc":  # the writer tells floats apart by their bits, as _float_tokens does
        values = np.ascontiguousarray(values).view(np.float64).view(np.uint64)
    flat = values.ravel()
    distinct, inverse = export._distinct(flat)
    want, want_inverse = np.unique(flat, return_inverse=True)
    assert distinct.dtype == want.dtype and distinct.tobytes() == want.tobytes()
    assert inverse.tolist() == want_inverse.ravel().tolist()


def _whole_json_typed(value, types, dtype, rule):
    """The walk of a whole nested list that the JSON reader made before it read rows one at a time."""
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
    except ValueError as exc:
        raise RecordParseError(rule) from exc


def _whole_parse_json(text):
    """The JSON reader before it read rows one at a time, json.loads and then _whole_json_typed: the oracle of the row reader."""
    try:
        doc = json.loads(text, parse_float=export._TokenTable(float).__getitem__)
    except (ValueError, RecursionError) as exc:
        raise RecordParseError(f"invalid JSON: {exc}") from exc
    if doc["format"] != export.MAGIC:
        raise RecordParseError(f"unexpected format tag {doc['format']!r}")
    if type(doc["version"]) is not int or doc["version"] != export.VERSION:
        raise RecordParseError(f"unsupported version {doc['version']!r}")
    kind, order, k = doc["kind"], export._json_int(doc, "order"), export._json_int(doc, "k")
    export._validate_header(kind, order, k)
    if type(doc["theta"]) not in (int, float):
        raise RecordParseError(f"theta must be a number, got {doc['theta']!r}")
    if type(doc["complex"]) is not bool:
        raise RecordParseError(f"complex must be true or false, got {doc['complex']!r}")
    is_complex = doc["complex"]
    values, scalars = _whole_json_typed(doc["entries"], (int, float), np.float64, "entries must be equal-length lists of JSON numbers")
    if is_complex and (values.ndim != 3 or values.shape[2] != 2):
        raise RecordParseError(f"complex entries must be rows of [re, im] pairs, got shape {values.shape}")
    if not is_complex and values.ndim != 2:
        raise RecordParseError(f"real entries must be rows of numbers, got shape {values.shape}")
    values.reshape(-1)[:] = scalars
    entries = values.view(np.complex128).reshape(values.shape[:2]) if is_complex else values
    exponents = None
    if doc["exponents"] is not None:
        values, scalars = _whole_json_typed(doc["exponents"], (int,), np.int64, export._EXPONENT_RULE)
        values.reshape(-1)[:] = scalars
        if not np.isin(values, (-1, 0, 1)).all():
            raise RecordParseError(export._EXPONENT_RULE)
        exponents = values.astype(np.int8)
    return kind, order, k, doc["theta"], entries, exponents, doc["metadata"]


def _parse_outcome(text, parse_json=None):
    """The fields parse(text) gives, arrays as bytes, or its RecordParseError message; parse_json stands in for the JSON reader."""
    with mock.patch.object(export, "_parse_json", parse_json or export._parse_json):
        try:
            record = parse(text)
        except RecordParseError as exc:
            return str(exc)
    arrays = [(a.dtype.str, a.shape, a.tobytes()) for a in (record.entries, record.exponents) if a is not None]
    theta = np.float64(record.theta).tobytes()
    return record.kind, record.order, record.k, theta, repr(record.metadata), arrays, record.exponents is None


_JSON_TOKEN = re.compile(r'-?(?:Infinity|[0-9]+(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?)|true|false|null|NaN|"[^"\\]*"')
# values that are JSON but not a number, numbers past the float or int64 range, and arrays of other shapes
_JSON_VALUES = (
    ["true", "false", "null", '"x"', "{}", '{"a": [1]}', "NaN", "-Infinity", "1e400", "-0.0", "1E5", "0", "2", "-1"]
    + ["1" + "0" * 400, str(2**63), str(-(2**63) - 1)]
    + ["[]", "[[]]", "[1.0]", "[0.5, 0.5]", "[[0.5, 0.5]]", "[1, [2]]", "[0.5, 0.5, 0.5]"]
)
_JSON_KEYS = ['"entries"', '"exponents"', '"metadata"', '"format"', '"complex"', '"order"', '"k"']


def _mutate_json(text, rng):
    """text with one to three random edits: of characters, of value tokens, of array items, of keys or of its ends."""
    for _ in range(rng.randint(1, 3)):
        op, pos = rng.randrange(9), rng.randrange(len(text) + 1)
        token = rng.choice(list(_JSON_TOKEN.finditer(text)) or [None])
        comma = text.find(",", pos)
        after = text.find(",", comma + 1) if comma >= 0 else -1
        if op == 0:
            text = text[:pos] + text[pos + 1 :]
        elif op == 1:
            text = text[:pos] + rng.choice('[]{},:"-.019eE tfnul\n\\') + text[pos:]
        elif op in (2, 3) and token:
            text = text[: token.start()] + rng.choice(_JSON_VALUES) + text[token.end() :]
        elif op == 4 and token:
            text = text[: token.start()] + "[" + token.group() + "]" + text[token.end() :]
        elif op == 5 and after >= 0:  # drop one item at some depth
            text = text[:comma] + text[after:]
        elif op == 6 and after >= 0:  # repeat one item
            text = text[:after] + text[comma:after] + text[after:]
        elif op == 7:
            text = text.replace(rng.choice(_JSON_KEYS), rng.choice(_JSON_KEYS), 1)
        elif op == 8:
            text = rng.choice([text[:pos], text + rng.choice([" x", "{}", " ", ",", "]"]), rng.choice(" \n\x0c\xa0") + text])
    return text


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_parse_json_rows_match_the_whole_document_reader(kind):
    # 1000 seeded mutations of the kind's records at k = 3 and 5, 5000 over the five kinds: the
    # same record bit for bit, or the same RecordParseError message
    texts = [serialize(build_record(kind, k), "json") for k in (3, 5)]
    reached = Counter()
    for seed in range(1000):
        rng = random.Random(seed)
        text = _mutate_json(rng.choice(texts), rng)
        outcome = _parse_outcome(text)
        assert outcome == _parse_outcome(text, _whole_parse_json), seed
        if type(outcome) is tuple:
            reached["record"] += 1
        else:
            reached[outcome.partition(":")[0] if outcome.startswith("invalid JSON") else "checks"] += 1
        reached["entries rule"] += outcome == "entries must be equal-length lists of JSON numbers"
    # the edits reach the JSON errors, the record checks, the entries rule and whole records alike
    assert min(reached[key] for key in ("record", "invalid JSON", "checks", "entries rule")) >= 25, reached


def _json_text(kind, **changes):
    doc = json.loads(serialize(build_record(kind, 3), "json"))
    doc.update(changes)
    return json.dumps(doc, indent=1, sort_keys=True)


_ENTRIES_RULE = "entries must be equal-length lists of JSON numbers"
_CONFERENCE_JSON = serialize(build_record("conference", 3), "json")
HAND_JSON = {
    # arrays under other keys are read whole, and a message prints them
    "format-list": (_json_text("conference", format=[1]), "unexpected format tag [1]"),
    "metadata-list": (_json_text("conference", metadata=[[1]]), "metadata must be a JSON object, got [[1]]"),
    "theta-list": (_json_text("seidel", theta=[[0.5]]), "theta must be a number, got [[0.5]]"),
    "entries-empty": (_json_text("seidel", entries=[]), r"real entries must be rows of numbers, got shape (0,)"),
    "entries-empty-rows": (_json_text("seidel", entries=[[], []]), "seidel entries have shape (2, 0)"),
    "entries-flat": (_json_text("seidel", entries=[1.0, 2.0]), "real entries must be rows of numbers, got shape (2,)"),
    "entries-scalar": (_json_text("seidel", entries=1.5), "real entries must be rows of numbers, got shape ()"),
    "entries-object": (_json_text("seidel", entries={"a": [1]}), _ENTRIES_RULE),
    "entries-string": (_json_text("seidel", entries="[1]"), _ENTRIES_RULE),
    "entries-ragged": (_json_text("seidel", entries=[[1.0], [1.0, 2.0]]), _ENTRIES_RULE),
    "entries-mixed": (_json_text("seidel", entries=[[1.0], 2.0]), _ENTRIES_RULE),
    "rows-deeper-later": (_json_text("seidel", entries=[[1.0, 2.0], [[1.0], [2.0]]]), _ENTRIES_RULE),
    "rows-deeper-first": (_json_text("seidel", entries=[[[1.0], [2.0]], [1.0, 2.0]]), _ENTRIES_RULE),
    "rows-ragged-inside": (_json_text("conference", entries=[[[1.0, 0.0]], [[1.0]]]), _ENTRIES_RULE),
    "row-true": (_json_text("seidel", entries=[[1.0, True]]), _ENTRIES_RULE),
    "row-null": (_json_text("seidel", entries=[[None, 1.0]]), _ENTRIES_RULE),
    "row-string": (_json_text("seidel", entries=[[1.0], ["1.0"]]), _ENTRIES_RULE),
    "exponent-row-true": (_json_text("conference", exponents=[[0, 1], [True, 0]]), "exponents must be integers"),
    "exponents-empty": (_json_text("conference", exponents=[]), "exponents have shape (0,), entries (5, 5)"),
    "exponents-scalar": (_json_text("conference", exponents=1), "exponents have shape (), entries (5, 5)"),
    # a row past numpy's axes; an int past the float range in a row and past int64 in an exponent row
    "row-past-numpy-axes": (_json_text("seidel", entries=[functools.reduce(lambda x, _: [x], range(70), 0.5)]), _ENTRIES_RULE),
    "entry-past-float": (_json_text("seidel", entries=[[0.5, 0.5], [0.5, 10**400]]), "int too large to convert to float"),
    "exponent-past-int64": (_json_text("conference", exponents=[[0, 1], [0, 2**63]]), "too large to convert"),
    "exponent-below-int64": (_json_text("conference", exponents=[[-(2**63) - 1]]), "too large to convert"),
    "complex-shape-before-overflow": (_json_text("conference", entries=[[10**400]]), "[re, im] pairs, got shape (1, 1)"),
    # duplicate keys: the last one holds, whichever of them is bad
    "entries-twice-bad-first": (_CONFERENCE_JSON.replace('"entries": ', '"entries": [[true]],\n "entries": '), None),
    "entries-twice-bad-last": (_CONFERENCE_JSON.replace('"exponents": ', '"entries": [[true]],\n "exponents": '), _ENTRIES_RULE),
    "exponents-twice": (_CONFERENCE_JSON.replace('"entries": ', '"exponents": [[7]],\n "entries": '), None),
    "trailing-data": (_CONFERENCE_JSON + "x", "invalid JSON: Extra data"),
    "trailing-object": (_CONFERENCE_JSON + "{}", "invalid JSON: Extra data"),
    "trailing-comma-in-row": (_CONFERENCE_JSON.replace("]\n  ],", "],\n  ],", 1), "invalid JSON: Expecting value"),
    "unclosed-rows": (_CONFERENCE_JSON[: _CONFERENCE_JSON.index('"exponents"')], "invalid JSON"),
    # a space JSON does not allow, before the object
    "non-json-space": ("\xa0" + _CONFERENCE_JSON, "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
}


@pytest.mark.parametrize("case", list(HAND_JSON))
def test_parse_json_rows_match_the_whole_document_reader_by_hand(case):
    text, message = HAND_JSON[case]
    outcome = _parse_outcome(text)
    assert outcome == _parse_outcome(text, _whole_parse_json)
    if message is None:
        assert type(outcome) is tuple
    else:
        assert message in outcome


@pytest.mark.parametrize("text", ["[1]", "[[1.0]]", "1", "null", '"entries"', "", "[1] x"])
def test_parse_json_reads_a_document_that_is_not_an_object_as_json_loads(text):
    # parse sends only text that starts with a brace here, but the reader reads any document as before
    def outcome(reader):
        try:
            return reader(text)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(export._parse_json) == outcome(_whole_parse_json)


def _nested_entries(depth):
    text = serialize(build_record("seidel", 3), "json")
    start, end = text.index('"entries": ') + len('"entries": '), text.index(',\n "exponents"')
    return text[:start] + "[" * depth + "0.5" + "]" * depth + text[end:]


def test_parse_json_near_the_recursion_limit_is_a_parse_error_either_way(tmp_path):
    # How deep the C scanner nests depends on the caller's stack.  The row reader scans a row from
    # other Python frames than json.loads did, so in a window of a few depths one reader names the
    # recursion limit where the other goes on to the entries rule.  Both are parse errors (exit 4).
    limit, recursion = sys.getrecursionlimit(), "invalid JSON: maximum recursion depth exceeded"
    differ, whole_limit = [], None
    for depth in range(limit // 2, limit + 10):
        text = _nested_entries(depth)
        rows, whole = _parse_outcome(text), _parse_outcome(text, _whole_parse_json)
        assert all(outcome == _ENTRIES_RULE or outcome.startswith(recursion) for outcome in (rows, whole))
        differ += [depth] if rows != whole else []
        whole_limit = whole_limit or (depth if whole.startswith(recursion) else None)
    assert whole_limit is not None and len(differ) <= 10, differ
    path = tmp_path / "nested.json"
    for depth in range(whole_limit - 30, whole_limit + 10):
        path.write_text(_nested_entries(depth))
        for reader in (export._parse_json, _whole_parse_json):
            with mock.patch.object(export, "_parse_json", reader):
                assert main(["verify", str(path)]) == EXIT_PARSE
