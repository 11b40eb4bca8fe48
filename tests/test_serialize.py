"""JSON round-trips, strict input rejection, and DOT exports."""

import hashlib
import json

import pytest

from sbspec.braces import trivial_brace, validate
from sbspec.catalog import catalog_lines
from sbspec.enumeration import enumerate_braces
from sbspec.errors import IdentityMismatchError, NotAGroupError, ParseError
from sbspec.groups import cyclic_table, product_table
from sbspec.serialize import (
    brace_from_dict,
    brace_to_dict,
    dot_closed_sets,
    dot_ideal_lattice,
    dot_specialization,
    dumps,
    full_report_dict,
    hom_from_dict,
    hom_to_dict,
    lattice_spectrum_to_dict,
    lattice_to_dict,
    load_brace,
    load_hom,
    load_json,
    member_list,
    spectrum_to_dict,
    topology_to_dict,
)
from sbspec.morphisms import validate_hom


def test_brace_roundtrip(z4_radical):
    doc = brace_to_dict(z4_radical)
    text = dumps(doc)
    back = brace_from_dict(json.loads(text))
    assert back == z4_radical


def test_dumps_key_order_independent():
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})
    assert dumps({"a": 2, "b": 1}) == '{"a":2,"b":1}'


def test_load_brace_file(tmp_path, z4_radical):
    path = tmp_path / "brace.json"
    path.write_text(dumps(brace_to_dict(z4_radical)))
    assert load_brace(str(path)) == z4_radical


def test_load_json_errors(tmp_path):
    with pytest.raises(ParseError):
        load_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_json(str(bad))


def test_brace_from_dict_rejections(z2_trivial):
    good = brace_to_dict(z2_trivial)
    with pytest.raises(ParseError):
        brace_from_dict([])
    for field in ("order", "add", "mul"):
        doc = dict(good)
        del doc[field]
        with pytest.raises(ParseError):
            brace_from_dict(doc)
    doc = dict(good)
    doc["order"] = "2"
    with pytest.raises(ParseError):
        brace_from_dict(doc)
    doc = dict(good)
    doc["order"] = True
    with pytest.raises(ParseError):
        brace_from_dict(doc)
    doc = dict(good)
    doc["order"] = 3
    with pytest.raises(ParseError):
        brace_from_dict(doc)
    doc = dict(good)
    doc["add"] = [[0, 1], [1, 0.5]]
    with pytest.raises(ParseError):
        brace_from_dict(doc)
    doc = dict(good)
    doc["add"] = [[False, True], [True, False]]
    with pytest.raises(ParseError):
        brace_from_dict(doc)
    doc = dict(good)
    doc["add"] = [[0, 1], [1, 0, 0]]
    with pytest.raises(ParseError):
        brace_from_dict(doc)


def test_brace_from_dict_rejects_axiom_failures():
    with pytest.raises(NotAGroupError):
        brace_from_dict({"order": 2, "add": [[0, 1], [1, 1]], "mul": [[0, 1], [1, 0]]})
    with pytest.raises(IdentityMismatchError):
        brace_from_dict(
            {"order": 2, "add": [[1, 0], [0, 1]], "mul": [[1, 0], [0, 1]]}
        )


def test_hom_roundtrip(tmp_path, z4_radical, z2_trivial):
    f = validate_hom(z4_radical, z2_trivial, [0, 1, 0, 1])
    doc = hom_to_dict(f)
    back = hom_from_dict(json.loads(dumps(doc)))
    assert back.mapping == f.mapping
    assert back.source == z4_radical and back.target == z2_trivial
    path = tmp_path / "hom.json"
    path.write_text(dumps(doc))
    assert load_hom(str(path)).mapping == f.mapping


def test_hom_from_dict_rejections(z2_trivial):
    f = validate_hom(z2_trivial, z2_trivial, [0, 1])
    good = hom_to_dict(f)
    for field in ("source", "target", "map"):
        doc = dict(good)
        del doc[field]
        with pytest.raises(ParseError):
            hom_from_dict(doc)
    doc = dict(good)
    doc["map"] = [0, "1"]
    with pytest.raises(ParseError):
        hom_from_dict(doc)
    doc = dict(good)
    doc["map"] = [0, True]
    with pytest.raises(ParseError):
        hom_from_dict(doc)


def test_member_list():
    assert member_list(0b101) == [0, 2]
    assert member_list(0) == []


def test_spectrum_and_lattice_dicts(z4_radical):
    spec = spectrum_to_dict(z4_radical, "star")
    assert spec == {
        "kind": "star",
        "primes": [],
        "minimal": [],
        "nil": [0, 1, 2, 3],
    }
    lat = lattice_to_dict(z4_radical)
    assert lat["ideals"] == [[0], [0, 2], [0, 1, 2, 3]]
    assert lat["weights"] == [1, 1, 1]
    # meet/join/star tables are indexed by lattice position
    assert lat["meet"][2][1] == 1
    assert lat["join"][0][2] == 2
    assert lat["star"][2][2] == 1


def test_lattice_dict_pins_an_asymmetric_star_table():
    # star[1][2] != star[2][1]: rows are the left factor x, columns the
    # right factor y, so a transposed read changes the bytes
    lat = lattice_to_dict(enumerate_braces(6)[2])
    assert lat == {
        "ideals": [[0], [0, 3, 4], [0, 1, 2, 3, 4, 5]],
        "weights": [1, 1, 1],
        "meet": [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
        "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
        "star": [[0, 0, 0], [0, 0, 1], [0, 0, 1]],
    }


def test_topology_dict(z4_radical):
    topo = topology_to_dict(z4_radical, "star")
    assert topo["points"] == []
    assert topo["closed_sets"] == [[]]
    assert topo["t0"] and topo["t1"]
    assert topo["components"] == 0
    assert topo["quasi_compact"] and topo["sober"] and topo["spectral"]


def test_lattice_spectrum_dict(z4_radical):
    doc = lattice_spectrum_to_dict(z4_radical)
    assert doc == {"primes": [], "closed_axioms": True, "spectral": True}


def test_full_report_json_safe(z4_radical):
    doc = full_report_dict(z4_radical)
    text = dumps(doc)
    assert json.loads(text) == doc
    assert set(doc) == {
        "brace",
        "ideal_lattice",
        "spectra",
        "topology",
        "lattice_spectrum",
    }
    assert dumps(full_report_dict(z4_radical)) == text


def test_dot_ideal_lattice(z4_radical):
    dot = dot_ideal_lattice(z4_radical)
    assert dot.startswith("digraph ideal_lattice {")
    assert dot.endswith("}\n")
    assert dot.count(" -> ") == 2
    assert 'I0 [label="{0}"]' in dot
    assert 'I1 [label="{0,2}"]' in dot
    assert 'I2 [label="{0,1,2,3}"]' in dot
    assert "I0 -> I1;" in dot and "I1 -> I2;" in dot


def test_dot_ideal_lattice_diamond(v4_trivial):
    dot = dot_ideal_lattice(v4_trivial)
    # 0 below three atoms below the top: 6 covering edges
    assert dot.count(" -> ") == 6


def test_dot_closed_sets(z4_radical):
    dot = dot_closed_sets(z4_radical)
    assert dot.startswith("digraph closed_sets {")
    # empty spectrum: single closed set, the empty one, no edges
    assert 'C0 [label="{}"]' in dot
    assert " -> " not in dot


def test_dot_specialization_empty(z4_radical):
    dot = dot_specialization(z4_radical)
    assert dot.startswith("digraph specialization {")
    assert " -> " not in dot
    assert "P0" not in dot


def test_dot_deterministic(s3_almost):
    assert dot_ideal_lattice(s3_almost) == dot_ideal_lattice(s3_almost)
    assert full_report_dict(s3_almost) == full_report_dict(s3_almost)


# sha256 of the catalog <= 6 bytes (`sbspec catalog --max-order 6`), its
# t1 and components fields included: a change that should leave every
# output as it was keeps this digest
CATALOG6_SHA256 = "5e7f57c0e357b0f3556ff1c515745cdc3f1bd05f78e62791202f0d490365cc32"

# sha256 of dumps(full_report_dict(b)), one line per brace, over the
# catalog <= 6 braces and trivial and almost-trivial S4 and A5
FULL_REPORTS_SHA256 = "612e0acc0bb138cc615ae209e7893e42222022a37311896aa85723371bc0dc29"

# sha256 of dumps(lattice_to_dict(b)) for trivial Z2^4, whose 67 ideals
# have joins that are not principal ideals
LATTICE_Z2_4_SHA256 = "b64c0d1d089141da4b3e102cbac0a8f09d3693cd4b5aa40e22c1dc6cd7af04d2"


def test_catalog6_bytes_pinned(catalog6):
    assert hashlib.sha256(catalog_lines(catalog6).encode()).hexdigest() == CATALOG6_SHA256


def test_full_report_bytes_pinned(catalog6, s4_trivial, s4_almost, a5_trivial, a5_almost):
    braces = [validate(rec.add, rec.mul) for rec in catalog6]
    braces += [s4_trivial, s4_almost, a5_trivial, a5_almost]
    joined = "\n".join(dumps(full_report_dict(b)) for b in braces)
    assert hashlib.sha256(joined.encode()).hexdigest() == FULL_REPORTS_SHA256


def test_lattice_report_bytes_pinned():
    v4 = product_table(cyclic_table(2), cyclic_table(2))
    doc = lattice_to_dict(trivial_brace(product_table(v4, v4)))
    assert len(doc["ideals"]) == 67
    assert hashlib.sha256(dumps(doc).encode()).hexdigest() == LATTICE_Z2_4_SHA256
