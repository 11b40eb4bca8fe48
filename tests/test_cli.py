"""Command line: exit codes, determinism, and end-to-end flows."""

import json

import pytest

from sbspec import ideals
from sbspec.braces import trivial_brace, validate
from sbspec.catalog import build_record, read_catalog, record_to_dict, write_catalog
from sbspec.cli import main
from sbspec.groups import CANONICAL_BOUND, ENUMERATION_BOUND, cyclic_table
from sbspec.serialize import brace_to_dict, dumps, hom_to_dict
from sbspec.morphisms import validate_hom
from sbspec.suite import run_records

Z4_RADICAL_DOC = {
    "order": 4,
    "add": [[(a + b) % 4 for b in range(4)] for a in range(4)],
    "mul": [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)],
}

# a relabelled Z4 addition paired with the plain cyclic multiplication:
# both honest groups sharing identity 0, but the compatibility law fails
SKEW_BROKEN_DOC = {
    "order": 4,
    "add": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],
    "mul": [[(a + b) % 4 for b in range(4)] for a in range(4)],
}


@pytest.fixture()
def brace_file(tmp_path):
    path = tmp_path / "z4r.json"
    path.write_text(dumps(Z4_RADICAL_DOC))
    return str(path)


@pytest.fixture()
def catalog_file(tmp_path):
    path = tmp_path / "catalog.jsonl"
    assert main(["catalog", "--max-order", "4", "--out", str(path)]) == 0
    return str(path)


def test_validate_ok(brace_file, capsys):
    assert main(["validate", brace_file]) == 0
    assert "valid skew brace of order 4" in capsys.readouterr().out


def test_validate_axiom_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(dumps(SKEW_BROKEN_DOC))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "SkewLawError" in err


def test_validate_input_error(tmp_path, capsys):
    path = tmp_path / "shape.json"
    path.write_text(dumps({"order": 2, "add": [[0, 1]], "mul": [[0, 1], [1, 0]]}))
    assert main(["validate", str(path)]) == 2
    assert "input error" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_catalog_writes_and_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    assert main(["catalog", "--max-order", "4", "--out", str(first)]) == 0
    out = capsys.readouterr().out
    assert "wrote 7 records" in out
    assert main(["catalog", "--max-order", "4", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().strip().split("\n")
    assert len(lines) == 7
    ids = [json.loads(line)["id"] for line in lines]
    assert ids == ["1-0", "2-0", "3-0", "4-0", "4-1", "4-2", "4-3"]


def test_check_passes(catalog_file, capsys):
    assert main(["check", catalog_file]) == 0
    out = capsys.readouterr().out
    assert "7 records" in out
    assert " 0 fail" in out.replace(",", "")


def test_check_verbose_prints_rows(catalog_file, capsys):
    assert main(["check", catalog_file, "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "VACUOUS" in out
    assert "brace-axioms" in out


def test_check_catches_tampering(catalog_file, tmp_path, capsys):
    lines = open(catalog_file).read().strip().split("\n")
    doc = json.loads(lines[-1])
    # swap a multiplication entry: still parseable, no longer a brace
    doc["mul"][1][1] = (doc["mul"][1][1] + 1) % doc["order"]
    doc["mul"][1][2] = (doc["mul"][1][2] + 1) % doc["order"]
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(lines[:-1] + [dumps(doc)]) + "\n")
    assert main(["check", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_check_catches_stale_summary_field(catalog_file, tmp_path, capsys):
    lines = open(catalog_file).read().strip().split("\n")
    doc = json.loads(lines[0])
    doc["ideal_count"] = 99
    stale = tmp_path / "stale.jsonl"
    stale.write_text("\n".join([dumps(doc)] + lines[1:]) + "\n")
    assert main(["check", str(stale)]) == 1
    out = capsys.readouterr().out
    assert "record-integrity" in out


def test_check_rejects_malformed_line(catalog_file, tmp_path, capsys):
    lines = open(catalog_file).read().strip().split("\n")
    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines) + "\n{oops\n")
    assert main(["check", str(broken)]) == 2
    assert "input error" in capsys.readouterr().err


def test_search_predicates(catalog_file, capsys):
    assert main(["search", catalog_file, "--where", "nonempty-spec:star"]) == 0
    out = capsys.readouterr().out
    assert "0 of 7 records match" in out

    assert main(["search", catalog_file, "--where", "defs-disagree"]) == 0
    out = capsys.readouterr().out
    assert "0 of 7 records match" in out

    assert main(["search", catalog_file, "--where", "spec-connected"]) == 0
    out = capsys.readouterr().out
    assert "7 of 7 records match" in out

    assert main(["search", catalog_file, "--where", "spec-disconnected"]) == 0
    out = capsys.readouterr().out
    assert "0 of 7 records match" in out

    assert main(["search", catalog_file, "--where", "t1"]) == 0
    out = capsys.readouterr().out
    assert "7 of 7 records match" in out
    assert "vacuous: empty spectrum" in out


def test_search_unknown_predicate(catalog_file, tmp_path, capsys):
    assert main(["search", catalog_file, "--where", "nonempty-spec:odd"]) == 2
    assert "unknown predicate" in capsys.readouterr().err
    assert main(["search", catalog_file, "--where", "junk"]) == 2
    capsys.readouterr()
    # with no record to match against, the predicate is still checked
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["search", str(empty), "--where", "junk"]) == 2
    assert capsys.readouterr().err == "unknown predicate: junk\n"
    assert main(["search", str(empty), "--where", "t1"]) == 0
    assert capsys.readouterr().out == "0 of 0 records match t1\n"



def test_report_dot_kinds(brace_file, capsys):
    for kind, graph in [
        ("ideal-lattice", "digraph ideal_lattice"),
        ("closed-sets", "digraph closed_sets"),
        ("specialization", "digraph specialization"),
    ]:
        assert main(["report", brace_file, "--kind", kind]) == 0
        out = capsys.readouterr().out
        assert out.startswith(graph)


def test_report_json_and_out_file(brace_file, tmp_path, capsys):
    assert main(["report", brace_file, "--kind", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["brace"]["order"] == 4
    assert doc["spectra"]["star"]["primes"] == []

    out_path = tmp_path / "report.json"
    assert main(["report", brace_file, "--kind", "json", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert json.loads(out_path.read_text()) == doc


def test_report_definition_choices(brace_file, capsys):
    for kind in ("star", "ksv", "huq"):
        assert (
            main(["report", brace_file, "--kind", "closed-sets", "--definition", kind])
            == 0
        )
        capsys.readouterr()


def test_spec_command(brace_file, capsys):
    assert main(["spec", brace_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spectrum"]["primes"] == []
    assert doc["spectrum"]["nil"] == [0, 1, 2, 3]
    assert doc["topology"]["spectral"] is True
    assert main(["spec", brace_file, "--definition", "huq"]) == 0
    capsys.readouterr()


def test_quotient_command(brace_file, capsys):
    assert main(["quotient", brace_file, "--ideal", "0,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ideal"] == [0, 2]
    assert doc["quotient"]["order"] == 2
    assert doc["projection"] == [0, 1, 0, 1]
    assert doc["ideal_correspondence_bijective"] is True


def test_quotient_non_ideal_is_property_failure(brace_file, capsys):
    assert main(["quotient", brace_file, "--ideal", "0,1"]) == 1
    # the refused set is named by the elements typed, not by its bitmask
    err = capsys.readouterr().err
    assert "NotAnIdealError" in err and "witness [0, 1]" in err


def test_quotient_bad_elements_are_input_errors(brace_file, capsys):
    assert main(["quotient", brace_file, "--ideal", "0,9"]) == 2
    assert main(["quotient", brace_file, "--ideal", "0,x"]) == 2
    capsys.readouterr()


def test_hom_command(tmp_path, capsys):
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a + b + 2 * a * b) % 4 for b in range(4)] for a in range(4)]
    f = validate_hom(
        validate(add, mul), trivial_brace(cyclic_table(2)), [0, 1, 0, 1]
    )
    path = tmp_path / "hom.json"
    path.write_text(dumps(hom_to_dict(f)))
    assert main(["hom", str(path)]) == 0
    # the whole line is pinned, keys and bytes
    assert capsys.readouterr().out == (
        '{"image":[0,1],"injective":false,'
        '"kernel":[0,2],"spec_map":{"continuity_exact":true,'
        '"continuity_vacuous":true,"contractions_prime":true,'
        '"density_matches_kernel":true,"kind":"star","points":0},'
        '"surjective":true}\n'
    )


def test_hom_broken_map_is_property_failure(tmp_path, capsys):
    z4 = brace_to_dict(trivial_brace(cyclic_table(4)))
    doc = {"source": z4, "target": z4, "map": [0, 1, 0, 1]}
    path = tmp_path / "hom.json"
    path.write_text(dumps(doc))
    assert main(["hom", str(path)]) == 1
    assert "NotAHomomorphismError" in capsys.readouterr().err


def test_hom_bad_shape_is_input_error(tmp_path, capsys):
    path = tmp_path / "hom.json"
    path.write_text(dumps({"source": Z4_RADICAL_DOC, "target": Z4_RADICAL_DOC}))
    assert main(["hom", str(path)]) == 2
    capsys.readouterr()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_2(brace_file):
    with pytest.raises(SystemExit) as exc:
        main(["report", brace_file])
    assert exc.value.code == 2


@pytest.mark.parametrize("order", [0, -1, 7])
def test_catalog_order_out_of_range_exits_2(tmp_path, capsys, order):
    path = tmp_path / "catalog.jsonl"
    assert main(["catalog", "--max-order", str(order), "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and f"1..{ENUMERATION_BOUND}" in err
    assert not path.exists()


def test_check_past_the_canonical_bound_exits_2(tmp_path, capsys):
    # an order-9 record would need 8! relabellings per fingerprint: refused
    # as input, by check and search alike, naming the bound
    z9 = [[(a + b) % 9 for b in range(9)] for a in range(9)]
    doc = record_to_dict(build_record("7-0", trivial_brace(cyclic_table(7))))
    path = tmp_path / "catalog9.jsonl"
    path.write_text(dumps(dict(doc, id="9-0", order=9, add=z9, mul=z9)) + "\n")
    for argv in (["check", str(path)], ["search", str(path), "--where", "t1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "input error" in err and f"1..{CANONICAL_BOUND}, got 9" in err


def test_spec_past_the_member_bound_exits_2(tmp_path, capsys, monkeypatch):
    # trivial Z10 has four ideals; with the member bound at 3 its lattice
    # is refused as input, naming the bound
    path = tmp_path / "z10.json"
    path.write_text(dumps(brace_to_dict(trivial_brace(cyclic_table(10)))))
    ideals.all_ideals.cache_clear()
    ideals.ideal_lattice.cache_clear()
    monkeypatch.setattr(ideals, "MEMBER_BOUND", 3)
    assert main(["spec", str(path)]) == 2
    assert "input error: ideal lattice is bounded to 3 members" in capsys.readouterr().err


def test_check_past_the_enumeration_bound_is_vacuous(tmp_path, capsys):
    # trivial Z7 is a valid record, but order 7 cannot be enumerated to
    # compare with: the catalog-level rows are vacuous, not failures
    path = tmp_path / "catalog7.jsonl"
    write_catalog([build_record("7-0", trivial_brace(cyclic_table(7)))], str(path))
    rows = {
        r.check: r
        for r in run_records(read_catalog(str(path)))
        if r.check.startswith("catalog-")
    }
    assert set(rows) == {
        "catalog-isomorphism-free",
        "catalog-matches-enumeration",
        "catalog-deterministic",
    }
    for r in rows.values():
        assert r.verdict == "vacuous"
        assert r.detail == f"enumeration bounded to order {ENUMERATION_BOUND}"
    assert main(["check", str(path)]) == 0
    assert "0 fail" in capsys.readouterr().out
