"""One corpus of malformed input through every entry point.

A table enters by validate, trivial_brace, almost_trivial_brace,
brace_from_dict, record_from_dict (then verify_record), hom_from_dict and
the `validate`, `check` and `hom` commands; a map by validate_hom,
hom_from_dict and `hom`.  Every entry point raises the same exception
type, and the CLI exits 2 on a ParseError and 1 on any other error.
Malformed tables are refused at parse time by record_from_dict too.
"""

import json

import pytest

from sbspec.braces import almost_trivial_brace, trivial_brace, validate
from sbspec.catalog import build_record, record_from_dict, record_to_dict, verify_record
from sbspec.cli import main
from sbspec.errors import ParseError
from sbspec.groups import cyclic_table
from sbspec.morphisms import validate_hom
from sbspec.serialize import brace_from_dict, brace_to_dict, dumps, hom_from_dict

from test_braces import NON_BRACE_TABLES

# Z2 written with bools: validate used to accept it, and brace_to_dict
# then wrote JSON that brace_from_dict refused
BOOL_Z2 = [[False, True], [True, False]]

MALFORMED_TABLES = NON_BRACE_TABLES + [
    (BOOL_Z2, ParseError),
    ([[0, True], [True, 0]], ParseError),
    ([[0, 1], "10"], ParseError),
    ([[0, 1], 1], ParseError),
    ([[0, 1], {"0": 1, "1": 0}], ParseError),
    ([[0.0, 1.0], [1.0, 0.0]], ParseError),
    ([[0, 1], [1, -1]], ParseError),
    ([[0, 1, 2], [1, 2, 0], [2, 0, 3]], ParseError),
]

# maps from trivial Z2 to itself
MALFORMED_MAPS = [
    [False, True],
    [0, True],
    [0, 1.0],
    [0, "1"],
    [0, 2],
    [0, -1],
    [0],
    {0: 1, 1: 0},
    "01",
    1,
    None,
]


def _exit_code(error) -> int:
    return 2 if error is ParseError else 1


def _json(obj):
    """obj as it comes back from a JSON file: tuples become lists."""
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("table, error", MALFORMED_TABLES)
def test_every_table_entry_point_refuses_alike(tmp_path, capsys, table, error):
    n = len(table)
    with pytest.raises(error):
        validate(table, table)
    with pytest.raises(error):
        trivial_brace(table)
    with pytest.raises(error):
        almost_trivial_brace(table)

    doc = _json({"order": n, "add": table, "mul": table})
    with pytest.raises(error):
        brace_from_dict(doc)
    z1 = brace_to_dict(trivial_brace(cyclic_table(1)))
    hom = {"source": doc, "target": z1, "map": [0] * n}
    with pytest.raises(error):
        hom_from_dict(hom)

    record = record_to_dict(build_record(f"{n}-0", trivial_brace(cyclic_table(n))))
    record.update(_json({"add": table, "mul": table}))
    if error is ParseError:
        with pytest.raises(ParseError):
            record_from_dict(record)
    else:
        parsed = record_from_dict(record)
        with pytest.raises(error):
            verify_record(parsed)

    for command, obj in (("validate", doc), ("hom", hom), ("check", record)):
        path = tmp_path / f"{command}.json"
        path.write_text(dumps(obj) + "\n")
        assert main([command, str(path)]) == _exit_code(error), command
        capsys.readouterr()


@pytest.mark.parametrize("mapping", MALFORMED_MAPS)
def test_every_map_entry_point_refuses_alike(tmp_path, capsys, z2_trivial, mapping):
    with pytest.raises(ParseError):
        validate_hom(z2_trivial, z2_trivial, mapping)
    doc = brace_to_dict(z2_trivial)
    hom = {"source": doc, "target": doc, "map": mapping}
    with pytest.raises(ParseError):
        hom_from_dict(_json(hom))
    path = tmp_path / "hom.json"
    path.write_text(dumps(hom))
    assert main(["hom", str(path)]) == 2
    capsys.readouterr()


def test_what_validate_accepts_round_trips(catalog4):
    with pytest.raises(ParseError):
        validate(BOOL_Z2, BOOL_Z2)
    for rec in catalog4:
        brace = validate([list(r) for r in rec.add], [list(r) for r in rec.mul])
        assert brace_from_dict(_json(brace_to_dict(brace))) == brace


# files the readers cannot decode: bytes that are not UTF-8, and JSON
# nested deeper than Python's recursion limit
UNREADABLE = {
    "not-utf8": b'\xff\xfe{"order": 1}\n',
    "too-deep": ("[" * 100_000 + "]" * 100_000 + "\n").encode(),
}


def _refused(capsys, argv):
    assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "Traceback" not in err, err


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_files_are_input_errors(tmp_path, capsys, name):
    path = tmp_path / "input.json"
    path.write_bytes(UNREADABLE[name])
    for command in ("validate", "hom", "check"):
        _refused(capsys, [command, str(path)])
    # the bad line after a good record
    record = dumps(record_to_dict(build_record("2-0", trivial_brace(cyclic_table(2)))))
    catalog = tmp_path / "catalog.jsonl"
    catalog.write_bytes(record.encode() + b"\n" + UNREADABLE[name])
    _refused(capsys, ["check", str(catalog)])


def test_outputs_in_a_missing_directory_are_input_errors(tmp_path, capsys):
    doc = tmp_path / "z2.json"
    doc.write_text(dumps(brace_to_dict(trivial_brace(cyclic_table(2)))))
    missing = tmp_path / "missing"
    for kind in ("ideal-lattice", "closed-sets", "specialization", "json"):
        _refused(capsys, ["report", str(doc), "--kind", kind, "--out", str(missing / "r")])
    _refused(capsys, ["catalog", "--max-order", "2", "--out", str(missing / "c.jsonl")])
    assert not missing.exists()
