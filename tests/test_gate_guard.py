"""Outside tables pass one gate: an AST scan of the package.

groups.table_shape_error is the one reader of raw entries, and
find_identity and group_violation decide the group axioms.  Outside
groups, only braces._group_pair, the gate that validate, trivial_brace
and almost_trivial_brace share, reads them or the groups helpers built on
them; catalog.record_from_dict also calls table_shape_error, to refuse a
malformed record at parse time.  A second copy of the gate fails here.
"""

from test_relabelling_guard import ROOT, readers

GATE = ("find_identity", "group_violation", "table_shape_error")


def test_only_the_gate_reads_raw_tables():
    found = {
        (path.name, name): readers(path.read_text(), name)
        for path in sorted((ROOT / "src" / "sbspec").glob("*.py"))
        if path.name != "groups.py"
        for name in GATE
    }
    assert {key: fns for key, fns in found.items() if fns} == {
        ("braces.py", "find_identity"): ["_group_pair"],
        ("braces.py", "group_violation"): ["_group_pair"],
        ("braces.py", "table_shape_error"): ["_group_pair"],
        ("catalog.py", "table_shape_error"): ["record_from_dict"],
    }
