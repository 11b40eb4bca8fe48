"""No function in the package sweeps every relabelling: an AST scan of src/sbspec.

Maps between tables come from groups.homomorphisms, whose cost grows with
the number of generator images, and canonical forms from a search forced
on row 1; a loop over identity_fixing_perms costs (n-1)!, and that sweep
is a test oracle (group_oracles).  The scan lists the top-level function
that reads that name in each module of src/sbspec, so a full relabelling
loop in the package fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP = "identity_fixing_perms"


def readers(source: str, name: str = SWEEP) -> list[str]:
    """The top-level functions (or "<module>") that read name, in order."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                read = isinstance(sub.ctx, ast.Load) and sub.id == name
            else:
                read = isinstance(sub, ast.Attribute) and sub.attr == name
            if read and owner not in found:
                found.append(owner)
    return found


def test_scan_finds_every_reader():
    source = (
        "from x import identity_fixing_perms\n"
        "def identity_fixing_perms_count(n):\n"
        "    return n\n"
        "def a(n):\n"
        "    return [p for p in identity_fixing_perms(n)]\n"
        "def b(g, n):\n"
        "    return min(g.identity_fixing_perms(n))\n"
        "c = list(identity_fixing_perms(3))\n"
    )
    assert readers(source) == ["a", "b", "<module>"]


def test_only_the_canonical_form_sweeps_relabellings():
    found = {
        path.name: readers(path.read_text())
        for path in sorted((ROOT / "src" / "sbspec").glob("*.py"))
    }
    assert {name: fns for name, fns in found.items() if fns} == {}
