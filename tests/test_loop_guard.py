"""No function in src/sbspec nests three loops over range(...): an AST scan.

Every law is checked on a generating set: associativity by Light's test
in groups.group_violation, a map's law by groups._law_witness and the
skew law by braces._skew_witness (a over the ∘-generators, c over the
+-generators), each O(n^2 * generators) or less.  An n^3 sweep
over element triples belongs in the tests, as an oracle, so a new one in
the package fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _over_range(node) -> int:
    """1 when node is a call of the name range, else 0."""
    return int(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


def range_depth(nodes) -> int:
    """The deepest nesting of loops over range(...) in nodes, nested scopes aside."""
    best = 0
    for node in nodes:
        if isinstance(node, SCOPES):
            continue
        if isinstance(node, ast.For):
            depth = max(
                _over_range(node.iter) + range_depth(node.body),
                range_depth([node.iter, *node.orelse]),
            )
        elif isinstance(node, COMPREHENSIONS):
            ranged = sum(_over_range(g.iter) for g in node.generators)
            depth = ranged + range_depth(ast.iter_child_nodes(node))
        else:
            depth = range_depth(ast.iter_child_nodes(node))
        best = max(best, depth)
    return best


def triple_range_loops(source: str) -> list[str]:
    """The functions, nested ones included, whose own body nests three range loops."""
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and range_depth(node.body) >= 3
    ]


def test_scan_finds_every_triple_loop():
    source = (
        "def statements(n):\n"
        "    for a in range(n):\n"
        "        for b in range(n):\n"
        "            if a < b:\n"
        "                for c in range(n):\n"
        "                    pass\n"
        "def comprehension(n):\n"
        "    return [a for a in range(n) for b in range(n) if any(c for c in range(n))]\n"
        "def mixed(n):\n"
        "    for a in range(n):\n"
        "        x = {(b, c) for b in range(n) for c in range(a)}\n"
        "def over_generators(n, gens):\n"
        "    for a in range(n):\n"
        "        for b in range(n):\n"
        "            for g in gens:\n"
        "                pass\n"
        "def side_by_side(n):\n"
        "    for a in range(n):\n"
        "        for b in range(n):\n"
        "            pass\n"
        "    for c in range(n):\n"
        "        pass\n"
        "def outer(n):\n"
        "    for a in range(n):\n"
        "        for b in range(n):\n"
        "            def inner():\n"
        "                for c in range(n):\n"
        "                    pass\n"
    )
    assert triple_range_loops(source) == ["statements", "comprehension", "mixed"]


def test_no_triple_range_loop_in_the_package():
    found = {
        path.name: triple_range_loops(path.read_text())
        for path in sorted((ROOT / "src" / "sbspec").glob("*.py"))
    }
    assert {name: fns for name, fns in found.items() if fns} == {}
