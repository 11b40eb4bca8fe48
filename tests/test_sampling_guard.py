"""No loop samples: an AST scan of the package.

Every suite row is exhaustive.  The join-distributivity check of
multiplicative_lattice_check runs on the join-generators, star-chain on
the principal ideal pairs, and the ideal-lattice certificates
(ideal-criteria and generated-ideal-routes) close one seed per (member,
class) step, so no package function reads a seeded sample.  A function
that reads sample_cases, or a module that imports random, fails here.
"""

import ast

from test_relabelling_guard import ROOT, readers


def imported_modules(source: str) -> set[str]:
    """The top-level package of every module the source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module.split(".")[0])
    return found


def test_only_the_pair_and_triple_loops_sample():
    sources = {
        path.name: path.read_text() for path in sorted((ROOT / "src" / "sbspec").glob("*.py"))
    }
    assert [name for name, src in sources.items() if readers(src, "sample_cases")] == []
    assert [name for name, src in sources.items() if "random" in imported_modules(src)] == []
    assert imported_modules("import random as r\nfrom random import sample\n") == {"random"}
