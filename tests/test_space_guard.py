"""The topology rows and the spec-map certificates read a space: an
inspection of the suite's table and an AST scan of the package.

Every computed per-kind entry, and the spectral entry, takes one
parameter, a zero-argument getter of a HullKernelSpace, so the rows run
on the space of any lattice.  In suite.py only the runner, which hands
out partial(spec_topology, brace, kind), and the spectral tail entry
read spec_topology.  induced_spec_map reads the two spaces of its hom
and derives no prime list or nil radical of its own.  It is also the one
reader of extension, and morphisms.py reads no cached_property, so no
per-hom table of extensions is built ahead of the points that read it.
"""

import inspect

from sbspec.suite import _spectral
from test_relabelling_guard import ROOT, readers
from test_spaces import COMPUTED

PACKAGE = ROOT / "src" / "sbspec"


def test_space_entries_take_one_getter():
    entries = [check for _, check, _ in COMPUTED] + [_spectral]
    assert [check.__name__ for check in entries] == [
        "_closed_axioms",
        "_t0_specialization",
        "_t1_iff_spec_equals_max",
        "_irreducibility",
        "_noetherian",
        "_spectral",
    ]
    for check in entries:
        assert list(inspect.signature(check).parameters) == ["space"], check.__name__


def test_only_the_runner_builds_spaces_in_the_suite():
    # "<module>" is the spectral entry of the tail table
    source = (PACKAGE / "suite.py").read_text()
    assert readers(source, "spec_topology") == ["<module>", "run_brace_suite"]


def test_spec_maps_read_no_spectrum():
    source = (PACKAGE / "morphisms.py").read_text()
    for name in ("spectrum", "nil_radical"):
        assert "induced_spec_map" not in readers(source, name), name


def test_extensions_are_closed_only_by_the_spec_map():
    source = (PACKAGE / "morphisms.py").read_text()
    assert readers(source, "cached_property") == []
    found = {
        path.name: readers(path.read_text(), "extension")
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: fns for name, fns in found.items() if fns} == {
        "morphisms.py": ["induced_spec_map"]
    }
