"""Only two loops sample: an AST scan of the package.

ideals.sample_cases draws 4096 seeded cases once a loop passes that
bound.  The join-distributivity triples of multiplicative_lattice_check
and the star-chain pairs use it.  The ideal-lattice certificates
(ideal-criteria and generated-ideal-routes) close one seed per (member,
class) step and are exhaustive at every order, so a seed loop that went
back to sampling fails here.
"""

from test_relabelling_guard import ROOT, readers


def test_only_the_pair_and_triple_loops_sample():
    found = {
        path.name: readers(path.read_text(), "sample_cases")
        for path in sorted((ROOT / "src" / "sbspec").glob("*.py"))
    }
    assert {name: fns for name, fns in found.items() if fns} == {
        "ideals.py": ["multiplicative_lattice_check"],
        "suite.py": ["_star_chain"],
    }
