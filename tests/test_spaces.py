"""Spaces with two points, from real braces: B x B and B x B'.

B and B' are the two classes of braces on A4 whose only ideals are {0}
and A (conftest).  {0} is prime in each under every kind, so each
product has four ideals and a spectrum of two points per kind: the
first suite inputs whose topology rows quantify over more than one
point.
"""

import pytest

from sbspec.braces import direct_product, is_isomorphic
from sbspec.enumeration import _twist_braces
from sbspec.ideals import ideal_lattice
from sbspec.spectra import PRIME_KINDS, spectrum
from sbspec.suite import run_brace_suite
from sbspec.topology import spec_topology


def test_b_and_b_prime_are_the_simple_twist_classes_of_a4(b_brace, b_prime_brace):
    simple = [b for b in _twist_braces(b_brace.add) if len(ideal_lattice(b)) == 2]
    assert len(simple) == 24
    assert is_isomorphic(b_brace, b_prime_brace) is None
    assert all(
        (is_isomorphic(b, b_brace) is None) != (is_isomorphic(b, b_prime_brace) is None)
        for b in simple
    )
    for brace in (b_brace, b_prime_brace):
        assert ideal_lattice(brace).members == (1, ideal_lattice(brace).top)
        assert all(spectrum(brace, kind).primes == (1,) for kind in PRIME_KINDS)


@pytest.mark.parametrize("right", ["b_brace", "b_prime_brace"])
def test_products_have_two_points_and_pass_every_row(b_brace, right, request):
    brace = direct_product(b_brace, request.getfixturevalue(right))
    assert len(ideal_lattice(brace)) == 4
    assert [spec_topology(brace, kind).n_points for kind in PRIME_KINDS] == [2, 2, 2]
    rows = run_brace_suite(f"b x {right}", brace)
    assert len(rows) == 52
    assert [r for r in rows if r.verdict != "pass"] == []
