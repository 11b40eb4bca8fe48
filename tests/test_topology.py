"""Topology layer.

Every brace of order <= 6 has an empty spectrum, so the checkers would
be vacuously green if they were only ever run on real spectra.  The
tests here therefore split into three groups:

1. synthetic finite spaces with known separation/soberness/irreducibility
   behaviour, covering both outcomes of every checker;
2. a pseudo-point hull-kernel space (points = all proper ideals rather
   than the primes), on which specific axioms must FAIL, proving the
   report functions can reject;
3. the real, empty spectra, where the degenerate conventions are pinned.
"""

import pytest

from sbspec.bitsets import full_mask, mask_of
from sbspec.errors import ConsistencyError
from sbspec.ideals import ideal_lattice
from sbspec.spectra import spectrum
from sbspec.topology import (
    HullKernelSpace,
    SpecTopology,
    closed_axioms_report,
    closure_in,
    connected_component_count,
    finite_space,
    generic_points,
    irreducibility_report,
    irreducible_closed_sets,
    is_connected,
    is_sober,
    is_space_irreducible,
    is_t0,
    is_t1,
    is_topology,
    lattice_spectrum,
    noetherian_report,
    point_closure,
    separation_report,
    spec_topology,
    space_components,
    spectral_report,
)

# -- synthetic spaces -------------------------------------------------------

SIERPINSKI = finite_space(2, [0, 0b01, 0b11])
INDISCRETE2 = finite_space(2, [0, 0b11])
DISCRETE2 = finite_space(2, [0, 0b01, 0b10, 0b11])
EMPTY = finite_space(0, [0])
POINT = finite_space(1, [0, 0b1])
# three points in a chain: closures {0} < {0,1} < {0,1,2}
CHAIN3 = finite_space(3, [0, 0b001, 0b011, 0b111])


def test_is_topology_accepts():
    for fs in (SIERPINSKI, INDISCRETE2, DISCRETE2, EMPTY, POINT, CHAIN3):
        ok, why = is_topology(fs)
        assert ok and why is None


def test_is_topology_rejects():
    ok, why = is_topology(finite_space(2, [0b01, 0b11]))
    assert not ok and "empty" in why
    ok, why = is_topology(finite_space(2, [0, 0b01]))
    assert not ok and "whole" in why
    # three points, both "axes" closed but their intersection not closed
    ok, why = is_topology(finite_space(3, [0, 0b011, 0b110, 0b111]))
    assert not ok and "intersection" in why
    # union escaping the family
    ok, why = is_topology(finite_space(3, [0, 0b001, 0b010, 0b111]))
    assert not ok and "union" in why


def test_closures_and_specialization():
    assert point_closure(SIERPINSKI, 0) == 0b01
    assert point_closure(SIERPINSKI, 1) == 0b11
    assert closure_in(SIERPINSKI, 0) == 0
    assert closure_in(DISCRETE2, 0b11) == 0b11


def test_t0_t1():
    assert is_t0(SIERPINSKI) == (True, None)
    assert is_t1(SIERPINSKI) == (False, (1,))
    ok, witness = is_t0(INDISCRETE2)
    assert not ok and witness == (0, 1)
    assert is_t0(DISCRETE2) == (True, None)
    assert is_t1(DISCRETE2) == (True, None)
    assert is_t0(EMPTY) == (True, None)
    assert is_t1(EMPTY) == (True, None)
    assert is_t1(POINT) == (True, None)


def test_irreducibles_and_generic_points():
    assert irreducible_closed_sets(SIERPINSKI) == (0b01, 0b11)
    assert generic_points(SIERPINSKI, 0b11) == (1,)
    assert generic_points(SIERPINSKI, 0b01) == (0,)
    # in the indiscrete space the whole set has two generic points
    assert generic_points(INDISCRETE2, 0b11) == (0, 1)
    assert irreducible_closed_sets(DISCRETE2) == (0b01, 0b10)
    assert irreducible_closed_sets(EMPTY) == ()


def test_sober():
    assert is_sober(SIERPINSKI) == (True, None)
    ok, witness = is_sober(INDISCRETE2)
    assert not ok
    assert witness == (0b11, (0, 1))
    assert is_sober(DISCRETE2) == (True, None)
    assert is_sober(EMPTY) == (True, None)
    assert is_sober(CHAIN3) == (True, None)


def test_irreducible_space_and_components():
    assert is_space_irreducible(SIERPINSKI)
    assert not is_space_irreducible(DISCRETE2)
    assert not is_space_irreducible(EMPTY)
    assert space_components(SIERPINSKI) == (0b11,)
    assert space_components(DISCRETE2) == (0b01, 0b10)
    assert connected_component_count(DISCRETE2) == 2
    assert connected_component_count(SIERPINSKI) == 1
    assert connected_component_count(EMPTY) == 0
    assert is_connected(CHAIN3)
    assert not is_connected(DISCRETE2)


def test_spectral_report_synthetic():
    rep = spectral_report(DISCRETE2)
    assert rep.spectral and rep.t0 and rep.sober
    # not sober => not spectral
    rep = spectral_report(INDISCRETE2)
    assert not rep.spectral and not rep.sober and not rep.t0
    rep = spectral_report(EMPTY)
    assert rep.spectral
    rep = spectral_report(CHAIN3)
    assert rep.spectral


# -- hull-kernel spaces over real braces ------------------------------------


def test_empty_spectrum_space(z4_radical):
    st = spec_topology(z4_radical)
    assert st.hk.n_points == 0
    assert st.hk.space.closed == (0,)
    assert st.hk.kern(0) == full_mask(4)
    assert st.hk.closure(0) == 0
    assert closed_axioms_report(st.hk).ok


def test_hull_and_kern_small(v4_trivial):
    # a pseudo space built from the three maximal ideals as points
    lat = ideal_lattice(v4_trivial)
    points = lat.maximal_ideals()
    hk = HullKernelSpace(lat, points, lat.star)
    assert hk.n_points == 3
    assert hk.hull(mask_of([0])) == 0b111
    assert hk.hull(full_mask(4)) == 0
    assert hk.hull(mask_of([0, 1])) == 0b001
    assert hk.kern(0b011) == mask_of([0])
    assert hk.kern(0b001) == mask_of([0, 1])
    assert hk.closure(0b001) == 0b001


def test_pseudo_points_fail_union_axiom(v4_trivial):
    """Falsifiability: with all proper ideals as points, the hulls are
    NOT the closed sets of a topology."""
    lat = ideal_lattice(v4_trivial)
    hk = HullKernelSpace(lat, lat.proper_members(), lat.star)
    rep = closed_axioms_report(hk)
    assert not rep.ok
    assert not rep.union_is_meet_hull
    assert not rep.union_is_product_hull
    assert rep.whole_hull_empty and rep.zero_hull_all
    assert rep.witness is not None

    ok, why = is_topology(hk.space)
    assert not ok and "union" in why
    with pytest.raises(ConsistencyError):
        spectral_report(hk.space)


def test_pseudo_points_separation(v4_trivial):
    lat = ideal_lattice(v4_trivial)
    hk = HullKernelSpace(lat, lat.proper_members(), lat.star)
    st = SpecTopology(v4_trivial, "star", lat, spectrum(v4_trivial, "star"), hk)
    rep = separation_report(st)
    assert rep.n_points == 4
    assert rep.t0
    assert not rep.t1
    assert not rep.spec_equals_max
    # A*A = 0 sits inside every maximal ideal, so the equivalence
    # hypothesis fails and the biconditional is not asserted
    assert not rep.hypothesis_square_outside_max
    assert rep.t1_iff_spec_equals_max is None


def test_pseudo_points_irreducibility(v4_trivial):
    lat = ideal_lattice(v4_trivial)
    hk = HullKernelSpace(lat, lat.proper_members(), lat.star)
    st = SpecTopology(v4_trivial, "star", lat, spectrum(v4_trivial, "star"), hk)
    rep = irreducibility_report(st)
    # the components of the pseudo space are not hulls of minimal primes
    # (there are no primes at all), and the space is irreducible even
    # though the nil radical is not prime; both mismatches must be caught
    assert not rep.components_are_minimal_hulls
    assert rep.whole_irreducible
    assert not rep.nil_is_prime
    assert not rep.whole_iff_nil_prime
    assert rep.witness is not None


def test_real_separation_reports(z4_radical, s3_almost, zero_brace):
    for brace in (z4_radical, s3_almost):
        rep = separation_report(spec_topology(brace))
        assert rep.n_points == 0
        assert rep.t0 and rep.t1
        assert rep.spec_equals_max is False
        assert rep.hypothesis_square_outside_max is False
        assert rep.t1_iff_spec_equals_max is None

    # the one-element brace: no maximal ideals, hypothesis vacuously
    # true, both sides of the biconditional hold
    rep = separation_report(spec_topology(zero_brace))
    assert rep.hypothesis_square_outside_max
    assert rep.t1_iff_spec_equals_max is True


def test_real_irreducibility_reports(z4_radical):
    rep = irreducibility_report(spec_topology(z4_radical))
    assert rep.n_points == 0
    assert rep.irreducibles_are_point_hulls
    assert rep.generic_points_unique
    assert rep.components_are_minimal_hulls
    # the empty space is not irreducible, and the nil radical (the whole
    # brace here) is not prime; the biconditional is a genuine pass
    assert not rep.whole_irreducible
    assert not rep.nil_is_prime
    assert rep.whole_iff_nil_prime


def test_real_noetherian_reports(z4_radical, v4_trivial):
    for brace in (z4_radical, v4_trivial):
        rep = noetherian_report(spec_topology(brace))
        assert rep.n_points == 0
        assert rep.longest_closed_chain == 1
        assert rep.ok


def test_noetherian_rejects_pseudo_max_points(v4_trivial):
    # the three maximal ideals are pairwise incomparable points whose
    # singleton hulls do not union to closed sets, so this is not a
    # topology: the longest closed chain is 0 < {P} < everything, one
    # short of points + 1
    lat = ideal_lattice(v4_trivial)
    hk = HullKernelSpace(lat, lat.maximal_ideals(), lat.star)
    ok, why = is_topology(hk.space)
    assert not ok and "union" in why
    with pytest.raises(ConsistencyError):
        spectral_report(hk.space)
    assert not closed_axioms_report(hk).union_is_meet_hull
    st = SpecTopology(v4_trivial, "star", lat, spectrum(v4_trivial, "star"), hk)
    rep = noetherian_report(st)
    assert rep.n_points == 3
    assert rep.longest_closed_chain == 3
    assert not rep.ok


def test_lattice_spectrum_empty_and_spectral(z4_radical, v4_trivial, zero_brace):
    for brace in (z4_radical, v4_trivial, zero_brace):
        ls = lattice_spectrum(brace)
        assert ls.primes == ()
        assert closed_axioms_report(ls.hk).ok
        assert is_topology(ls.hk.space)[0]
        assert spectral_report(ls.hk.space).spectral
    # every proper lattice element is rejected with an ideal-pair witness
    ls = lattice_spectrum(z4_radical)
    assert len(ls.spec.rejected) == 2
    for p, (tag, x, y) in ls.spec.rejected:
        lat = ls.lat
        assert tag == "ideals"
        assert lat.leq(lat.star(x, y), p)
        assert not lat.leq(x, p) and not lat.leq(y, p)


def test_lattice_spectrum_is_star_spectrum(a5_almost):
    ls = lattice_spectrum(a5_almost)
    assert ls is spec_topology(a5_almost, "star")
    assert ls.primes == (1,)
    assert ls.hk.points == (1,)


def test_union_law_uses_the_space_product(a5_trivial):
    # {0} is huq prime on trivial A5 ([A, A] = A) but not star prime
    # (A*A = {0}); the union law holds against the commutator ideal and
    # fails against the star product on the same points
    st = spec_topology(a5_trivial, "huq")
    assert st.primes == (1,)
    assert closed_axioms_report(st.hk).ok
    lat = st.lat
    wrong = closed_axioms_report(HullKernelSpace(lat, st.primes, lat.star))
    assert not wrong.ok
    assert wrong.union_is_meet_hull and not wrong.union_is_product_hull
    assert wrong.witness == ("union-product", lat.top, lat.top)


def test_spec_topology_cached(z4_radical):
    assert spec_topology(z4_radical) is spec_topology(z4_radical)
    assert lattice_spectrum(z4_radical) is lattice_spectrum(z4_radical)
