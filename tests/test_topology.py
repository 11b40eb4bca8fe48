"""Topology layer.

Every brace of order <= 6 has an empty spectrum, and the larger braces
of the corpus have at most one prime, so the checkers would be
vacuously green if they were only ever run on real spectra.  The tests
here therefore split into four groups:

1. synthetic finite spaces with known separation/soberness/irreducibility
   behaviour, covering both outcomes of every checker;
2. pseudo-point hull-kernel spaces (points = all proper ideals, or the
   maximal ideals, rather than the primes), on which specific axioms
   must FAIL, proving the report functions can reject;
3. the real, empty or one-point spectra, where the degenerate
   conventions are pinned;
4. hull-kernel spaces of small mask lattices that are not ideal
   lattices of a brace, with two and three points and known answers:
   divisor lattices of Z/n under ideal multiplication, and chains under
   meet.  ProductLattice, the product of two such lattices, carries the
   suite's space rows to 2-, 3- and 4-point spaces in test_spaces.py.
"""

import itertools
import math
from functools import reduce

import pytest

from sbspec.bitsets import bits, full_mask, is_subset, mask_of, popcount
from sbspec.errors import ConsistencyError
from sbspec.ideals import ideal_lattice
from sbspec.spectra import ideal_pair_witness, spectrum
from sbspec.topology import (
    HullKernelSpace,
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


def comparability_components(fs) -> int:
    """The oracle: components of the comparability graph of the
    specialization order, by a walk over point closures."""
    n = fs.n_points
    closures = [point_closure(fs, i) for i in range(n)]
    seen, count = set(), 0
    for start in range(n):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in seen and (closures[i] >> j & 1 or closures[j] >> i & 1):
                    seen.add(j)
                    stack.append(j)
    return count


def all_topologies(n: int):
    """Every topology on n points, one per preorder: the closed sets are
    the down-sets, the sets holding below[i] for each of their points i."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        below = [1 << i for i in range(n)]  # bit j of below[i]: j <= i
        for (i, j), on in zip(pairs, chosen):
            below[i] |= on << j
        if all(is_subset(below[j], below[i]) for i in range(n) for j in bits(below[i])):
            closed = [s for s in range(1 << n) if all(is_subset(below[i], s) for i in bits(s))]
            yield finite_space(n, closed)


def test_component_count_matches_the_comparability_graph():
    # every topology on at most 4 points: 1, 1, 4, 29 and 355 of them
    counts = []
    for n in range(5):
        spaces = list(all_topologies(n))
        counts.append(len(spaces))
        assert len({fs.closed for fs in spaces}) == len(spaces)
        for fs in spaces:
            assert is_topology(fs)[0]
            assert connected_component_count(fs) == comparability_components(fs), fs
    assert counts == [1, 1, 4, 29, 355]


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
    hk = spec_topology(z4_radical)
    assert hk.n_points == 0
    assert hk.space.closed == (0,)
    assert hk.kern(0) == full_mask(4)
    assert hk.closure(0) == 0
    assert closed_axioms_report(hk).ok


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
    rep = separation_report(hk)
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
    rep = irreducibility_report(hk)
    # the space is irreducible, with the minimal point {0} as generic
    # point, but its nil radical {0} is not prime for the zero star
    # product (A*A = 0); the mismatch must be caught
    assert rep.components_are_minimal_hulls
    assert rep.whole_irreducible
    assert not rep.nil_is_prime
    assert not rep.whole_iff_nil_prime


def test_pseudo_max_points_irreducibility(v4_trivial):
    # the three maximal ideals are pairwise incomparable, so each is a
    # minimal point, yet no two singleton hulls union to a closed set:
    # the whole space is irreducible without being a point hull, and it
    # has no generic point; the components are not the minimal hulls
    lat = ideal_lattice(v4_trivial)
    hk = HullKernelSpace(lat, lat.maximal_ideals(), lat.star)
    rep = irreducibility_report(hk)
    assert not rep.irreducibles_are_point_hulls
    assert not rep.generic_points_unique
    assert not rep.components_are_minimal_hulls
    assert rep.witness == ("irreducibles", (0b111,))


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
    rep = noetherian_report(hk)
    assert rep.n_points == 3
    assert rep.longest_closed_chain == 3
    assert not rep.ok


def test_lattice_spectrum_empty_and_spectral(z4_radical, v4_trivial, zero_brace):
    for brace in (z4_radical, v4_trivial, zero_brace):
        assert lattice_spectrum(brace).primes == ()
        hk = spec_topology(brace, "star")
        assert closed_axioms_report(hk).ok
        assert is_topology(hk.space)[0]
        assert spectral_report(hk.space).spectral
    # every proper lattice element is rejected with an ideal-pair witness
    ls = lattice_spectrum(z4_radical)
    lat = ideal_lattice(z4_radical)
    assert len(ls.rejected) == 2
    for p, (tag, x, y) in ls.rejected:
        assert tag == "ideals"
        assert lat.leq(lat.star(x, y), p)
        assert not lat.leq(x, p) and not lat.leq(y, p)


def test_lattice_spectrum_is_star_spectrum(a5_almost):
    ls = lattice_spectrum(a5_almost)
    assert ls is spectrum(a5_almost, "star")
    assert ls.primes == (1,)
    assert spec_topology(a5_almost, "star").points == (1,)


def test_union_law_uses_the_space_product(a5_trivial):
    # {0} is huq prime on trivial A5 ([A, A] = A) but not star prime
    # (A*A = {0}); the union law holds against the commutator ideal and
    # fails against the star product on the same points
    hk = spec_topology(a5_trivial, "huq")
    assert hk.points == (1,)
    assert closed_axioms_report(hk).ok
    lat = hk.lat
    wrong = closed_axioms_report(HullKernelSpace(lat, hk.points, lat.star))
    assert not wrong.ok
    assert wrong.union_is_meet_hull and not wrong.union_is_product_hull
    assert wrong.witness == ("union-product", lat.top, lat.top)


def test_spec_topology_cached(z4_radical):
    assert spec_topology(z4_radical) is spec_topology(z4_radical)
    assert lattice_spectrum(z4_radical) is lattice_spectrum(z4_radical)


# -- mask lattices that are not ideal lattices of a brace --------------------


class MaskLattice:
    """A finite lattice of masks under inclusion, closed under intersection,
    with its multiplication given as a function: what a hull-kernel space
    reads from a lattice, and nothing else."""

    def __init__(self, members, product):
        self.members = tuple(sorted(set(members), key=lambda m: (popcount(m), m)))
        self.bottom, self.top = self.members[0], self.members[-1]
        # the prime test's candidates: every member above the bottom, so
        # primality needs no monotone product here
        self.principal = self.members[1:]
        self.star = product

    def meet(self, x, y):
        assert x & y in self.members
        return x & y

    def join(self, x, y):
        return next(m for m in self.members if is_subset(x | y, m))

    def maximal_ideals(self):
        proper = self.members[:-1]
        return tuple(
            m for m in proper if not any(m != o and is_subset(m, o) for o in proper)
        )

    def primes(self, product):
        return tuple(
            m for m in self.members[:-1] if ideal_pair_witness(self, m, product) is None
        )


class ProductLattice(MaskLattice):
    """L1 x L2 of two lattices that carry star and huq products, as a mask
    lattice: L2's bits are shifted past L1's, so the pair (x, y) is the
    mask x | y << shift and inclusion is componentwise.  Meet, join and
    both products are taken componentwise, so kind_product reads a
    product as it reads an ideal lattice, and products nest."""

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.shift = left.top.bit_length()
        members = [x | y << self.shift for x in left.members for y in right.members]
        super().__init__(members, self.componentwise("star"))
        self.meet = self.componentwise("meet")
        self.join = self.componentwise("join")
        self.huq = self.componentwise("huq")

    def componentwise(self, op):
        f, g = getattr(self.left, op), getattr(self.right, op)
        low, s = self.left.top, self.shift
        return lambda x, y: f(x & low, y & low) | g(x >> s, y >> s) << s


class TopJoinLattice(MaskLattice):
    """join answers the top for every incomparable pair: an upper bound
    that is not the least one, so the hull intersection law can fail."""

    def join(self, x, y):
        if is_subset(x, y) or is_subset(y, x):
            return x | y
        return self.top


def divisor_ideal(n, d):
    """The ideal dZ/n of Z/n, as a mask of residues."""
    return mask_of(range(0, n, d))


def divisor_lattice(n):
    """Ideals of Z/n under ideal multiplication: (dZ)(eZ) = gcd(de, n)Z."""
    ideals = {d: divisor_ideal(n, d) for d in range(1, n + 1) if n % d == 0}
    gen = {m: d for d, m in ideals.items()}
    return MaskLattice(
        ideals.values(), lambda x, y: ideals[math.gcd(gen[x] * gen[y], n)]
    )


def chain_lattice(k):
    """The k-element chain {0} < {0,1} < ... with product = meet."""
    return MaskLattice([full_mask(i) for i in range(1, k + 1)], lambda x, y: x & y)


@pytest.mark.parametrize("n, primes", [(8, (2,)), (12, (2, 3)), (30, (2, 3, 5))])
def test_divisor_lattice_spaces(n, primes):
    # Spec of Z/n is the primes dividing n; each is maximal, so the space
    # is discrete, T1 and irreducible only with a single point
    lat = divisor_lattice(n)
    points = lat.primes(lat.star)
    assert set(points) == {divisor_ideal(n, p) for p in primes}
    hk = HullKernelSpace(lat, points, lat.star)
    k = len(primes)
    assert hk.n_points == k
    assert len(hk.space.closed) == 2**k

    assert closed_axioms_report(hk).ok
    assert is_topology(hk.space)[0]
    assert spectral_report(hk.space).spectral

    sep = separation_report(hk)
    assert sep.t0 and sep.t1 and sep.spec_equals_max
    assert sep.hypothesis_square_outside_max
    assert sep.t1_iff_spec_equals_max is True

    irr = irreducibility_report(hk)
    assert irr.irreducibles_are_point_hulls
    assert irr.generic_points_unique
    assert irr.components_are_minimal_hulls
    assert irr.whole_irreducible == irr.nil_is_prime == (k == 1)
    assert irr.whole_iff_nil_prime
    assert irr.witness is None
    # the nil radical is the product of the distinct primes dividing n
    assert hk.kern(hk.space.everything) == divisor_ideal(n, math.prod(primes))

    assert space_components(hk.space) == tuple(1 << i for i in range(k))
    assert connected_component_count(hk.space) == k
    rep = noetherian_report(hk)
    assert rep.n_points == k and rep.ok


@pytest.mark.parametrize("k", [3, 4])
def test_chain_lattice_spaces(k):
    # every proper element of a chain is prime for the meet; P_i lies in
    # the closure of P_j exactly when P_j <= P_i, so the space is a
    # Sierpinski-type chain with the bottom point as its generic point
    lat = chain_lattice(k)
    points = lat.primes(lat.star)
    assert points == lat.members[:-1]
    hk = HullKernelSpace(lat, points, lat.star)
    n = k - 1
    everything = hk.space.everything
    assert [point_closure(hk.space, i) for i in range(n)] == [
        everything & ~full_mask(i) for i in range(n)
    ]
    assert generic_points(hk.space, everything) == (0,)
    if n == 2:
        assert hk.space.closed == (0, 0b10, 0b11)

    assert closed_axioms_report(hk).ok
    assert is_topology(hk.space)[0]
    assert spectral_report(hk.space).spectral

    sep = separation_report(hk)
    assert sep.t0 and not sep.t1
    assert not sep.spec_equals_max
    assert sep.hypothesis_square_outside_max
    assert sep.t1_iff_spec_equals_max is True

    irr = irreducibility_report(hk)
    assert irr.irreducibles_are_point_hulls
    assert irr.generic_points_unique
    assert irr.components_are_minimal_hulls
    assert irr.whole_irreducible and irr.nil_is_prime and irr.whole_iff_nil_prime
    assert irr.witness is None
    assert hk.kern(everything) == lat.bottom

    assert space_components(hk.space) == (everything,)
    assert connected_component_count(hk.space) == 1
    rep = noetherian_report(hk)
    assert rep.n_points == n and rep.longest_closed_chain == k and rep.ok


def test_reports_read_the_space_product():
    # Z/8 is a chain, so all three proper ideals are prime for the meet,
    # but only 2Z is prime for ideal multiplication (2Z 2Z = 4Z, 2Z 4Z = 0)
    lat = divisor_lattice(8)
    meet = lat.meet
    points = lat.primes(meet)
    assert points == lat.members[:-1]
    hk = HullKernelSpace(lat, points, meet)
    assert closed_axioms_report(hk).ok
    irr = irreducibility_report(hk)
    assert irr.whole_irreducible and irr.nil_is_prime and irr.whole_iff_nil_prime

    # the same points against the lattice's own product, which they are
    # not prime for: the union law and the nil-prime side both fail
    wrong = HullKernelSpace(lat, points, lat.star)
    rep = closed_axioms_report(wrong)
    assert rep.union_is_meet_hull and not rep.union_is_product_hull
    four = divisor_ideal(8, 4)
    assert rep.witness == ("union-product", four, four)
    irr = irreducibility_report(wrong)
    assert irr.whole_irreducible and not irr.nil_is_prime
    assert not irr.whole_iff_nil_prime


def test_hull_law_rejects_a_product_outside_the_primes():
    # Z/30: the three primes are not prime for the zero product
    lat = divisor_lattice(30)
    hk = HullKernelSpace(lat, lat.primes(lat.star), lambda x, y: lat.bottom)
    rep = closed_axioms_report(hk)
    assert rep.union_is_meet_hull and rep.family_intersections
    assert not rep.union_is_product_hull and not rep.ok
    fifteen = divisor_ideal(30, 15)
    assert rep.witness == ("union-product", fifteen, fifteen)


def top_join_divisor_lattice(n):
    lat = divisor_lattice(n)
    return TopJoinLattice(lat.members, lat.star)


def mask_lattice_spaces():
    """Every hull-kernel space over a mask lattice in this file."""
    spaces = []
    for n in (8, 12, 30):
        lat = divisor_lattice(n)
        spaces.append(HullKernelSpace(lat, lat.primes(lat.star), lat.star))
    for k in (3, 4):
        lat = chain_lattice(k)
        spaces.append(HullKernelSpace(lat, lat.primes(lat.star), lat.star))
    lat = divisor_lattice(8)
    spaces.append(HullKernelSpace(lat, lat.primes(lat.meet), lat.meet))
    spaces.append(HullKernelSpace(lat, lat.primes(lat.meet), lat.star))
    lat = divisor_lattice(30)
    spaces.append(HullKernelSpace(lat, lat.primes(lat.star), lambda x, y: lat.bottom))
    lat = top_join_divisor_lattice(30)
    spaces.append(HullKernelSpace(lat, divisor_lattice(30).primes(lat.star), lat.star))
    return spaces


def family_law_oracle(hk):
    """Intersections of up to three hulls against the hull of the family's join."""
    lat = hk.lat
    for r in range(4):
        for fam in itertools.combinations(lat.members, r):
            inter = full_mask(hk.n_points)
            for m in fam:
                inter &= hk.hull(m)
            if inter != hk.hull(reduce(lat.join, fam, lat.bottom)):
                return False
    return True


@pytest.mark.parametrize("hk", mask_lattice_spaces(), ids=lambda hk: f"{len(hk.lat.members)}m")
def test_pair_law_matches_family_oracle(hk):
    assert closed_axioms_report(hk).family_intersections == family_law_oracle(hk)


def test_intersection_law_rejects_a_join_that_is_not_least():
    # Z/30 with every incomparable join read as the top: the first such
    # pair, 15Z and 10Z, both lie in 5Z, so H(15Z) & H(10Z) = {5Z}, but
    # the hull of the top is empty
    lat = top_join_divisor_lattice(30)
    hk = HullKernelSpace(lat, divisor_lattice(30).primes(lat.star), lat.star)
    rep = closed_axioms_report(hk)
    assert rep.union_is_meet_hull and rep.union_is_product_hull
    assert not rep.family_intersections and not rep.ok
    fifteen, ten = divisor_ideal(30, 15), divisor_ideal(30, 10)
    assert rep.witness == ("family", fifteen, ten)
    assert hk.hull(fifteen) & hk.hull(ten) == 1 << hk.points.index(divisor_ideal(30, 5))
    assert not family_law_oracle(hk)
