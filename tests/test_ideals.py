"""Ideal layer: subset-sweep and seed-route oracles, frozen lattices, closures."""

import ast
import dataclasses
import itertools
from collections import Counter
from pathlib import Path

import pytest
from brace_oracles import (
    ideal_orbit_sweep,
    lam_table,
    pairwise_closure,
    principal_join_closure,
    star_positions,
    weight_by_combinations,
    with_star_table,
)
from conftest import _alternating_table

from sbspec import braces, groups, ideals, serialize, suite
from sbspec.bitsets import bits, elements, full_mask, hasse_edges, is_subset, mask_of, popcount
from sbspec.braces import SkewBrace, almost_trivial_brace, direct_product, relabel, trivial_brace
from sbspec.errors import ConsistencyError, NotAnIdealError, OrderBoundError
from sbspec.enumeration import enumerate_braces
from sbspec.groups import cyclic_table, product_table, symmetric_table
from sbspec.ideals import (
    IdealCheck,
    IdealLattice,
    add_closure,
    additive_subgroups,
    all_ideals,
    generated_ideal,
    huq_commutator,
    ideal_check,
    ideal_lattice,
    ideal_weight,
    is_ideal,
    multiplicative_lattice_check,
    star_ideal,
    star_set,
    star_subgroup,
)
from sbspec.spectra import PRIME_KINDS, compare_definitions, spectrum
from sbspec.suite import _absorbs
from sbspec.topology import HullKernelSpace, separation_report, spec_topology


def naive_is_ideal(brace, subset: set) -> bool:
    """The ideal conditions, written out directly from the definitions:

    nonempty additive subgroup, normal in both groups, and invariant
    under every twist map b -> -a + a∘b.
    """
    n = brace.order
    if not subset or 0 not in subset:
        return False
    add, mul, neg, inv = brace.add, brace.mul, brace.neg, brace.inv
    lam = lam_table(brace)
    for i in subset:
        if neg[i] not in subset:
            return False
        for j in subset:
            if add[i][j] not in subset:
                return False
            if mul[i][j] not in subset:
                return False
    for a in range(n):
        for i in subset:
            if add[add[a][i]][neg[a]] not in subset:
                return False
            if mul[mul[a][i]][inv[a]] not in subset:
                return False
            if lam[a][i] not in subset:
                return False
    return True


def brace_corpus():
    out = []
    for n in range(1, 5):
        out.extend(enumerate_braces(n))
    return out


@pytest.mark.parametrize("brace", brace_corpus(), ids=lambda b: b.describe())
def test_is_ideal_agrees_with_naive_sweep(brace):
    n = brace.order
    expected = set()
    for mask in range(1, 1 << n):
        subset = set(bits(mask))
        if naive_is_ideal(brace, subset):
            expected.add(mask)
        assert is_ideal(brace, mask) == (mask in expected)
    assert set(all_ideals(brace)) == expected


def test_ideal_check_flags(z4_radical):
    chk = ideal_check(z4_radical, mask_of([0, 2]))
    assert chk.ok
    # {0, 1}: 1+1 = 2 escapes, so it is not even an additive subgroup
    chk = ideal_check(z4_radical, mask_of([0, 1]))
    assert not chk.ok
    assert not chk.add_subgroup
    assert chk.witness is not None


def test_ideal_check_normality_flag(s3_trivial):
    # {0, 1} is an order-2 subgroup of S3 but is not normal
    chk = ideal_check(s3_trivial, mask_of([0, 1]))
    assert chk.add_subgroup
    assert not chk.ok
    assert not (chk.add_normal and chk.mul_normal)


def test_frozen_lattices(z2_trivial, z3_trivial, z4_radical, s3_almost, v4_trivial):
    assert all_ideals(z2_trivial) == (mask_of([0]), mask_of([0, 1]))
    assert all_ideals(z3_trivial) == (mask_of([0]), mask_of([0, 1, 2]))
    assert all_ideals(z4_radical) == (
        mask_of([0]),
        mask_of([0, 2]),
        mask_of([0, 1, 2, 3]),
    )
    assert all_ideals(s3_almost) == (
        mask_of([0]),
        mask_of([0, 3, 4]),
        full_mask(6),
    )
    # trivial Klein brace: every subgroup is an ideal
    assert len(all_ideals(v4_trivial)) == 5
    assert set(all_ideals(v4_trivial)) == set(additive_subgroups(v4_trivial))


def test_additive_subgroup_counts(z4_radical, s3_trivial, v4_trivial):
    assert len(additive_subgroups(z4_radical)) == 3
    assert len(additive_subgroups(v4_trivial)) == 5
    # S3: trivial, three order-2, one order-3, whole
    assert len(additive_subgroups(s3_trivial)) == 6


def test_generated_ideal_routes(z4_radical, s3_almost):
    for brace in (z4_radical, s3_almost):
        lat = ideal_lattice(brace)
        for seed in range(1 << brace.order):
            assert generated_ideal(brace, seed) == lat.generated(seed | 1)
    # single 3-cycle generates the alternating ideal
    assert generated_ideal(s3_almost, mask_of([3])) == mask_of([0, 3, 4])
    # single transposition generates everything
    assert generated_ideal(s3_almost, mask_of([1])) == full_mask(6)
    assert generated_ideal(z4_radical, 0) == mask_of([0])


def test_generated_names_a_seed_outside_the_brace(s3_trivial):
    lat = ideal_lattice(s3_trivial)
    assert lat.generated(full_mask(6)) == lat.top
    for seed in (1 << 6, full_mask(7)):
        with pytest.raises(ConsistencyError, match=f"seed {seed:#x} lies in no member"):
            lat.generated(seed)


def test_star_products(z4_radical, s3_almost, v4_trivial):
    a4 = full_mask(4)
    assert star_set(z4_radical, a4, a4) == mask_of([0, 2])
    assert star_subgroup(z4_radical, a4, a4) == mask_of([0, 2])
    assert star_ideal(z4_radical, a4, a4) == mask_of([0, 2])
    two = mask_of([0, 2])
    assert star_ideal(z4_radical, two, two) == mask_of([0])

    a6 = full_mask(6)
    assert star_ideal(s3_almost, a6, a6) == mask_of([0, 3, 4])
    assert star_ideal(v4_trivial, full_mask(4), full_mask(4)) == mask_of([0])


def test_star_chain_shrinks(z4_radical):
    # iterated squares: A ⊇ A*A ⊇ (A*A)*(A*A) ⊇ ...
    cur = full_mask(4)
    seen = [cur]
    for _ in range(3):
        cur = star_ideal(z4_radical, cur, cur)
        seen.append(cur)
    assert seen == [0b1111, 0b0101, 0b0001, 0b0001]


def test_huq_commutator(s3_almost):
    a6 = full_mask(6)
    a3 = mask_of([0, 3, 4])
    assert huq_commutator(s3_almost, a6, a6) == a3
    # the alternating ideal is abelian in both operations
    assert huq_commutator(s3_almost, a3, a3) == mask_of([0])


def test_ideal_weights(z4_radical, s3_almost, v4_trivial):
    assert ideal_weight(z4_radical, full_mask(4)) == 1
    assert ideal_weight(z4_radical, mask_of([0, 2])) == 1
    # zero ideal: generated by the single element 0
    assert ideal_weight(z4_radical, mask_of([0])) == 1
    assert ideal_weight(s3_almost, full_mask(6)) == 1
    assert ideal_weight(s3_almost, mask_of([0, 3, 4])) == 1
    # the full Klein ideal needs two generators
    assert ideal_weight(v4_trivial, full_mask(4)) == 2
    lat = ideal_lattice(v4_trivial)
    assert lat.weights == (1, 1, 1, 1, 2)


def test_lattice_and_spectra_leave_weights_unbuilt():
    # a relabelled trivial S3 x Z2 that no other test builds, so the
    # lattice and spectra below are cache misses
    table = product_table(symmetric_table(3), cyclic_table(2))
    brace = relabel(trivial_brace(table), (0, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1))
    misses = ideal_lattice.cache_info().misses
    lat = ideal_lattice(brace)
    assert ideal_lattice.cache_info().misses == misses + 1
    for kind in PRIME_KINDS:
        spectrum(brace, kind)
    assert "weights" not in vars(lat)
    assert lat.weights == tuple(weight_by_combinations(lat, m) for m in lat.members)
    assert "weights" in vars(lat)
    assert lat.weights is lat.weights


def test_spectra_and_spaces_build_no_table(monkeypatch):
    # the lattice workload's calls on a relabelled trivial Z2^4 that no
    # other test builds: the spectra read the products of principal pairs
    # only, so they fill the 15 x 15 principal entries of the star store,
    # close the generators of the 15 principal members only (30 closures,
    # not 134) and build no k x k table until a caller reads one
    closed = []
    real = ideals._greedy_generators
    monkeypatch.setattr(
        ideals, "_greedy_generators", lambda table, mask: closed.append(mask) or real(table, mask)
    )
    v4 = product_table(cyclic_table(2), cyclic_table(2))
    brace = relabel(trivial_brace(product_table(v4, v4)), (0, *range(15, 0, -1)))
    misses = ideal_lattice.cache_info().misses
    lat = ideal_lattice(brace)
    assert ideal_lattice.cache_info().misses == misses + 1 and len(lat) == 67
    for kind in PRIME_KINDS:
        spectrum(brace, kind)
    for kind in PRIME_KINDS:
        spec_topology(brace, kind)
    compare_definitions(brace)
    def star_entries():
        return sum(pos >= 0 for column in lat._columns["star"] if column for pos in column)

    assert len(lat.principal) == 15 and star_entries() <= 225
    assert sorted(closed) == sorted(lat.principal * 2)
    pairs = [(x, y) for x in lat.principal for y in lat.principal]
    read = {(x, y): (lat.star(x, y), lat.huq(x, y)) for x, y in pairs}
    assert star_entries() == 225 and len(closed) == 30
    assert not [n for n in vars(lat) if n.endswith("_table")]
    assert not {"add_generators", "mul_generators"} & set(vars(lat))
    # every entry read one at a time off a second lattice (huq first,
    # which fills the star entries it needs, then star) gives the products
    # read above, and the first lattice, its block filled first, gives the
    # same products at every pair; meets are intersections and joins least
    # upper bounds
    fresh = IdealLattice(brace)
    cells = list(itertools.product(lat.members, repeat=2))
    huq = {(x, y): fresh.huq(x, y) for x, y in cells}
    assert not [n for n in vars(fresh) if n.endswith("_table")]
    star = {(x, y): fresh.star(x, y) for x, y in cells}
    assert all((star[x, y], huq[x, y]) == products for (x, y), products in read.items())
    assert all((lat.star(x, y), lat.huq(x, y)) == (star[x, y], huq[x, y]) for x, y in cells)
    for x, y in cells:
        assert lat.meet(x, y) == x & y
        assert lat.join(x, y) == lat.generated(x | y)


def test_lattice_ops(v4_trivial):
    lat = ideal_lattice(v4_trivial)
    a = mask_of([0, 1])
    b = mask_of([0, 2])
    assert lat.meet(a, b) == mask_of([0])
    assert lat.join(a, b) == full_mask(4)
    assert lat.star(a, b) == mask_of([0])
    assert lat.leq(a, full_mask(4))
    assert not lat.leq(a, b)
    assert lat.maximal_ideals() == (mask_of([0, 1]), mask_of([0, 2]), mask_of([0, 3]))
    assert len(lat.proper_members()) == 4


def test_maximal_ideals_are_the_coatoms(s4_almost, a5_almost):
    # the lattice keeps each proper member, from the top down, that no
    # maximal ideal found so far contains; the scan over pairs of proper
    # members is the oracle, order included
    v4 = product_table(cyclic_table(2), cyclic_table(2))
    z2_4 = trivial_brace(product_table(v4, v4))
    for brace in closure_corpus() + [s4_almost, a5_almost, z2_4]:
        lat = ideal_lattice(brace)
        proper = lat.proper_members()
        scan = tuple(
            m for m in proper if not any(m != o and is_subset(m, o) for o in proper)
        )
        assert lat.maximal_ideals() == scan
    # the maximal ideals of trivial Z2^4 are its 15 hyperplanes
    assert len(lat.maximal_ideals()) == 15


def test_coatoms_build_no_join_table(monkeypatch):
    # the maximal ideals read containment: the separation report and the
    # topology report read no join and build no containment bitsets on a
    # fresh lattice
    v4 = product_table(cyclic_table(2), cyclic_table(2))
    brace = trivial_brace(product_table(v4, v4))
    lat = IdealLattice(brace)
    hk = HullKernelSpace(lat, spectrum(brace, "star").primes, "star")
    monkeypatch.setattr(serialize, "spec_topology", lambda *_: hk)
    assert not separation_report(hk).spec_equals_max
    assert serialize.topology_to_dict(brace, "star")["components"] == 0
    assert len(lat.maximal_ideals()) == 15
    assert not any(lat._columns["join"]) and "_above" not in vars(lat)


def test_weights_fill_only_the_principal_join_columns():
    # on a fresh trivial Z2^4 lattice (a relabelling no other test builds)
    # the spectra, the spaces and the topology reports read no join and
    # build no containment bitsets; the weights then fill the join columns
    # of the 15 principal members, every row, and no other column
    v4 = product_table(cyclic_table(2), cyclic_table(2))
    brace = relabel(trivial_brace(product_table(v4, v4)), (0, *range(2, 16), 1))
    misses = ideal_lattice.cache_info().misses
    lat = ideal_lattice(brace)
    assert ideal_lattice.cache_info().misses == misses + 1 and len(lat) == 67
    for kind in PRIME_KINDS:
        assert not separation_report(spec_topology(brace, kind)).spec_equals_max
        assert serialize.topology_to_dict(brace, kind)["points"] == []
    joins = lat._columns["join"]
    assert not any(joins) and "_above" not in vars(lat)
    weights = lat.weights
    principal = [lat.index[p] for p in lat.principal]
    assert len(principal) == 15
    assert [j for j, column in enumerate(joins) if column] == principal
    assert all(-1 not in joins[j] for j in principal)
    assert weights == tuple(weight_by_combinations(lat, m) for m in lat.members)


def test_ideal_weight_refuses_a_non_ideal(z4_radical, s3_trivial):
    # a set that is no ideal is bad input, named by its elements, as
    # quotient names it; not a ConsistencyError, which means a defect here
    with pytest.raises(NotAnIdealError, match=r"weight-input fails \(witness \[0, 1\]\)"):
        ideal_weight(z4_radical, mask_of([0, 1]))
    # a subgroup that is not normal
    with pytest.raises(NotAnIdealError, match=r"witness \[0, 1\]"):
        ideal_weight(s3_trivial, mask_of([0, 1]))
    assert ideal_weight(z4_radical, mask_of([0, 2])) == 1


def test_join_is_smallest_containing_ideal(s3_almost):
    lat = ideal_lattice(s3_almost)
    for x in lat.members:
        for y in lat.members:
            j = lat.join(x, y)
            assert is_ideal(s3_almost, j)
            for z in lat.members:
                if x | y == (x | y) & z:
                    assert lat.leq(j, z)


def meets_are_glb(lat):
    """Every meet lies in both arguments and above every common lower bound."""
    ms = lat.members
    for x in ms:
        for y in ms:
            mt = lat.meet(x, y)
            if not (lat.leq(mt, x) and lat.leq(mt, y)):
                return False
            if any(lat.leq(z, x) and lat.leq(z, y) and not lat.leq(z, mt) for z in ms):
                return False
    return True


def joins_are_lub(lat):
    """Every join contains both arguments and lies in every common upper bound."""
    ms = lat.members
    for x in ms:
        for y in ms:
            jn = lat.join(x, y)
            if not (lat.leq(x, jn) and lat.leq(y, jn)):
                return False
            if any(lat.leq(x, z) and lat.leq(y, z) and not lat.leq(jn, z) for z in ms):
                return False
    return True


def star_monotone_everywhere(lat):
    """x <= x2 and y <= y2 give x·y <= x2·y2, over every member quadruple."""
    ms = lat.members
    return all(
        lat.leq(lat.star(x, y), lat.star(x2, y2))
        for x in ms for y in ms for x2 in ms for y2 in ms
        if lat.leq(x, x2) and lat.leq(y, y2)
    )


def star_below_meet_everywhere(lat):
    ms = lat.members
    return all(lat.leq(lat.star(x, y), x & y) for x in ms for y in ms)


def join_distributive_everywhere(lat):
    ms, star, join = lat.members, lat.star, lat.join
    return all(
        star(join(x, y), z) == join(star(x, z), star(y, z))
        and star(z, join(x, y)) == join(star(z, x), star(z, y))
        for x in ms
        for y in ms
        for z in ms
    )


@pytest.mark.parametrize("brace", brace_corpus(), ids=lambda b: b.describe())
def test_multiplicative_lattice_laws(brace):
    # the laws the check leaves to construction, and the laws it checks
    # against the oracles over every pair, triple and quadruple
    lat = ideal_lattice(brace)
    report = multiplicative_lattice_check(lat)
    assert meets_are_glb(lat) and joins_are_lub(lat)
    assert lat.members[0] == 1 and lat.members[-1] == full_mask(brace.order)
    assert report.ok == (
        star_monotone_everywhere(lat)
        and star_below_meet_everywhere(lat)
        and join_distributive_everywhere(lat)
    )
    assert report.ok and report.counterexample is None
    # distributivity over joins is a theorem (see multiplicative_lattice_check)
    assert report.join_distributive


def law_fails_at(lat, witness):
    """The law named by a counterexample of multiplicative_lattice_check
    fails at its members: x·y above x ∩ y, or (x ∨ y)·z or z·(x ∨ y)
    off the join of the products."""
    law, *ms = witness
    star, join = lat.star, lat.join
    if law == "below-meet":
        x, y = ms
        return not lat.leq(star(x, y), x & y)
    x, y, z = ms
    left = star(join(x, y), z) != join(star(x, z), star(y, z))
    right = star(z, join(x, y)) != join(star(z, x), star(z, y))
    return left or right


def test_lattice_check_rejects_every_broken_star_table(v4_trivial, z4_radical, s3_almost):
    # every single-entry change of the star table: the join-generator
    # route must agree with the triple oracle, and any break of a law,
    # monotonicity included, must turn the report, with a witness
    breaks_only_monotone = breaks_only_distributivity = 0
    for brace in (v4_trivial, z4_radical, s3_almost):
        lat = ideal_lattice(brace)
        k, star = len(lat), star_positions(lat)
        for i, j in itertools.product(range(k), repeat=2):
            for value in range(k):
                if value == star[i][j]:
                    continue
                table = [list(row) for row in star]
                table[i][j] = value
                mutant = with_star_table(lat, table)
                report = multiplicative_lattice_check(mutant)
                monotone = star_monotone_everywhere(mutant)
                below = star_below_meet_everywhere(mutant)
                assert report.star_below_meet == below, (brace, i, j, value)
                distributive = join_distributive_everywhere(mutant)
                assert report.join_distributive == distributive, (brace, i, j, value)
                assert report.ok == (monotone and below and distributive)
                assert report.ok or report.counterexample is not None
                assert report.ok or law_fails_at(mutant, report.counterexample)
                breaks_only_monotone += below and not monotone
                breaks_only_distributivity += monotone and below and not distributive
    assert breaks_only_monotone and breaks_only_distributivity


def test_lattice_check_needs_every_join_generator(v4_trivial):
    # the five ideals of trivial V4 form M3: {0} < a, b, c < A.  With
    # a·A = A·a = a·a = A·A = a and every other product {0}, the table is
    # monotone, lies below the meet and distributes at A = a ∨ b, yet
    # (b ∨ c)·a = a while b·a ∨ c·a = {0}: one decomposition per member
    # would pass it, and the join-generator check does not
    lat = ideal_lattice(v4_trivial)
    bottom, a, b, c, top = range(len(lat))
    star = {(a, top): a, (top, a): a, (a, a): a, (top, top): a}
    mutant = with_star_table(
        lat, [[star.get((i, j), bottom) for j in range(len(lat))] for i in range(len(lat))]
    )
    ms = lat.members
    assert star_monotone_everywhere(mutant) and star_below_meet_everywhere(mutant)
    for z in ms:
        assert mutant.star(ms[top], z) == lat.join(mutant.star(ms[a], z), mutant.star(ms[b], z))
        assert mutant.star(z, ms[top]) == lat.join(mutant.star(z, ms[a]), mutant.star(z, ms[b]))
    b_a, c_a = mutant.star(ms[b], ms[a]), mutant.star(ms[c], ms[a])
    assert mutant.star(lat.join(ms[b], ms[c]), ms[a]) == ms[a] != lat.join(b_a, c_a)
    report = multiplicative_lattice_check(mutant)
    assert report.star_below_meet and not report.join_distributive
    assert report.counterexample == ("distributive", ms[b], ms[c], ms[a])
    assert not join_distributive_everywhere(mutant)


def test_star_monotone_and_below_meet(z4_radical, s3_almost):
    for brace in (z4_radical, s3_almost):
        lat = ideal_lattice(brace)
        for x in lat.members:
            for y in lat.members:
                st = lat.star(x, y)
                assert lat.leq(st, lat.meet(x, y))
                for z in lat.members:
                    if lat.leq(y, z):
                        assert lat.leq(st, lat.star(x, z))


def test_weight_matches_minimal_generating_sets(v4_trivial):
    # brute-force the defining minimum for the Klein brace: fewest
    # nonzero generators, with the zero ideal pinned at one generator
    lat = ideal_lattice(v4_trivial)
    for pos, member in enumerate(lat.members):
        if member == mask_of([0]):
            assert lat.weights[pos] == 1
            continue
        best = None
        for seed in range(1 << 4):
            if seed & 1 == 0 and generated_ideal(v4_trivial, seed) == member:
                size = popcount(seed)
                best = size if best is None else min(best, size)
        assert best == lat.weights[pos]
    assert elements(mask_of([0, 3])) == (0, 3)


# ---------------------------------------------------------------------------
# the worklist closures and orbit-mask ideal test against naive references


def reference_add_closure(brace, mask):
    """Round-based closure: every member plus every member, until stable."""
    add = brace.add
    closed = mask | 1
    while True:
        grown = closed
        members = list(bits(closed))
        for i in members:
            row = add[i]
            grown |= 1 << brace.neg[i]
            for j in members:
                grown |= 1 << row[j]
        if grown == closed:
            return closed
        closed = grown


def reference_generated_ideal(brace, seed):
    """Round-based closure under +, negation, both conjugations and twists."""
    add, mul, neg, inv, lam = brace.add, brace.mul, brace.neg, brace.inv, lam_table(brace)
    n = brace.order
    closed = seed | 1
    while True:
        grown = closed
        members = list(bits(closed))
        for i in members:
            grown |= 1 << neg[i]
            row = add[i]
            for j in members:
                grown |= 1 << row[j]
        for a in range(n):
            add_a, mul_a, lam_a = add[a], mul[a], lam[a]
            na, ia = neg[a], inv[a]
            for i in members:
                grown |= 1 << add[add_a[i]][na]
                grown |= 1 << mul[mul_a[i]][ia]
                grown |= 1 << lam_a[i]
        if grown == closed:
            return closed
        closed = grown


def reference_ideal_check(brace, mask):
    """Flags and first witness from direct scans, in ideal_check's order."""
    n = brace.order
    add, mul, neg, inv, lam = brace.add, brace.mul, brace.neg, brace.inv, lam_table(brace)
    members = list(bits(mask))

    def subgroup_failure(table, invs):
        if not mask & 1:
            return ("missing-identity", 0)
        for i in members:
            for j in members:
                if not mask >> table[i][j] & 1:
                    return ("product", i, j)
        for i in members:
            if not mask >> invs[i] & 1:
                return ("inverse", i)
        return None

    def normal_failure(conj):
        for a in range(n):
            for i in members:
                if not mask >> conj(a, i) & 1:
                    return (a, i)
        return None

    failures = (
        ("add-subgroup", subgroup_failure(add, neg)),
        ("add-normal", normal_failure(lambda a, i: add[add[a][i]][neg[a]])),
        ("mul-subgroup", subgroup_failure(mul, inv)),
        ("mul-normal", normal_failure(lambda a, i: mul[mul[a][i]][inv[a]])),
        ("twist", normal_failure(lambda a, i: lam[a][i])),
    )
    witness = next(((name, *bad) for name, bad in failures if bad is not None), None)
    return IdealCheck(*(bad is None for _, bad in failures), witness)


def witness_escapes(brace, mask, witness) -> bool:
    """Whether ideal_check's witness (condition, actor, x) has x in the
    mask and the condition's action of the actor carrying x outside it."""
    add, mul, neg, inv, lam = brace.add, brace.mul, brace.neg, brace.inv, lam_table(brace)
    act = {
        "add-subgroup": lambda g, x: add[x][g],
        "add-normal": lambda a, x: add[add[a][x]][neg[a]],
        "mul-subgroup": lambda g, x: mul[x][g],
        "mul-normal": lambda a, x: mul[mul[a][x]][inv[a]],
        "twist": lambda a, x: lam[a][x],
    }
    name, actor, x = witness
    return bool(mask >> x & 1) and not mask >> act[name](actor, x) & 1


def assert_matches_reference_scan(brace, mask):
    """Equal flags; the witness names the reference's first failing
    condition with an escaping pair (the empty mask has none)."""
    check, ref = ideal_check(brace, mask), reference_ideal_check(brace, mask)
    assert dataclasses.replace(check, witness=None) == dataclasses.replace(ref, witness=None)
    if ref.witness is None:
        assert check.witness is None
    elif not mask:
        assert check.witness == ("add-subgroup", "empty")
    else:
        assert check.witness[0] == ref.witness[0]
        assert witness_escapes(brace, mask, check.witness), check.witness


def subgroups_and_one_more(brace):
    """Every additive subgroup, and each one with one element added."""
    subgroups = additive_subgroups(brace)
    return [m | 1 << a for m in subgroups for a in range(brace.order)]


def alternating4_table():
    return _alternating_table(4)


def catalog_braces():
    return [b for n in range(1, 7) for b in enumerate_braces(n)]


def closure_corpus():
    z2_cubed = product_table(product_table(cyclic_table(2), cyclic_table(2)), cyclic_table(2))
    return catalog_braces() + [
        trivial_brace(z2_cubed),
        almost_trivial_brace(alternating4_table()),
    ]


@pytest.mark.parametrize(
    "brace", closure_corpus(), ids=lambda b: b.describe()
)
def test_closures_match_round_based_reference(brace):
    for seed in range(1 << brace.order):
        assert add_closure(brace, seed) == reference_add_closure(brace, seed), seed
        assert generated_ideal(brace, seed) == reference_generated_ideal(brace, seed), seed


@pytest.mark.parametrize(
    "brace", catalog_braces(), ids=lambda b: b.describe()
)
def test_ideal_check_matches_reference_scan(brace):
    for mask in range(1 << brace.order):
        assert_matches_reference_scan(brace, mask)


@pytest.mark.parametrize("name", ["b_brace", "b_prime_brace"])
def test_ideal_check_matches_reference_scan_on_b(name, request):
    brace = request.getfixturevalue(name)
    for mask in subgroups_and_one_more(brace):
        assert_matches_reference_scan(brace, mask)


@pytest.mark.parametrize("condition", range(5))
def test_an_ideal_condition_missing_its_last_actor_is_caught(
    condition, b_brace, b_prime_brace, monkeypatch
):
    # each of the five escape tests, run with all but the last of its
    # actors, gets some flag wrong against the reference scan
    real = ideals._conditions

    def dropping(brace, mask):
        out = list(real(brace, mask))
        name, actors, act = out[condition]
        out[condition] = (name, actors[:-1], act)
        return out

    monkeypatch.setattr(ideals, "_conditions", dropping)
    cases = [(b, m) for b in catalog_braces() for m in range(1, 1 << b.order)]
    cases += [(b, m) for b in (b_brace, b_prime_brace) for m in subgroups_and_one_more(b)]
    assert any(
        dataclasses.replace(ideal_check(b, m), witness=None)
        != dataclasses.replace(reference_ideal_check(b, m), witness=None)
        for b, m in cases
    )


def test_ideal_check_agrees_with_star_absorption(s4_trivial, s4_almost, a5_almost):
    # for an additively normal subgroup, being an ideal is absorbing star
    # products on both sides; ideal_check tests the definition alone, and
    # the suite checks absorption on the lattice members only
    seen = {True: 0, False: 0}
    for brace in closure_corpus() + [s4_trivial, s4_almost, a5_almost]:
        whole = full_mask(brace.order)
        for m in additive_subgroups(brace):
            check = ideal_check(brace, m)
            if not check.add_normal:
                continue
            absorbs = is_subset(star_set(brace, whole, m) | star_set(brace, m, whole), m)
            assert check.ok == absorbs, (brace.describe(), m)
            seen[absorbs] += 1
    # both sides of the equivalence are exercised
    assert seen[True] and seen[False]


def test_generator_absorption_matches_the_star_sweep(
    s4_trivial, s4_almost, b_brace, b_prime_brace
):
    # _absorbs, on generator pairs, against star products over the whole
    # brace, on every additively normal subgroup: the left side alone (no
    # ∘-generators of M), then, on the ∘-subgroups, the right side alone
    # (no +-generators of M) and both
    seen = Counter()
    braces = catalog_braces() + [s4_trivial, s4_almost, b_brace, b_prime_brace]
    for brace in braces + [direct_product(b_brace, b_prime_brace)]:
        whole = full_mask(brace.order)
        for m in additive_subgroups(brace):
            check = ideal_check(brace, m)
            if not check.add_normal:
                continue
            add_gens = groups._greedy_generators(brace.add, m)
            left = is_subset(star_set(brace, whole, m), m)
            assert _absorbs(brace, m, add_gens, ()) == left, (brace.describe(), m)
            seen["left", left] += 1
            if check.mul_subgroup:
                mul_gens = groups._greedy_generators(brace.mul, m)
                right = is_subset(star_set(brace, m, whole), m)
                assert _absorbs(brace, m, (), mul_gens) == right, (brace.describe(), m)
                assert _absorbs(brace, m, add_gens, mul_gens) == (left and right)
                seen["right", right] += 1
    assert all(seen[side, ok] for side in ("left", "right") for ok in (True, False))


@pytest.fixture(scope="module")
def oracle_corpus(s4_trivial, s4_almost, a5_trivial, a5_almost, b_brace, b_prime_brace):
    """Catalog <= 6, trivial and almost-trivial S4 and A5, B, B' and B x B."""
    return catalog_braces() + [
        s4_trivial,
        s4_almost,
        a5_trivial,
        a5_almost,
        b_brace,
        b_prime_brace,
        direct_product(b_brace, b_brace),
    ]


def test_orbit_masks(s3_almost, oracle_corpus):
    # the closure under the generator maps equals the fixpoint of the
    # sweeps over every group element
    for brace in oracle_corpus:
        assert brace.ideal_orbit == ideal_orbit_sweep(brace), brace.describe()
    brace = s3_almost
    n = brace.order
    for i in range(n):
        assert is_subset(mask_of(lam_table(brace)[a][i] for a in range(n)), brace.ideal_orbit[i])
    # the alternating subgroup {0, 3, 4} is a union of orbits
    assert brace.ideal_orbit[3] | brace.ideal_orbit[4] == mask_of([3, 4])


def test_an_orbit_missing_a_generator_is_caught(oracle_corpus, monkeypatch):
    # three mutants, each differing from the sweep on some brace, so
    # test_orbit_masks fails: the orbit closed without the last
    # +-generator (caught on B'), without the last ∘-generator, or without
    # the twists (both caught on 4-1, where λ_2 swaps 2 and 3 and both
    # conjugations are trivial)
    def caught(mutate):
        with monkeypatch.context() as patch:
            for brace in oracle_corpus:
                fresh = SkewBrace(brace.add, brace.mul)
                mutate(patch, fresh)
                if fresh.ideal_orbit != ideal_orbit_sweep(brace):
                    return brace.describe()

    def drop_last(field):
        return lambda patch, b: vars(b).__setitem__(field, getattr(b, field)[:-1])

    assert caught(drop_last("add_generators"))
    assert caught(drop_last("mul_generators"))
    assert caught(lambda patch, b: patch.setattr(braces, "lam_word", lambda _: lambda a, i: i))


def elementary_abelian_brace(k):
    table = cyclic_table(2)
    for _ in range(k - 1):
        table = product_table(table, cyclic_table(2))
    return trivial_brace(table)


def test_walk_matches_the_principal_join_oracle(oracle_corpus):
    # one pass per (member, class) reaches every ideal that joining every
    # member with every principal ideal reaches, on the corpus (S4, A5 and
    # B x B among it) and on trivial Z2^4 and Z2^5
    corpus = oracle_corpus + [elementary_abelian_brace(4), elementary_abelian_brace(5)]
    for brace in corpus:
        assert all_ideals(brace) == principal_join_closure(brace), brace.describe()
    assert [len(all_ideals(b)) for b in corpus[-2:]] == [67, 374]


def test_a_walk_that_skips_the_whole_sum_is_caught(z4_radical, monkeypatch):
    # the mutant skips every element of x + p, not only the cosets of x
    # that meet p's class: from {0} the pass for (1) = Z4 then skips 2,
    # so {0, 2} is never reached
    real = ideals._set_sum

    def skip_the_sum(*args):
        total, _ = real(*args)
        return total, total

    assert all_ideals.__wrapped__(z4_radical) == principal_join_closure(z4_radical)
    monkeypatch.setattr(ideals, "_set_sum", skip_the_sum)
    mutant = all_ideals.__wrapped__(z4_radical)
    assert mutant != principal_join_closure(z4_radical)
    assert mask_of([0, 2]) not in mutant


def test_walk_passes_are_the_hasse_edges(monkeypatch):
    # on trivial Z2^k a class is one element and a pass adds one coset, so
    # the walk makes one pass per covering pair: 240 and 2,077 passes for
    # k = 4, 5, where joining with every principal ideal made 765 and 9,517
    passes = []
    real = ideals._set_sum
    monkeypatch.setattr(ideals, "_set_sum", lambda *args: passes.append(1) or real(*args))
    for k, expected in ((4, 240), (5, 2077)):
        passes.clear()
        members = all_ideals.__wrapped__(elementary_abelian_brace(k))
        assert len(passes) == expected == len(hasse_edges(members))


def test_closures_match_the_pairwise_worklist(oracle_corpus):
    # every single-element seed and every union of two members
    for brace in oracle_corpus:
        orbit = ideal_orbit_sweep(brace)
        members = all_ideals(brace)
        seeds = [1 << a for a in range(brace.order)]
        seeds += [x | y for x in members for y in members]
        for seed in seeds:
            assert add_closure(brace, seed) == pairwise_closure(brace.add, seed | 1)
            assert generated_ideal(brace, seed) == pairwise_closure(brace.add, seed | 1, orbit)


def lam_or_star_subscripts(source: str) -> list[str]:
    """The lam or star attributes that the source subscripts, sorted."""
    return sorted(
        node.value.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr in ("lam", "star")
    )


def test_lattice_builds_no_lam_or_star_table():
    # SkewBrace has no twist or star table: a brace no other test builds,
    # so no cache answers for it, holds only the documented cached fields
    # after the lattice, its huq products, ideal-criteria and hom-kernel-image
    assert not hasattr(SkewBrace, "lam") and not hasattr(SkewBrace, "star")
    s4 = symmetric_table(4)
    brace = almost_trivial_brace(groups.relabel_table(s4, (0, *range(23, 0, -1))))
    lat = ideal_lattice(brace)
    assert all(lat.huq(x, y) for x in lat.members for y in lat.members)
    assert len(lat) == len(ideal_lattice(almost_trivial_brace(s4)))
    assert suite._ideal_criteria(brace) == [(True, False, "ideals=4")]
    assert suite._corpus(brace)
    cached = {"neg", "inv", "add_generators", "mul_generators", "ideal_orbit"}
    assert set(vars(brace)) <= {"add", "mul", "_hash"} | cached
    assert "ideal_orbit" in vars(brace)
    # and no package source subscripts an attribute named lam or star
    assert lam_or_star_subscripts("brace.lam[a][b]\nx.star[a]\nlat.star(x, y)\n") == [
        "lam",
        "star",
    ]
    root = Path(__file__).resolve().parent.parent / "src" / "sbspec"
    found = {path.name: lam_or_star_subscripts(path.read_text()) for path in root.glob("*.py")}
    assert {name: attrs for name, attrs in found.items() if attrs} == {}


def test_lattice_keeps_no_copy_of_its_products(monkeypatch, a4_almost):
    # the join, star and huq products live in the store alone, and a meet
    # is an intersection: the lattice check and the lattice report, the
    # two readers of every pair, leave no k x k table on a fresh lattice
    names = ("join_table", "star_table", "huq_table", "meet_table", "_table")
    assert not [n for n in names if hasattr(IdealLattice, n)]
    for brace in (enumerate_braces(6)[2], a4_almost):
        lat = IdealLattice(brace)
        monkeypatch.setattr(serialize, "ideal_lattice", lambda _: lat)
        assert multiplicative_lattice_check(lat).ok
        assert serialize.lattice_to_dict(brace)["star"]
        assert not [n for n in vars(lat) if n.endswith("_table")]


def test_member_bound_refuses_before_the_tables(monkeypatch):
    # trivial Z2^4 has 67 ideals: at a bound of 66 the member search
    # refuses, before IdealLattice builds any k x k table
    v4 = product_table(cyclic_table(2), cyclic_table(2))
    brace = trivial_brace(product_table(v4, v4))
    assert 2825 < ideals.MEMBER_BOUND < 29000
    ideals.all_ideals.cache_clear()
    ideals.ideal_lattice.cache_clear()
    monkeypatch.setattr(ideals, "MEMBER_BOUND", 67)
    assert len(all_ideals(brace)) == 67
    ideals.all_ideals.cache_clear()
    ideals.ideal_lattice.cache_clear()
    monkeypatch.setattr(ideals, "MEMBER_BOUND", 66)
    built = []
    monkeypatch.setattr(ideals.IdealLattice, "_position", lambda *a: built.append(a))
    with pytest.raises(OrderBoundError, match="bounded to 66 members"):
        ideal_lattice(brace)
    assert built == []


def test_joins_reject_non_ideals(s3_trivial):
    # {0, 1} is a non-normal order-2 subgroup, so it is not a lattice member
    two = mask_of([0, 1])
    assert add_closure(s3_trivial, two) == two
    lat = ideal_lattice(s3_trivial)
    assert two not in lat.index
    # genuine ideals still join
    a3 = generated_ideal(s3_trivial, mask_of([3]))
    assert lat.join(a3, 1) == a3
    assert lat.join(a3, full_mask(6)) == full_mask(6)


# ---------------------------------------------------------------------------
# the lattice's generator routes against the seed route: subgroup sweep,
# additive-closure joins and element-pair star and huq products


def seed_route_tables(brace):
    members = tuple(m for m in additive_subgroups(brace) if is_ideal(brace, m))
    index = {m: i for i, m in enumerate(members)}
    meet = tuple(tuple(index[x & y] for y in members) for x in members)
    join = tuple(
        tuple(index[add_closure(brace, x | y)] for y in members) for x in members
    )
    star = tuple(
        tuple(index[star_ideal(brace, x, y)] for y in members) for x in members
    )
    huq = tuple(
        tuple(index[huq_commutator(brace, x, y)] for y in members) for x in members
    )
    return members, meet, join, star, huq


def reference_closure(table, mask):
    """Round-based closure of mask | {0} under the table's operation."""
    closed = mask | 1
    while True:
        members = list(bits(closed))
        grown = closed
        for i in members:
            for j in members:
                grown |= 1 << table[i][j]
        if grown == closed:
            return closed
        closed = grown


def lattice_oracle_corpus():
    s3xz2 = product_table(symmetric_table(3), cyclic_table(2))
    a4 = alternating4_table()
    z2_cubed = product_table(product_table(cyclic_table(2), cyclic_table(2)), cyclic_table(2))
    return catalog_braces() + [
        trivial_brace(z2_cubed),
        trivial_brace(cyclic_table(12)),
        trivial_brace(a4),
        almost_trivial_brace(a4),
        trivial_brace(s3xz2),
        almost_trivial_brace(s3xz2),
        almost_trivial_brace(symmetric_table(4)),
    ]


def assert_lattice_matches_seed_route(brace):
    lat = ideal_lattice(brace)
    members, meet, join, star, huq = seed_route_tables(brace)
    assert lat.members == members
    for (i, x), (j, y) in itertools.product(enumerate(members), repeat=2):
        read = (lat.meet(x, y), lat.join(x, y), lat.star(x, y), lat.huq(x, y))
        assert read == tuple(members[t[i][j]] for t in (meet, join, star, huq)), (brace, x, y)
    for m, add_gens, mul_gens in zip(members, lat.add_generators, lat.mul_generators):
        assert reference_closure(brace.add, mask_of(add_gens)) == m
        assert reference_closure(brace.mul, mask_of(mul_gens)) == m


@pytest.mark.parametrize(
    "brace", lattice_oracle_corpus(), ids=lambda b: b.describe()
)
def test_lattice_tables_match_seed_route(brace):
    assert_lattice_matches_seed_route(brace)


def reference_hasse_edges(masks):
    """(x, y) with x strictly inside y and no mask strictly between them."""
    items = sorted(set(masks), key=lambda m: (popcount(m), m))
    return [
        (x, y)
        for x in items
        for y in items
        if x != y and is_subset(x, y)
        and not any(z not in (x, y) and is_subset(x, z) and is_subset(z, y) for z in items)
    ]


def test_hasse_edges_match_reference():
    # the covers the lattice check reads, on lattices and on a mask family
    # that is not closed under meets or joins
    for brace in lattice_oracle_corpus():
        members = ideal_lattice(brace).members
        assert hasse_edges(members) == reference_hasse_edges(members)
    family = list(range(1, 64, 3)) + [0b101, 0b11111]
    assert hasse_edges(family) == reference_hasse_edges(family)


def test_a5_lattice_tables_match_seed_route(a5_trivial, a5_almost):
    for brace in (a5_trivial, a5_almost):
        assert_lattice_matches_seed_route(brace)


def pair_reads(lat, members):
    """The star and huq products of every pair of the given members, as
    positions (i, j, star, huq)."""
    index = lat.index
    return [
        (index[x], index[y], index[lat.star(x, y)], index[lat.huq(x, y)])
        for x in members
        for y in members
    ]


def test_read_order_gives_the_seed_route_tables(a5_trivial, a5_almost):
    # the store fills columns in part: on fresh lattices, each order of
    # reads below ends with every member pair read, and every single read
    # agrees with the seed-route tables
    for brace in lattice_oracle_corpus() + [a5_trivial, a5_almost]:
        members, _, _, star, huq = seed_route_tables(brace)
        orders = (
            "huq outside the block",
            "huq at every pair first",
            "block first",
            "every pair first",
        )
        for order in orders:
            lat = IdealLattice(brace)
            principal = set(lat.principal)
            if order == "huq outside the block":
                x = max(m for m in members if m not in principal)
                i, j = lat.index[x], len(members) - 1
                assert lat.huq(x, lat.top) == members[huq[i][j]], (brace, order)
                # a left factor outside the principal members fills the column
                assert -1 not in lat._columns["huq"][j] + lat._columns["star"][j]
            elif order == "huq at every pair first":
                reads = [[lat.index[lat.huq(x, y)] for y in members] for x in members]
                assert reads == list(map(list, huq)), (brace, order)
            elif order == "block first":
                reads = pair_reads(lat, lat.principal)
                assert all((star[i][j], huq[i][j]) == (s, h) for i, j, s, h in reads)
            reads = pair_reads(lat, members)
            assert all((star[i][j], huq[i][j]) == (s, h) for i, j, s, h in reads), (brace, order)
            if order == "every pair first":
                reads = pair_reads(lat, lat.principal)
                assert all((star[i][j], huq[i][j]) == (s, h) for i, j, s, h in reads)


def test_nontrivial_star_products_are_covered():
    # almost-trivial S4, A4 and S3 x Z2 multiply the whole brace into a
    # proper nonzero ideal, so the star tables above are not all zero
    for table in (symmetric_table(4), alternating4_table(),
                  product_table(symmetric_table(3), cyclic_table(2))):
        lat = ideal_lattice(almost_trivial_brace(table))
        square = lat.star(lat.top, lat.top)
        assert square not in (lat.bottom, lat.top)


def elementwise_weight(brace, mask):
    """Least k such that some k nonzero elements generate mask."""
    if mask == 1:
        return 1
    gens = [i for i in bits(mask) if i != 0]
    for k in range(1, len(gens) + 1):
        for combo in itertools.combinations(gens, k):
            if generated_ideal(brace, mask_of(combo)) == mask:
                return k
    raise AssertionError(f"mask {mask:#x} does not generate itself")


@pytest.mark.parametrize(
    "brace", catalog_braces(), ids=lambda b: b.describe()
)
def test_weights_match_elementwise_search(brace):
    lat = ideal_lattice(brace)
    assert lat.weights == tuple(elementwise_weight(brace, m) for m in lat.members)


def elementary_abelian_brace(k):
    table = cyclic_table(1)
    for _ in range(k):
        table = product_table(table, cyclic_table(2))
    return trivial_brace(table)


def test_weights_match_the_combination_search(oracle_corpus):
    # the breadth-first levels against the search over subsets of
    # principal ideals, and on trivial Z2^4 and Z2^5 (67 and 374 ideals)
    for brace in oracle_corpus + [elementary_abelian_brace(4), elementary_abelian_brace(5)]:
        lat = ideal_lattice(brace)
        assert lat.weights == tuple(weight_by_combinations(lat, m) for m in lat.members)
    assert len(lat) == 374 and max(lat.weights) == 5


def test_weights_without_a_principal_ideal_are_caught(monkeypatch):
    # levels started without the largest principal ideal: on trivial Z6
    # that is the top, which is then met as ⟨2⟩ ∨ ⟨3⟩ at level 2, so
    # test_weights_match_the_combination_search fails
    lat = IdealLattice(trivial_brace(cyclic_table(6)))
    real = ideals.principal_ideals(lat.brace)
    largest = max(real, key=lambda m: (popcount(m), m))
    monkeypatch.setattr(ideals, "principal_ideals", lambda b: [p for p in real if p != largest])
    assert lat.weights != tuple(weight_by_combinations(lat, m) for m in lat.members)
    assert lat.weights[-1] == 2
