"""Brace enumeration: twist-based search versus raw sweep, counts, determinism."""

import itertools
import random

import pytest
from group_oracles import identity_fixing_perms

from sbspec import groups
from sbspec.braces import (
    SkewBrace,
    _serialize,
    almost_trivial_brace,
    canonical_form,
    canonicalize,
    is_isomorphic,
    relabel,
    trivial_brace,
    validate,
)
from sbspec.catalog import generate_catalog
from sbspec.enumeration import _twist_braces, enumerate_braces, enumerate_braces_raw
from sbspec.errors import OrderBoundError
from sbspec.groups import (
    GROUP_SOURCE,
    all_group_tables,
    automorphisms,
    cyclic_table,
    group_fingerprint,
    group_representatives,
    klein_table,
    symmetric_table,
)
from sbspec.suite import run_catalog_checks

# Isomorphism classes of braces per order.  These are recomputed by two
# independent strategies below; the constants just freeze the outcome.
BRACE_COUNTS = [1, 1, 1, 4, 1, 6]


@pytest.mark.parametrize("n", range(1, 7))
def test_counts(n):
    assert len(enumerate_braces(n)) == BRACE_COUNTS[n - 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_twist_matches_raw_sweep(n):
    """The twist-based enumeration and the raw two-table sweep must
    produce the same canonical tables, member by member."""
    assert enumerate_braces(n) == enumerate_braces_raw(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_results_are_canonical_valid_and_sorted(n):
    braces = enumerate_braces(n)
    forms = [canonical_form(b) for b in braces]
    assert forms == sorted(forms)
    for b in braces:
        assert canonicalize(b) == b


@pytest.mark.parametrize("n", range(1, 7))
def test_twist_braces_pass_validate(n):
    # the twist search builds its braces without validate: a twist map
    # that composes along a ∘ b = a + t_a(b) is a skew brace
    for add in group_representatives(n):
        found = _twist_braces(add)
        assert found
        for brace in found:
            assert validate(brace.add, brace.mul) == brace


def twist_sweep(add):
    """Oracle: every assignment of automorphisms to 1..n-1, each tested on
    every pair, in itertools.product order."""
    n = len(add)
    auts = automorphisms(add)
    found = []
    for assign in itertools.product(auts, repeat=n - 1):
        choice = (auts[0], *assign)
        if all(
            choice[add[a][choice[a][b]]][c] == choice[a][choice[b][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            mul = tuple(tuple(add[a][choice[a][b]] for b in range(n)) for a in range(n))
            found.append(SkewBrace(add, mul))
    return found


def canonical_sweep(brace):
    """Oracle: the least serialization over all (n-1)! relabellings."""
    return min(
        (relabel(brace, p) for p in identity_fixing_perms(brace.order)), key=_serialize
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_twist_search_matches_the_sweep(n):
    # the depth-first search prunes, the sweep does not: same list, same order
    for add in group_representatives(n):
        assert _twist_braces(add) == twist_sweep(add)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonicalize_matches_the_sweep(n):
    rng = random.Random(n)
    for brace in enumerate_braces(n):
        for _ in range(3):
            rest = list(range(1, n))
            rng.shuffle(rest)
            moved = relabel(brace, (0, *rest))
            assert canonicalize(moved) == canonical_sweep(moved) == brace


def test_canonicalize_matches_the_sweep_at_order_8():
    z8 = trivial_brace(cyclic_table(8))
    moved = relabel(z8, (0, 2, 4, 6, 1, 3, 5, 7))
    assert moved != z8
    assert canonicalize(moved) == canonical_sweep(moved) == canonicalize(z8)


@pytest.mark.parametrize("n", [4, 6])
def test_pairwise_non_isomorphic(n):
    braces = enumerate_braces(n)
    for i in range(len(braces)):
        for j in range(i + 1, len(braces)):
            assert is_isomorphic(braces[i], braces[j]) is None


def test_deterministic_after_cache_reset():
    first = enumerate_braces(4)
    enumerate_braces.cache_clear()
    assert enumerate_braces(4) == first


def test_known_braces_are_found():
    # order 4: both operations cyclic, both Klein, and the two mixed pairs
    z4 = group_fingerprint(cyclic_table(4))
    v4 = group_fingerprint(klein_table())
    pairs = {
        (group_fingerprint(b.add), group_fingerprint(b.mul))
        for b in enumerate_braces(4)
    }
    assert pairs == {(z4, z4), (z4, v4), (v4, z4), (v4, v4)}

    # order 6 group pair multiset
    z6 = group_fingerprint(cyclic_table(6))
    s3 = group_fingerprint(symmetric_table(3))
    pairs6 = sorted(
        (group_fingerprint(b.add), group_fingerprint(b.mul))
        for b in enumerate_braces(6)
    )
    expected = sorted([(z6, z6), (z6, s3), (s3, z6), (s3, z6), (s3, s3), (s3, s3)])
    assert pairs6 == expected


def test_trivial_and_almost_trivial_present():
    for n in range(1, 7):
        catalog = set(enumerate_braces(n))
        for rep in group_representatives(n):
            assert canonicalize(trivial_brace(rep)) in catalog
            assert canonicalize(almost_trivial_brace(rep)) in catalog


def test_order_bound():
    with pytest.raises(OrderBoundError):
        enumerate_braces(7)
    with pytest.raises(OrderBoundError):
        enumerate_braces_raw(7)


_SOURCE_CACHES = (group_representatives, all_group_tables, enumerate_braces, enumerate_braces_raw)


@pytest.fixture
def group_source(monkeypatch):
    """Replace groups.GROUP_SOURCE, with the caches that read it cleared
    before the test and again after it."""

    def use(source):
        monkeypatch.setattr(groups, "GROUP_SOURCE", source)
        for cached in _SOURCE_CACHES:
            cached.cache_clear()

    yield use
    monkeypatch.undo()
    for cached in _SOURCE_CACHES:
        cached.cache_clear()


# Each group of order 4 or 6 is the ∘-group of a brace on the other group
# of its order: (V4, Z4) and (Z4, V4), (Z6, S3) and (S3, Z6).  With it
# dropped from the source the twist route still finds that brace, and the
# raw sweep, which takes its ∘-tables from the source, cannot.
@pytest.mark.parametrize(
    "dropped,order",
    [(None, 4), (None, 6), (GROUP_SOURCE[3], 4), (GROUP_SOURCE[4], 4),
     (GROUP_SOURCE[6], 6), (GROUP_SOURCE[7], 6)],
    ids=["none-4", "none-6", "Z4", "Z2^2", "Z6", "S3"],
)
def test_a_group_missing_from_the_source_fails_raw_agreement(group_source, dropped, order):
    group_source(tuple(gens for gens in GROUP_SOURCE if gens != dropped))
    rows = run_catalog_checks(generate_catalog(order))
    verdicts = {r.brace_id: r.verdict for r in rows if r.check == "enumeration-raw-agreement"}
    assert verdicts == {
        f"order-{n}": "fail" if n == order and dropped is not None else "pass"
        for n in range(1, order + 1)
    }
    twist, raw = len(enumerate_braces(order)), len(enumerate_braces_raw(order))
    assert f"twist={twist} raw={raw}" in [r.detail for r in rows]
    assert (twist == BRACE_COUNTS[order - 1]) == (dropped is None)
