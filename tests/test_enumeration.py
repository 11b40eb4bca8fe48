"""Brace enumeration: twist-based search versus raw sweep, counts, determinism."""

import pytest

from sbspec.braces import (
    almost_trivial_brace,
    canonical_form,
    canonicalize,
    is_isomorphic,
    trivial_brace,
    validate,
)
from sbspec.enumeration import _twist_braces, enumerate_braces, enumerate_braces_raw
from sbspec.errors import OrderBoundError
from sbspec.groups import (
    cyclic_table,
    group_fingerprint,
    group_representatives,
    klein_table,
    symmetric_table,
)

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
