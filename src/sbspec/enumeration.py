"""Exhaustive catalogs of skew braces of a given order, up to isomorphism.

The production route fixes one additive group per isomorphism class and
searches, depth first, for an additive automorphism t_a at every element;
the multiplication a ∘ b := a + t_a(b) is a group exactly when the twists
compose along it, t_{a∘b} = t_a t_b.  After each new assignment the search
tests that law on the pairs (a, b) whose last-assigned element among a,
b and a ∘ b is the new one, so every pair is tested once and a branch
is cut at its first conflict.  Candidates are deduplicated by canonical
form, which searches only the isomorphisms onto the canonical additive
table.  The additive groups are the representatives read off the
permutation generators of groups.GROUP_SOURCE.  A slower route that
sweeps every multiplication table outright, the relabelling orbits of
those representatives (groups.all_group_tables), is kept as an
independent oracle for small orders.  A group missing from the source
can still be the ∘-group of a twist brace, but not of a swept one, so
the two routes then disagree.
"""

from __future__ import annotations

from functools import lru_cache

from . import braces, groups
from .braces import SkewBrace
from .errors import OrderBoundError
from .groups import ENUMERATION_BOUND


def _twist_braces(add: groups.Table) -> list[SkewBrace]:
    """All braces on a fixed additive table, one per valid twist map.

    Each is built without validate: an assignment of automorphisms t_a
    with t_0 = id and t_{a∘b} = t_a t_b along a ∘ b = a + t_a(b) is a skew
    brace (Guarnieri–Vendramin, "Skew braces and the Yang–Baxter
    equation", Math. Comp. 2017).  0 is the identity of ∘; ∘ is
    associative, since (a∘b)∘c and a∘(b∘c) both equal a + t_a(b) + t_a t_b(c);
    a ∘ x = c has the one solution x = t_a^-1(-a + c), so every element
    has a ∘-inverse; and a ∘ (b + c) = a + t_a(b) + t_a(c)
    = a ∘ b - a + a ∘ c is the skew law.  tests/test_enumeration.py
    compares every brace found up to order 6 with validate.

    The twists are assigned depth first to 1, 2, ..., n-1, each trying the
    automorphisms in index order, so the maps come out in lex order of
    their index tuples.  Once t_k is assigned, the law is tested on the
    pairs (a, b) with max(a, b, a ∘ b) = k: a = k; or b = k and a < k; or
    a, b < k and a ∘ b = k, that is b = t_a^-1(-a + k).  a ∘ b is known
    as soon as t_a is, so each pair is tested at exactly one depth, and a
    complete assignment has passed the law on every pair.
    """
    n = len(add)
    if n == 1:
        return [SkewBrace(add, add)]
    auts = groups.automorphisms(add)
    assert auts[0] == tuple(range(n))
    index = {t: i for i, t in enumerate(auts)}
    # comp[i][j]: the index of t_i t_j (t_j applied first)
    comp = [[index[tuple(ti[c] for c in tj)] for tj in auts] for ti in auts]
    inverse = [auts[row.index(0)] for row in comp]
    neg = tuple(add[a].index(0) for a in range(n))
    choice = [0] * n
    found = []

    def consistent(k: int) -> bool:
        tk = choice[k]
        aut_k = auts[tk]
        for b in range(k + 1):
            ab = add[k][aut_k[b]]
            if ab <= k and choice[ab] != comp[tk][choice[b]]:
                return False
        for a in range(k):
            ta = choice[a]
            ab = add[a][auts[ta][k]]
            if ab <= k and choice[ab] != comp[ta][tk]:
                return False
            b = inverse[ta][add[neg[a]][k]]
            if b < k and tk != comp[ta][choice[b]]:
                return False
        return True

    def assign(k: int) -> None:
        if k == n:
            mul = tuple(
                tuple(add[a][auts[choice[a]][b]] for b in range(n)) for a in range(n)
            )
            found.append(SkewBrace(add, mul))
            return
        for t in range(len(auts)):
            choice[k] = t
            if consistent(k):
                assign(k + 1)

    assign(1)
    return found


def _dedupe(candidates) -> tuple[SkewBrace, ...]:
    by_form: dict[bytes, SkewBrace] = {}
    for brace in candidates:
        canon = braces.canonicalize(brace)
        by_form.setdefault(braces._serialize(canon), canon)
    return tuple(by_form[k] for k in sorted(by_form))


@lru_cache(maxsize=None)
def enumerate_braces(n: int) -> tuple[SkewBrace, ...]:
    """All skew braces of order n up to isomorphism, canonically labeled.

    Deterministic: output is sorted by canonical serialization.
    """
    if n > ENUMERATION_BOUND:
        raise OrderBoundError(f"brace enumeration is bounded to order {ENUMERATION_BOUND}, got {n}")
    candidates = []
    for add in groups.group_representatives(n):
        candidates.extend(_twist_braces(add))
    return _dedupe(candidates)


@lru_cache(maxsize=None)
def enumerate_braces_raw(n: int) -> tuple[SkewBrace, ...]:
    """Oracle route: sweep every multiplication table on each additive group.

    Only the compatibility law needs testing per pair, since both tables
    are group tables: the representatives and all their relabellings
    (groups.all_group_tables).
    """
    return _dedupe(
        SkewBrace(add, mul)
        for add in groups.group_representatives(n)
        for mul in groups.all_group_tables(n)
        if braces._skew_witness(add, mul) is None
    )
