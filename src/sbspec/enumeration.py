"""Exhaustive catalogs of skew braces of a given order, up to isomorphism.

The production route fixes one additive group per isomorphism class and
searches assignments of an additive automorphism to every element; the
multiplication a ∘ b := a + t_a(b) is a group exactly when the assigned
twists compose along it, which the search checks directly.  A slower
route that sweeps every multiplication table outright is kept as an
independent oracle for small orders.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from . import braces, groups
from .braces import SkewBrace

DEFAULT_BOUND = 6


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
    """
    n = len(add)
    auts = groups.automorphisms(add)
    found = []
    if n == 1:
        return [SkewBrace(add, add)]
    identity = tuple(range(n))
    assert auts[0] == identity
    for assign in itertools.product(range(len(auts)), repeat=n - 1):
        # element 0 always carries the identity twist
        choice = [identity] + [auts[i] for i in assign]
        ok = True
        for a in range(n):
            ta = choice[a]
            for b in range(n):
                ab = add[a][ta[b]]
                tab = choice[ab]
                tb = choice[b]
                # composing twists must match the twist of the product
                for c in range(n):
                    if tab[c] != ta[tb[c]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        mul = tuple(tuple(add[a][choice[a][b]] for b in range(n)) for a in range(n))
        found.append(SkewBrace(add, mul))
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
    if n > DEFAULT_BOUND:
        from .errors import OrderBoundError

        raise OrderBoundError(f"brace enumeration is bounded to order {DEFAULT_BOUND}, got {n}")
    candidates = []
    for add in groups.group_representatives(n):
        candidates.extend(_twist_braces(add))
    return _dedupe(candidates)


@lru_cache(maxsize=None)
def enumerate_braces_raw(n: int) -> tuple[SkewBrace, ...]:
    """Oracle route: sweep every multiplication table on each additive group.

    Only the compatibility law needs testing per pair, since both tables
    come straight from the group-table enumerator.
    """
    candidates = []
    for add in groups.group_representatives(n):
        neg = tuple(add[a].index(0) for a in range(n))
        for mul in groups.all_group_tables(n):
            ok = True
            for a in range(n):
                row_a = mul[a]
                na = neg[a]
                for b in range(n):
                    left = add[row_a[b]][na]
                    for c in range(n):
                        if row_a[add[b][c]] != add[left][row_a[c]]:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                candidates.append(SkewBrace(add, mul))
    return _dedupe(candidates)
