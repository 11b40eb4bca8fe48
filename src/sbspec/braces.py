"""Finite skew braces on {0, ..., n-1}.

A skew brace is one carrier set with two group structures, written a + b
and a ∘ b, whose shared identity is element 0 and which satisfy
a ∘ (b + c) = a ∘ b - a + a ∘ c for all triples.  Both operations are
stored as full Cayley tables; a SkewBrace is immutable once built and
safe to share.

validate, trivial_brace and almost_trivial_brace share one gate for
outside tables, `_group_pair`; only validate goes on to the skew law.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import groups
from .bitsets import full_mask
from .errors import (
    IdentityMismatchError,
    NotAGroupError,
    ParseError,
    SkewLawError,
)
from .groups import Table


@dataclass(frozen=True)
class SkewBrace:
    """Two compatible group tables.  Use validate() for untrusted input.

    Derived tables are cached on first use:
      neg[a]     additive inverse of a
      inv[a]     multiplicative inverse of a
      lam[a][b]  the twist -a + a∘b, an additive automorphism for each a
      star[a][b] the product -a + a∘b - b, i.e. lam[a][b] - b

    and so are three per-element orbit masks, bit x of entry [i] set when
    x is reached from i by some a (O(n^2) once per brace, never built by
    validate):
      add_conj_orbit[i]  {a + i - a}
      mul_conj_orbit[i]  {a ∘ i ∘ a'}   (a' the multiplicative inverse)
      lam_orbit[i]       {lam[a][i]}
    """

    add: Table
    mul: Table

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # every lru_cache lookup hashes the brace; the 2n^2 entries once
        return hash((self.add, self.mul))

    @property
    def order(self) -> int:
        return len(self.add)

    @cached_property
    def neg(self) -> tuple[int, ...]:
        return tuple(self.add[a].index(0) for a in range(self.order))

    @cached_property
    def inv(self) -> tuple[int, ...]:
        return tuple(self.mul[a].index(0) for a in range(self.order))

    @cached_property
    def lam(self) -> Table:
        add, mul, neg = self.add, self.mul, self.neg
        return tuple(
            tuple(add[neg[a]][mul[a][b]] for b in range(self.order))
            for a in range(self.order)
        )

    @cached_property
    def star(self) -> Table:
        add, lam, neg = self.add, self.lam, self.neg
        return tuple(
            tuple(add[lam[a][b]][neg[b]] for b in range(self.order))
            for a in range(self.order)
        )

    @cached_property
    def add_conj_orbit(self) -> tuple[int, ...]:
        add, neg = self.add, self.neg
        return _orbits(self.order, lambda a, i: add[add[a][i]][neg[a]])

    @cached_property
    def mul_conj_orbit(self) -> tuple[int, ...]:
        mul, inv = self.mul, self.inv
        return _orbits(self.order, lambda a, i: mul[mul[a][i]][inv[a]])

    @cached_property
    def lam_orbit(self) -> tuple[int, ...]:
        lam = self.lam
        return _orbits(self.order, lambda a, i: lam[a][i])

    def describe(self) -> str:
        return f"skew brace of order {self.order}"


def _orbits(n: int, act) -> tuple[int, ...]:
    """Mask of {act(a, i) : a} for each element i."""
    out = [0] * n
    for a in range(n):
        for i in range(n):
            out[i] |= 1 << act(a, i)
    return tuple(out)


def validate(add, mul) -> SkewBrace:
    """Check every axiom and return the brace, or raise with a witness."""
    add, mul = _group_pair(add, mul)
    bad = _skew_witness(add, mul)
    if bad is not None:
        raise SkewLawError(*bad)
    # the skew law gives λ_a(b + c) = -a + a∘b - a + a∘c = λ_a(b) + λ_a(c), and
    # λ_a = -a + a∘· is a bijection, so each λ_a is an additive automorphism
    return SkewBrace(add, mul)


def _group_pair(add, mul=None) -> tuple[Table, Table]:
    """add and mul (add again when None) as group tables with identity 0,
    each tested once: the shape and entries, then the identities, then
    the group axioms, raising ParseError, NotAGroupError or
    IdentityMismatchError at the first failure."""
    pair = [("add", add)] if mul is None else [("add", add), ("mul", mul)]
    for which, rows in pair:
        msg = groups.table_shape_error(rows)
        if msg is None and len(rows) != len(add):
            msg = f"mul has {len(rows)} rows, add has {len(add)}"
        if msg is not None:
            raise ParseError(msg)
    pair = [(which, groups.as_table(rows)) for which, rows in pair]
    ids = [groups.find_identity(t) for _, t in pair]
    for (which, _), e in zip(pair, ids):
        if e is None:
            raise NotAGroupError(which, "no two-sided identity")
    if any(ids):
        raise IdentityMismatchError(ids[0], ids[-1])
    for which, t in pair:
        bad = groups.group_violation(t)
        if bad is not None:
            raise NotAGroupError(which, *bad)
    return pair[0][1], pair[-1][1]


def _skew_witness(add: Table, mul: Table) -> tuple[int, int, int] | None:
    """First (a, b, c) with a∘(b + c) != a∘b - a + a∘c, c over the +-generators.

    None means the law holds for every c when add is a group: for fixed a,
    the c where it holds for every b are closed under +, as a∘(b + c + d)
    = a∘(b + c) - a + a∘d = a∘b - a + a∘c - a + a∘d = a∘b - a + a∘(c + d).
    """
    neg = tuple(row.index(0) for row in add)
    gens = groups._greedy_generators(add, full_mask(len(add)))
    for a, row_a in enumerate(mul):
        na = neg[a]
        for b, ab in enumerate(row_a):
            left = add[ab][na]
            for c in gens:
                if row_a[add[b][c]] != add[left][row_a[c]]:
                    return (a, b, c)
    return None


def trivial_brace(table) -> SkewBrace:
    """Both operations equal: a ∘ b = a + b.  The gate suffices, as
    a ∘ (b + c) = a + b + c = (a + b) - a + (a + c)."""
    t, _ = _group_pair(table)
    return SkewBrace(t, t)


def almost_trivial_brace(table) -> SkewBrace:
    """Multiplication is the opposite group: a ∘ b = b + a.  The gate
    suffices: the opposite of a group is a group with the same identity,
    and a ∘ (b + c) = b + c + a = (b + a) - a + (c + a).  tests/test_braces.py
    compares both constructors with validate over every group up to
    order 6, S4 and A5."""
    t, _ = _group_pair(table)
    n = len(t)
    return SkewBrace(t, tuple(tuple(t[b][a] for b in range(n)) for a in range(n)))


def direct_product(x: SkewBrace, y: SkewBrace) -> SkewBrace:
    """Componentwise operations; pair (a, b) is encoded as a*|y| + b."""
    return SkewBrace(
        groups.product_table(x.add, y.add), groups.product_table(x.mul, y.mul)
    )


def relabel(brace: SkewBrace, perm: tuple[int, ...]) -> SkewBrace:
    return SkewBrace(
        groups.relabel_table(brace.add, perm), groups.relabel_table(brace.mul, perm)
    )


def _serialize(brace: SkewBrace) -> bytes:
    flat = [v for row in brace.add for v in row]
    flat += [v for row in brace.mul for v in row]
    return bytes(flat)


def canonicalize(brace: SkewBrace) -> SkewBrace:
    """Relabeled copy whose serialized tables are lexicographically least.

    Any isomorphism fixes the identity, so only permutations keeping 0 in
    place count.  The serialization starts with the additive table, so a
    least relabeling carries add onto its least relabeling,
    groups.canonical_group_table(add); those permutations are the
    isomorphisms onto it, |Aut(A, +)| of them, and the least relabeled
    mul among them decides.  Past groups.CANONICAL_BOUND the sweep
    refuses with OrderBoundError.
    """
    add = groups.canonical_group_table(brace.add)
    perms = groups.isomorphisms(brace.add, add)
    return SkewBrace(add, min(groups.relabel_table(brace.mul, p) for p in perms))


def canonical_form(brace: SkewBrace) -> bytes:
    return _serialize(canonicalize(brace))


def is_isomorphic(x: SkewBrace, y: SkewBrace) -> tuple[int, ...] | None:
    """The lex-least bijection carrying both tables of x onto y, or None:
    the first isomorphism of the additive tables that also carries mul."""
    gens = groups._greedy_generators(x.mul, full_mask(x.order))
    for perm in groups.isomorphisms(x.add, y.add):
        if groups._law_witness(perm, x.mul, y.mul, gens) is None:
            return perm
    return None
