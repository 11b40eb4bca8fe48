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

    Besides the hash, these fields are cached on first use, and no others:
      neg[a]          additive inverse of a
      inv[a]          multiplicative inverse of a
      add_generators  greedy generators of (A, +)
      mul_generators  greedy generators of (A, ∘)

    and so is ideal_orbit, one mask per element: bit x of entry [i] is set
    when a word in the maps i ↦ a + i - a, i ↦ a ∘ i ∘ a' (a' the
    multiplicative inverse) and i ↦ λ_a(i) carries i to x.  It is one
    `_orbits` call, n·g steps, over the +-conjugations by the +-generators
    and the ∘-conjugations and twists by the ∘-generators; validate never
    builds it.  Each of these maps keeps every ideal, so all elements of
    one orbit generate the same ideal.

    The twist λ_a(b) = -a + a∘b, the star product a·b = -a + a∘b - b and
    the commutators of both groups are words (lam_word, star_word,
    commutator_word), evaluated where they are read: λ for one pair, the
    others as the mask over a row of b.  No n² table of them is built.
    a ↦ λ_a is a homomorphism (A, ∘) → Aut(A, +) (Guarnieri–Vendramin
    2017): with a∘(-b) = a - a∘b + a from the skew law, λ_a(λ_b(x)) =
    -a + a∘(-b + b∘x) = -a + a∘(-b) - a + a∘b∘x = -a∘b + a∘b∘x =
    λ_{a∘b}(x), so the λ_g of the ∘-generators g generate the acting group.
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
    def add_generators(self) -> tuple[int, ...]:
        return groups._greedy_generators(self.add, full_mask(self.order))

    @cached_property
    def mul_generators(self) -> tuple[int, ...]:
        return groups._greedy_generators(self.mul, full_mask(self.order))

    @cached_property
    def ideal_orbit(self) -> tuple[int, ...]:
        add, mul, neg, inv, n = self.add, self.mul, self.neg, self.inv, self.order
        lam = lam_word(self)
        maps = [[add[add[g][i]][neg[g]] for i in range(n)] for g in self.add_generators]
        for g in self.mul_generators:
            maps.append([mul[mul[g][i]][inv[g]] for i in range(n)])
            maps.append([lam(g, i) for i in range(n)])
        return _orbits(n, maps)

    def describe(self) -> str:
        return f"skew brace of order {self.order}"


def lam_word(brace: SkewBrace):
    """λ_a(b) = -a + a∘b, as a function of (a, b)."""
    add, mul, neg = brace.add, brace.mul, brace.neg
    return lambda a, b: add[neg[a]][mul[a][b]]


def star_word(brace: SkewBrace):
    """The star product a·b = -a + a∘b - b = λ_a(b) - b, as the mask of
    a·b over b in bs."""
    add, mul, neg = brace.add, brace.mul, brace.neg

    def star(a, bs) -> int:
        left, row, out = add[neg[a]], mul[a], 0
        for b in bs:
            out |= 1 << add[left[row[b]]][neg[b]]
        return out

    return star


def commutator_word(table: Table, inverse: tuple[int, ...]):
    """The commutator in one group of a brace, as the mask over b in bs:
    [a, b]₊ = a + b - a - b for (add, neg), [a, b]∘ = a ∘ b ∘ a' ∘ b' for
    (mul, inv)."""

    def commutator(a, bs) -> int:
        row, ia, out = table[a], inverse[a], 0
        for b in bs:
            out |= 1 << table[table[row[b]][ia]][inverse[b]]
        return out

    return commutator


def _orbits(n: int, maps) -> tuple[int, ...]:
    """Mask of the orbit of each element i under the group generated by
    maps, permutations given as lists: the closure of {i} under them.

    The orbit of i under a finite group is its closure under the maps of
    a generating set, since each inverse is a positive power; the orbits
    partition the elements, so n·g steps in all.  The n² sweeps over every
    group element, joined to a fixpoint, are the oracle
    (tests/brace_oracles.py).
    """
    out = [0] * n
    for i in range(n):
        if out[i]:
            continue
        orbit, mask = [i], 1 << i
        for x in orbit:
            for row in maps:
                y = row[x]
                if not mask >> y & 1:
                    mask |= 1 << y
                    orbit.append(y)
        for x in orbit:
            out[x] = mask
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
    """First (a, b, c) with a∘(b + c) != a∘b - a + a∘c, a over the
    ∘-generators and c over the +-generators: n·g∘·g+ steps.

    None means the law holds for every a, b and c when add and mul are
    groups.  For fixed a, the c where it holds for every b are closed
    under +, as a∘(b + c + d) = a∘(b + c) - a + a∘d = a∘b - a + a∘c - a +
    a∘d = a∘b - a + a∘(c + d).  Say the law holds at a when it holds for
    every b and c.  If it holds at a and at b, it holds at a∘b: first
    a = a∘(b + (-b)) = a∘b - a + a∘(-b) gives a∘(-b) = a - a∘b + a, and
    then (a∘b)∘(x + y) = a∘(b∘x - b + b∘y) = a∘(b∘x) - a + a∘(-b) - a +
    a∘(b∘y) = (a∘b)∘x - a∘b + (a∘b)∘y.  So the a where it holds form a
    ∘-subgroup, and the ∘-generators suffice.  The sweep over every a is
    the oracle (tests/brace_oracles.py).
    """
    neg = tuple(row.index(0) for row in add)
    full = full_mask(len(add))
    add_gens = groups._greedy_generators(add, full)
    for a in groups._greedy_generators(mul, full):
        row_a, na = mul[a], neg[a]
        for b, ab in enumerate(row_a):
            left = add[ab][na]
            for c in add_gens:
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
    for perm in groups.isomorphisms(x.add, y.add):
        if groups._law_witness(perm, x.mul, y.mul, x.mul_generators) is None:
            return perm
    return None
