"""Ideals of a finite skew brace and their lattice.

Subsets are int bitmasks over element indices.  An ideal is a subgroup
of both group structures, normal in both, and closed under every twist
map; ideal_check tests each condition as one escape test on generators
(_escape), never sweeping element pairs or every a.  For additively
normal subgroups this is equivalent to absorbing star products on both
sides, which the suite's ideal-criteria row checks on generator pairs of
every member; tests/test_ideals.py checks the equivalence on every
additively normal subgroup.

add_closure and generated_ideal grow an additive subgroup one generator
at a time (groups._closure): each new element is walked once with right
addition of every generator, |closure|·g steps, and for ideals its orbit
mask (SkewBrace.ideal_orbit) joins the pending set.

The lattice is built from what the spectra read: all_ideals joins each
member with one principal ideal per class of elements and refuses past
MEMBER_BOUND members; IdealLattice reads joins off the containment of
the size-sorted members, weights off the joins with principal ideals,
and the star and huq products off generator pairs (the proofs are on
the class).  Each product (join, star, huq) is one store of columns,
each entry computed once on first read; the constructor fills the star
products of principal pairs, all a spectrum reads.  No product is kept
twice: a reader of every pair reads the store's full columns, and a
meet is an intersection checked against the member index.  The star
and commutator words (braces.star_word and the rest) are evaluated per
generator; no n² table of them exists.  Every ideal product the library
decides with is a lattice product.
star_ideal, star_subgroup and huq_commutator sweep element pairs; they
are only oracles, which the suite's cross-check rows and the tests
compare the lattice against.
multiplicative_lattice_check decides the star product's laws exactly,
off the join and star stores' full columns, distributivity on the
join-generators, so no lattice row samples.
additive_subgroups sweeps every additive subgroup and is a test oracle
alone: the suite certifies the member list from closures instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .bitsets import bits, full_mask, hasse_edges, is_subset, popcount
from .braces import SkewBrace, commutator_word, lam_word, star_word
from .errors import ConsistencyError, NotAnIdealError, OrderBoundError
from .groups import _closure, _greedy_generators

Mask = int

# the most ideals a lattice may have: its join, star and huq stores,
# each filled on first read, hold up to k² entries each.  Trivial
# Z2^6 has 2825 ideals; trivial Z2^7, with about 29,000, would need about
# 100 times its memory.
MEMBER_BOUND = 4096


@dataclass(frozen=True)
class IdealCheck:
    """Outcome of the ideal test with per-condition flags and a witness.

    witness names the first failing condition and an escaping pair
    (actor, x) of ideal_check.
    """

    add_subgroup: bool
    add_normal: bool
    mul_subgroup: bool
    mul_normal: bool
    twist_invariant: bool
    witness: tuple | None

    @property
    def ok(self) -> bool:
        return (
            self.add_subgroup
            and self.add_normal
            and self.mul_subgroup
            and self.mul_normal
            and self.twist_invariant
        )


def _escape(mask: Mask, actors, act) -> tuple[int, int] | None:
    """First (actor, x), x in mask, with act(actor, x) outside the mask."""
    xs = tuple(bits(mask))
    for g in actors:
        for x in xs:
            if not mask >> act(g, x) & 1:
                return (g, x)
    return None


def _conditions(brace: SkewBrace, mask: Mask):
    """The five ideal conditions as (name, actors, act), in witness order."""
    add, mul, neg, inv = brace.add, brace.mul, brace.neg, brace.inv
    return (
        ("add-subgroup", _greedy_generators(add, mask), lambda g, x: add[x][g]),
        ("add-normal", brace.add_generators, lambda a, x: add[add[a][x]][neg[a]]),
        ("mul-subgroup", _greedy_generators(mul, mask), lambda g, x: mul[x][g]),
        ("mul-normal", brace.mul_generators, lambda a, x: mul[mul[a][x]][inv[a]]),
        ("twist", brace.mul_generators, lam_word(brace)),
    )


def ideal_check(brace: SkewBrace, mask: Mask) -> IdealCheck:
    """The five ideal conditions on the mask, each an escape test on
    generators (_escape), with the first failure's witness.  Each test is
    exact; the sweeps over every element pair and every a are the oracle
    (tests/test_ideals.py).

    Subgroups, for + and for ∘: the actors are the greedy generators g of
    ⟨mask⟩, which lie in the mask, acting by x ↦ x·g.  A nonempty mask
    with no escape holds x·w for each x in it and each positive word w in
    them, which is every element of the finite group ⟨mask⟩; x's inverse
    is one, so 0 is in the mask, and then all of ⟨mask⟩ is.  The empty
    mask escapes nowhere and is no subgroup.

    Normality in both groups and λ-invariance: the actors are the +- or
    ∘-generators of the whole brace, each acting by a group action of
    (A, +) or (A, ∘) (a ↦ λ_a is a homomorphism, see SkewBrace).  An actor
    carrying the finite mask into itself carries it onto itself, so the
    actors keeping it form a subgroup; holding the generators, it is A.
    """
    if not mask:
        return IdealCheck(False, True, False, True, True, ("add-subgroup", "empty"))
    escapes = [(name, _escape(mask, *rest)) for name, *rest in _conditions(brace, mask)]
    witness = next(((name, *bad) for name, bad in escapes if bad is not None), None)
    return IdealCheck(*(bad is None for _, bad in escapes), witness)


def is_ideal(brace: SkewBrace, mask: Mask) -> bool:
    return ideal_check(brace, mask).ok


def add_closure(brace: SkewBrace, mask: Mask) -> Mask:
    """Least additive subgroup containing the masked set (and 0), grown
    one generator at a time in |closure|·g steps."""
    return _closure(brace.add, mask | 1)[0]


@lru_cache(maxsize=None)
def additive_subgroups(brace: SkewBrace) -> tuple[Mask, ...]:
    """Every subgroup of the additive group, grown one generator at a time."""
    n = brace.order
    found = {add_closure(brace, 1)}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        for x in range(1, n):
            if base >> x & 1:
                continue
            grown = add_closure(brace, base | 1 << x)
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return tuple(sorted(found, key=lambda m: (popcount(m), m)))


def generated_ideal(brace: SkewBrace, seed: Mask) -> Mask:
    """Least ideal containing the masked set.

    The additive closure, grown one generator at a time, that also puts
    each new element's orbit (SkewBrace.ideal_orbit: both conjugations
    and the twists) in the pending set, so each element's images under
    every a are taken once.  Multiplicative closure follows on finite
    sets, since a ∘ b = a + λ_a(b).
    """
    return _closure(brace.add, seed | 1, brace.ideal_orbit)[0]


@lru_cache(maxsize=None)
def principal_ideals(brace: SkewBrace) -> tuple[Mask, ...]:
    """The ideal generated by each element, indexed by element.

    Elements of one SkewBrace.ideal_orbit generate the same ideal (each
    lies in the other's, since every map of the orbit keeps ideals), so
    one closure serves an orbit.
    """
    out: list[Mask] = [0] * brace.order
    orbit = brace.ideal_orbit
    for a in range(brace.order):
        if not out[a]:
            ideal = generated_ideal(brace, 1 << a)
            for b in bits(orbit[a]):
                out[b] = ideal
    return tuple(out)


def _set_sum(add, x: Mask, xs: tuple[int, ...], y: Mask, cls: Mask = 0) -> tuple[Mask, Mask]:
    """x + y for a normal additive subgroup x with elements xs: the union
    of the cosets x + j, j in y, built coset by coset; and the union of
    those cosets that meet cls."""
    total = skip = x
    for j in bits(y & ~x):
        if not total >> j & 1:
            coset = 0
            for i in xs:
                coset |= 1 << add[i][j]
            total |= coset
            if coset & cls:
                skip |= coset
    return total, skip


@lru_cache(maxsize=None)
def all_ideals(brace: SkewBrace) -> tuple[Mask, ...]:
    """All ideals, sorted by size then mask.

    Every ideal is the join (the set sum) of the principal ideals (b) of
    its elements, so the walk from {0} that joins each member x with
    principal ideals reaches every ideal.  One pass (a _set_sum) serves a
    class: it takes the least a outside x not yet skipped, builds x + p
    for p = (a) coset by coset, and skips the cosets of x that meet
    G(p) = {b : (b) = p}.  For b = i + g with i in x and g in G(p),
    x + (b) = x + p: b lies in x + p, and g = -i + b lies in x + (b).
    Skipping all of x + p would be unsound: on the radical brace of Z4,
    (1) = Z4 holds 2, and {0, 2} would never be reached.  On trivial Z2^k
    the passes are the Hasse edges (240, 2,077 and 23,562 for k = 4, 5,
    6).  The join with every principal ideal is the oracle
    (tests/brace_oracles.py).  Past MEMBER_BOUND members the search
    refuses with OrderBoundError, before any k × k table is built.
    """
    add, top, principal = brace.add, full_mask(brace.order), principal_ideals(brace)
    classes: dict[Mask, Mask] = {}
    for b, p in enumerate(principal):
        classes[p] = classes.get(p, 0) | 1 << b
    found = {1}
    frontier = [1]
    while frontier:
        if len(found) > MEMBER_BOUND:
            raise OrderBoundError(f"ideal lattice is bounded to {MEMBER_BOUND} members")
        x = frontier.pop()
        xs = tuple(bits(x))
        todo = top & ~x
        while todo:
            p = principal[(todo & -todo).bit_length() - 1]
            total, skip = _set_sum(add, x, xs, p, classes[p])
            todo &= ~skip
            if total not in found:
                found.add(total)
                frontier.append(total)
    return tuple(sorted(found, key=lambda m: (popcount(m), m)))


def star_set(brace: SkewBrace, x: Mask, y: Mask) -> Mask:
    """Pointwise star products {i * j : i in x, j in y} as a mask."""
    star, ys, out = star_word(brace), tuple(bits(y)), 0
    for i in bits(x):
        out |= star(i, ys)
    return out


def star_subgroup(brace: SkewBrace, x: Mask, y: Mask) -> Mask:
    """Additive subgroup generated by the pointwise star products."""
    return add_closure(brace, star_set(brace, x, y))


def star_ideal(brace: SkewBrace, x: Mask, y: Mask) -> Mask:
    """Ideal generated by the pointwise star products."""
    return generated_ideal(brace, star_set(brace, x, y))


def huq_commutator(brace: SkewBrace, x: Mask, y: Mask) -> Mask:
    """Ideal generated by both kinds of commutators and the mixed words.

    Generators, over i in x and j in y:
      i + j - i - j
      i ∘ j ∘ i' ∘ j'   (primes are multiplicative inverses)
      i ∘ j - j - i
    """
    add, neg, star = brace.add, brace.neg, star_word(brace)
    add_comm, mul_comm = commutator_word(add, neg), commutator_word(brace.mul, brace.inv)
    ys, gens = tuple(bits(y)), 0
    for i in bits(x):
        gens |= add_comm(i, ys) | mul_comm(i, ys)
        add_i, neg_i = add[i], neg[i]
        for k in bits(star(i, ys)):  # i ∘ j - j - i = i + i*j - i
            gens |= 1 << add[add_i[k]][neg_i]
    return generated_ideal(brace, gens)


def ideal_weight(brace: SkewBrace, mask: Mask) -> int:
    """Least size of a generating subset; the zero ideal has weight 1.
    A lookup in IdealLattice.weights; a mask that is no member is refused
    with NotAnIdealError naming its elements."""
    if mask == 1:
        return 1
    lat = ideal_lattice(brace)
    pos = lat.index.get(mask)
    if pos is None:
        raise NotAnIdealError("weight-input", list(bits(mask)))
    return lat.weights[pos]


class _MemberIndex(dict):
    """Member positions by mask; a mask that is no member raises
    ConsistencyError naming it."""

    def __missing__(self, m: Mask) -> int:
        raise ConsistencyError(f"ideal {m:#x} is not a member")


class _Memo(dict):
    """A dict that fills a missing key with fill(key) on first read."""

    def __init__(self, fill, known):
        super().__init__(known)
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class IdealLattice:
    """All ideals of one brace, with meet, join, star and huq products.

    Members are kept sorted by size then mask; the stores are indexed by
    the member positions.  The constructor keeps the members, their index
    and the distinct nonzero principal ideals (principal, in member
    order), checks the bottom and the top, and computes the star products
    of principal pairs (the block).  The rest of each store, the
    containment bitsets the joins read (_above) and the generators of
    each member (add_generators, mul_generators) are built on first read.
    weights reads the join columns of the principal members alone;
    multiplicative_lattice_check and the lattice report read every
    column; the maximal ideals read containment alone.  No entry runs a
    closure over a pair:

    - a meet is the intersection, which must be a member;
    - the join of x and y is their set sum, of size |x||y|/|x ∩ y|.  Every
      upper bound contains it, so it is the first member, in size order,
      above both (the lowest common bit of their containment bitsets,
      _above); a first upper bound of another size means the member
      list is not closed under sums and raises ConsistencyError;
    - the star product x·y, the ideal generated by the pointwise products,
      is generated by g·h with g over ∘-generators of x and h over
      +-generators of y (greedy generators of each member);
    - the huq product, the ideal generated by i + j − i − j,
      i ∘ j ∘ i' ∘ j' and i ∘ j − j − i over i in x and j in y
      (huq_commutator), is generated by the +-commutators of +-generator
      pairs, the ∘-commutators of ∘-generator pairs and the member x·y.

    Each product has one store: per member j, the column of the products
    of each member with j, filled on first read by one entry rule,
    _column, which computes each entry once; the star and huq seeds share
    one seed-to-member memo, so each distinct seed is closed at most once.
    join, star and huq read an entry off its column, filling the
    principal rows when the left factor is principal and every row
    otherwise; no table copies a store.  A spectrum reads pairs of
    principal members only (spectra.ideal_pair_witness), so it fills the
    block alone and closes the generators of principal members only.
    A product or meet that is not a member raises ConsistencyError naming
    it, as does a mask that is no member handed to star, huq, join or
    (as a principal ideal) weights: index names it.  generated names a
    seed that no member contains.

    The star block holds every star product: the star product distributes
    over joins (the theorem in multiplicative_lattice_check), and every
    ideal is the join of its principal ideals, so x·y is the join of the
    p·q over principal p ⊆ x and q ⊆ y.  So a member list closed under
    joins that holds the block holds every star product, and one that
    misses a product of the block is refused at once.

    Proof of the star rule.  Let K be the ideal generated by those g·h.
    It lies in the ideal generated by all of x·y, so it remains to show
    a·b ∈ K for a ∈ x and b ∈ y.  Fix g.  By a·(b + c) = a·b + b + a·c − b
    and the normality of K in (A, +), the b with g·b ∈ K form a set
    closed under + that contains 0, hence an additive subgroup; it holds
    the +-generators of y, so all of y.  Next, by
    (a ∘ b)·c = a·(b·c) + b·c + a·c and A·K ⊆ K (a·k = lam[a][k] − k,
    and K is twist invariant), the a with a·y ⊆ K form a set closed
    under ∘ that contains 0, hence a multiplicative subgroup; it holds
    the ∘-generators of x, so all of x.

    Proof of the huq rule.  Since i ∘ j = i + (i*j) + j, the mixed word
    i ∘ j − j − i is i + (i*j) − i, an additive conjugate of i*j, so the
    mixed words generate the ideal x·y.  Let K be the ideal generated by
    the generator commutators and x·y; it lies in the huq product.  K is
    normal in (A, +), and in A/K each +-generator of y commutes with the
    +-generators of x; a centraliser is a subgroup, so it commutes with
    all of x, and then each element of x commutes with all of y.  So
    every i + j − i − j lies in K, and likewise, K being normal in
    (A, ∘), every i ∘ j ∘ i' ∘ j'.
    """

    def __init__(self, brace: SkewBrace):
        self.brace = brace
        self.members: tuple[Mask, ...] = all_ideals(brace)
        self.index: dict[Mask, int] = _MemberIndex((m, i) for i, m in enumerate(self.members))
        self.bottom: Mask = 1
        self.top: Mask = full_mask(brace.order)
        if self.members[0] != self.bottom or self.members[-1] != self.top:
            raise ConsistencyError("ideal lattice lacks bottom or top")
        principal = set(principal_ideals(brace))
        self.principal: tuple[Mask, ...] = tuple(m for m in self.members[1:] if m in principal)
        # the positions of the principal members: the rows and columns of the block
        self._inside = list(map(self.index.__getitem__, self.principal))
        # each member's greedy generators by position, closed on first
        # read; the top's are the brace's
        members, add, mul = self.members, brace.add, brace.mul
        k = len(members)
        self._add_gens = _Memo(
            lambda i: _greedy_generators(add, members[i]), {k - 1: brace.add_generators}
        )
        self._mul_gens = _Memo(
            lambda i: _greedy_generators(mul, members[i]), {k - 1: brace.mul_generators}
        )
        # per product, its words (_column), each with the generators of its
        # left and right factors and its cache: per column j, each g's
        # mask over j
        self._rules = {
            "star": ((star_word(brace), self._mul_gens, self._add_gens, [None] * k),),
            "huq": (
                (commutator_word(add, brace.neg), self._add_gens, self._add_gens, [None] * k),
                (commutator_word(mul, brace.inv), self._mul_gens, self._mul_gens, [None] * k),
            ),
        }
        self._ideal_of_seed = dict(self.index)  # an ideal generates itself
        # the store: per product and column j, the position of each member
        # times member j, -1 where not yet read (None: no entry read)
        self._columns: dict[str, list] = {kind: [None] * k for kind in ("join", *self._rules)}
        for j in self._inside:
            self._column("star", j, self._inside)

    @cached_property
    def add_generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self._add_gens.__getitem__, range(len(self.members))))

    @cached_property
    def mul_generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self._mul_gens.__getitem__, range(len(self.members))))

    def _position(self, m: Mask, what: str, x: Mask, y: Mask) -> int:
        pos = self.index.get(m)
        if pos is None:
            raise ConsistencyError(f"{what} {m:#x} of {x:#x} and {y:#x} is not a member")
        return pos

    def _column(self, kind: str, j: int, rows) -> list[int]:
        """The entry rule: column j of the kind's store, filled at rows.

        The join of members i and j is the first member in size order
        above both, the lowest bit of _above[i] & _above[j], and must have
        the size of their set sum.  Each other product is the ideal
        generated by a seed and its words over generator pairs (_rules),
        g over the generators of member i and h over those of member j:
        for star the seed {0} and g·h = -g + g∘h - h, for huq the star
        product and [g, h]₊, [g, h]∘.  Each word is evaluated once per g
        and column (the word cache), and each entry once: rows already
        read are skipped.
        """
        members, ideal_of_seed, store = self.members, self._ideal_of_seed, self._columns[kind]
        column = store[j]
        if column is None:
            column = store[j] = [-1] * len(members)
        else:
            rows = [i for i in rows if column[i] < 0]
            if not rows:
                return column
        if kind == "join":
            above, y, size_y = self._above, members[j], members[j].bit_count()
            for i in rows:
                both = above[i] & above[j]
                pos, x = (both & -both).bit_length() - 1, members[i]
                if members[pos].bit_count() * (x & y).bit_count() != x.bit_count() * size_y:
                    # the pair in member order, whichever column reads it
                    x, y = sorted((x, y), key=self.index.__getitem__)
                    raise ConsistencyError(f"no member is the sum of {x:#x} and {y:#x}")
                column[i] = pos
            return column
        if kind == "huq":  # x·y, off the star column
            star_j = self._column("star", j, rows)
            seeds = [members[star_j[i]] for i in rows]
        else:
            seeds = [1] * len(rows)
        words = []
        for word, left, right, cache in self._rules[kind]:
            row = cache[j]
            if row is None:
                row = cache[j] = [None] * self.brace.order
            words.append((word, right[j], row, left))
        for seed, i in zip(seeds, rows):
            for word, hs, row, left in words:
                for g in left[i]:
                    mask = row[g]
                    if mask is None:
                        mask = row[g] = word(g, hs)
                    seed |= mask
            pos = ideal_of_seed.get(seed)
            if pos is None:  # each distinct seed is closed once
                product, x, y = generated_ideal(self.brace, seed), members[i], members[j]
                pos = ideal_of_seed[seed] = self._position(product, f"{kind} product", x, y)
            column[i] = pos
        return column

    def _entry(self, kind: str, x: Mask, y: Mask) -> Mask:
        """The product of members x and y off its column: the principal
        rows are filled first, then, for a left factor outside them, every
        row."""
        i, j = self.index[x], self.index[y]
        column = self._columns[kind][j]
        if column is None or column[i] < 0:
            column = self._column(kind, j, self._inside)
            if column[i] < 0:
                column = self._column(kind, j, range(len(self.members)))
        return self.members[column[i]]

    @cached_property
    def _above(self) -> tuple[int, ...]:
        # bit j of _above[i]: member j contains member i, so j >= i
        members = self.members
        return tuple(
            sum(1 << j for j in range(i, len(members)) if not x & ~members[j])
            for i, x in enumerate(members)
        )

    @cached_property
    def _maximal(self) -> tuple[Mask, ...]:
        # a proper member is maximal when no other proper member holds it.
        # From the top down a strict superset comes first, and every proper
        # member lies in a maximal one, so a member no coatom found so far
        # contains is a coatom
        found: list[Mask] = []
        for m in reversed(self.members[:-1]):
            if not any(is_subset(m, c) for c in found):
                found.append(m)
        return tuple(reversed(found))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Least size of a generating subset of each member, by position.

        k elements generate the join of their k principal ideals, so a
        weight is the least k that joins the member from principal ideals:
        breadth-first levels over positions, the distinct principal ideals
        ({0} included) at level 1, each level joining one more through the
        join columns of the nonzero principal members: |members|·|principal|
        entries of the join store, and no other column.  A {0} or a repeat
        in a join can be dropped, so a member first met at level k ≥ 2
        needs k nonzero elements.  all_ideals closes the principal ideals
        under joins, so every member is met.  The search over subsets of
        principal ideals is the oracle (tests/brace_oracles.py).
        """
        principal = sorted(set(map(self.index.__getitem__, principal_ideals(self.brace))))
        # principal[0] is {0}, whose joins add nothing
        columns = [self._column("join", p, range(len(self.members))) for p in principal[1:]]
        level = dict.fromkeys(principal, 1)
        frontier = principal
        while frontier:
            grown = []
            for x in frontier:
                for column in columns:
                    j = column[x]
                    if j not in level:
                        level[j] = level[x] + 1
                        grown.append(j)
            frontier = grown
        return tuple(level[i] for i in range(len(self.members)))

    def __len__(self) -> int:
        return len(self.members)

    def leq(self, x: Mask, y: Mask) -> bool:
        return is_subset(x, y)

    def meet(self, x: Mask, y: Mask) -> Mask:
        return self.members[self._position(x & y, "meet", x, y)]

    def join(self, x: Mask, y: Mask) -> Mask:
        return self._entry("join", x, y)

    def star(self, x: Mask, y: Mask) -> Mask:
        return self._entry("star", x, y)

    def huq(self, x: Mask, y: Mask) -> Mask:
        return self._entry("huq", x, y)

    def generated(self, seed: Mask) -> Mask:
        """Least member containing the seed: the first one in size order.
        A seed outside the brace lies in no member and raises."""
        for m in self.members:
            if not seed & ~m:
                return m
        raise ConsistencyError(f"seed {seed:#x} lies in no member")

    def proper_members(self) -> tuple[Mask, ...]:
        return tuple(m for m in self.members if m != self.top)

    def maximal_ideals(self) -> tuple[Mask, ...]:
        return self._maximal


@lru_cache(maxsize=None)
def ideal_lattice(brace: SkewBrace) -> IdealLattice:
    return IdealLattice(brace)


@dataclass(frozen=True)
class LatticeLawReport:
    """multiplicative-lattice verdicts and the first failing case."""

    star_below_meet: bool
    join_distributive: bool
    counterexample: tuple | None

    @property
    def ok(self) -> bool:
        return self.star_below_meet and self.join_distributive


def multiplicative_lattice_check(lat: IdealLattice) -> LatticeLawReport:
    """Check the order laws of the star product, read by position off
    the full columns of the join and star stores (column z holds x ∨ z
    and x·z at row x).

    The lattice laws hold by construction (IdealLattice): a meet is an
    intersection, a join is the first member above both and has the size
    of the set sum, which every upper bound contains, or the lattice
    raises, as it does without {0} or A.  x·y <= x ∩ y is checked at
    every pair.

    Join distributivity, (x ∨ y)·z = x·z ∨ y·z and z·(x ∨ y) = z·x ∨ z·y,
    is checked for every x and z and every y in G, the members with at
    most one lower cover (the bottom and the join-irreducibles): k²·|G|
    lookups, not k³.  This is exact.  Every member y is a join
    p₁ ∨ … ∨ pₘ of members of G, and induction on m over the checked
    triples (x ∨ p₁ ∨ … ∨ pᵢ₋₁, pᵢ, z) gives (x ∨ y)·z = x·z ∨ p₁·z ∨ … ∨ pₘ·z;
    with x = p₁ the same steps give y·z = p₁·z ∨ … ∨ pₘ·z, so
    (x ∨ y)·z = x·z ∨ y·z.  The other side is the same.  One
    decomposition per member is not enough: on the five ideals of
    trivial V4, the table with a·A = A·a = a·a = A·A = a for one atom a
    and every other product 0 holds at A = a ∨ b, yet (b ∨ c)·A = a
    while b·A ∨ c·A = 0.

    Monotonicity follows: x ⊆ x₂ gives x₂ = x ∨ x₂, so
    x₂·z = x·z ∨ x₂·z ⊇ x·z, and likewise on the right.

    Distributivity is also a theorem for the true table.  Ideals have
    I + J = I ∘ J, so (a ∘ b)·c = a·(b·c) + b·c + a·c and A·L ⊆ L for an
    ideal L give (I + J)·K ⊆ I·K + J·K, and a·(b + c) = a·b + b + a·c − b
    with K·I + K·J normal in (A, +) gives K·(I + J) ⊆ K·I + K·J; the
    star product is monotone, which gives ⊇.
    """
    members, rows = lat.members, range(len(lat.members))
    # a join is symmetric, so join column x is also row x
    join_c = [lat._column("join", z, rows) for z in rows]
    star_c = [lat._column("star", z, rows) for z in rows]
    products = (
        (x, y, column[i]) for i, x in enumerate(members) for y, column in zip(members, star_c)
    )
    above_meet = next(
        (("below-meet", x, y) for x, y, p in products if not is_subset(members[p], x & y)),
        None,
    )

    # on positions: distinct members have distinct positions
    lower_covers = Counter(y for _, y in hasse_edges(members))
    gens = [p for p, m in enumerate(members) if lower_covers[m] <= 1]
    undistributed = (
        ("distributive", members[x], members[p], members[z])
        for x, join_x in enumerate(join_c)
        for p in gens
        for z, col_z in enumerate(star_c)
        if col_z[join_x[p]] != join_c[col_z[x]][col_z[p]]
        or star_c[join_x[p]][z] != join_c[star_c[x][z]][star_c[p][z]]
    )
    bad = next(undistributed, None)
    return LatticeLawReport(above_meet is None, bad is None, above_meet or bad)
