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

The lattice is built from ideals and their generators: all_ideals closes
the principal ideals (one generated_ideal per element orbit) under set
sums and refuses past MEMBER_BOUND members, IdealLattice reads joins off
the size-sorted member list, weights off the join table, and takes the
star and huq products of ideals from generator pairs (the proofs are on
the class).  Every k × k table is built on first read: a spectrum reads
the products of principal pairs only, one column per principal ideal,
and builds none.  The star and commutator words (braces.star_word and
the rest) are evaluated for the generator rows the columns read; no n²
table of them exists.  Every ideal product the library decides with is
a lattice product.  star_ideal, star_subgroup and huq_commutator sweep
element pairs; they are only oracles, which the suite's cross-check rows
and the tests compare the lattice against.  multiplicative_lattice_check
decides the star table's laws exactly, distributivity on the
join-generators, so no lattice row samples.  additive_subgroups sweeps
every additive subgroup and is a test oracle alone: the suite certifies
the member list from closures instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .bitsets import bits, full_mask, hasse_edges, is_subset, popcount
from .braces import SkewBrace, commutator_word, lam_word, star_word
from .errors import ConsistencyError, OrderBoundError
from .groups import _closure, _greedy_generators

Mask = int

# the most ideals a lattice may have: its meet, join, star and huq tables,
# each built on first read, hold k² entries each.  Trivial Z2^6 has 2825
# ideals; trivial Z2^7, with about 29,000, would need about 100 times its
# memory.
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


def _set_sum(brace: SkewBrace, x: Mask, y: Mask) -> Mask:
    """x + y for normal additive subgroups: the union of the cosets x + j."""
    add = brace.add
    out = x
    for j in bits(y & ~x):
        if not out >> j & 1:
            for i in bits(x):
                out |= 1 << add[i][j]
    return out


@lru_cache(maxsize=None)
def all_ideals(brace: SkewBrace) -> tuple[Mask, ...]:
    """All ideals, sorted by size then mask.

    Every ideal is the join of the principal ideals of its elements, so
    closing the distinct principal ideals under joins with a principal
    ideal reaches every ideal.  A join of ideals is their set sum.  Past
    MEMBER_BOUND members the search refuses with OrderBoundError, before
    any k × k table is built.
    """
    principal = sorted(set(principal_ideals(brace)))
    found = set(principal)
    frontier = list(principal)
    while frontier:
        if len(found) > MEMBER_BOUND:
            raise OrderBoundError(f"ideal lattice is bounded to {MEMBER_BOUND} members")
        x = frontier.pop()
        for p in principal:
            if p & ~x:
                total = _set_sum(brace, x, p)
                if total not in found:
                    found.add(total)
                    frontier.append(total)
    return tuple(sorted(found, key=lambda m: (popcount(m), m)))


def _union(generator_lists) -> tuple[int, ...]:
    return tuple(sorted(set().union(*generator_lists)))


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
    A lookup in IdealLattice.weights."""
    if mask == 1:
        return 1
    lat = ideal_lattice(brace)
    pos = lat.index.get(mask)
    if pos is None:
        raise ConsistencyError(f"mask {mask:#x} is not an ideal")
    return lat.weights[pos]


# per product table: the words whose ideal, with a seed, is the product
# (IdealLattice._column), and the product's name in errors
_PRODUCT_WORDS = {"star_table": ("star",), "huq_table": ("add", "mul")}
_PRODUCT_NAMES = {"star_table": "star product", "huq_table": "huq product"}


def _not_a_member(exc: KeyError) -> ConsistencyError:
    return ConsistencyError(f"ideal {exc.args[0]:#x} is not a member")


class IdealLattice:
    """All ideals of one brace, with meet, join, star and huq products.

    Members are kept sorted by size then mask; tables are indexed by the
    member positions.  The constructor keeps the members, their index, the
    distinct nonzero principal ideals (principal, in member order) and the
    generators of every member, and checks the bottom and the top.  Every
    k × k table is built on first read.  No entry runs a closure over a
    pair:

    - a meet is the intersection, which must be a member;
    - the join of x and y is their set sum, of size |x||y|/|x ∩ y|.  Every
      upper bound contains it, so it is the first member, in size order,
      above both; a first upper bound of another size means the member
      list is not closed under sums and raises ConsistencyError;
    - the star product x·y, the ideal generated by the pointwise products,
      is generated by g·h with g over ∘-generators of x and h over
      +-generators of y (greedy, add_generators and mul_generators);
    - the huq product, the ideal generated by i + j − i − j,
      i ∘ j ∘ i' ∘ j' and i ∘ j − j − i over i in x and j in y
      (huq_commutator), is generated by the +-commutators of +-generator
      pairs, the ∘-commutators of ∘-generator pairs and the member x·y.

    Both products come from one routine, _column, which computes column y
    of a product table, x·y for every member x, once.  star and huq read
    the table once it is built; before that, a product with a principal
    member y, all that a spectrum reads (spectra.ideal_pair_witness), is
    read off y's column, and any other product builds the table from the
    columns.  So a spectrum builds no k × k table.  The columns share one
    seed-to-member memo, which starts from the members themselves, so each
    distinct seed is closed at most once; the words g·h = -g + g∘h - h,
    [g, h]₊ and [g, h]∘ are evaluated once per generator g and column,
    never as n² tables.  A product or meet that is not a member raises
    ConsistencyError naming it, as does a mask that is no member handed
    to star, huq or (as a principal ideal) weights.  The constructor
    computes the star columns of the principal members: every star
    product is a join of these (multiplicative_lattice_check), so a
    member list closed under joins that holds them holds every star
    product, and one that misses a product is refused at once.

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
        self.index: dict[Mask, int] = {m: i for i, m in enumerate(self.members)}
        self.bottom: Mask = 1
        self.top: Mask = full_mask(brace.order)
        if self.members[0] != self.bottom or self.members[-1] != self.top:
            raise ConsistencyError("ideal lattice lacks bottom or top")
        principal = set(principal_ideals(brace))
        self.principal: tuple[Mask, ...] = tuple(m for m in self.members[1:] if m in principal)
        self._principal_set = frozenset(self.principal)
        self.add_generators = tuple(_greedy_generators(brace.add, m) for m in self.members)
        self.mul_generators = tuple(_greedy_generators(brace.mul, m) for m in self.members)
        add_gs, mul_gs = self.add_generators, self.mul_generators
        # per word: the word, the generators of each member it takes on the
        # left and on the right, and every left generator
        self._word_rules = {
            "star": (star_word(brace), mul_gs, add_gs, _union(mul_gs)),
            "add": (commutator_word(brace.add, brace.neg), add_gs, add_gs, _union(add_gs)),
            "mul": (commutator_word(brace.mul, brace.inv), mul_gs, mul_gs, _union(mul_gs)),
        }
        self._ideal_of_seed = dict(self.index)  # an ideal generates itself
        self._columns: dict[str, dict[int, list[int]]] = {"star_table": {}, "huq_table": {}}
        # the star columns of the principal members (see above)
        for p in self.principal:
            self._column("star_table", self.index[p])

    def _positions_of(self, masks) -> list[int]:
        try:
            return list(map(self.index.__getitem__, masks))
        except KeyError as exc:
            raise _not_a_member(exc) from None

    def _position(self, m: Mask, what: str, x: Mask, y: Mask) -> int:
        pos = self.index.get(m)
        if pos is None:
            raise ConsistencyError(f"{what} {m:#x} of {x:#x} and {y:#x} is not a member")
        return pos

    def _column(self, table: str, j: int) -> list[int]:
        """Column j of the star or huq table (table), computed once: the
        positions of the products of every member with member j.

        Each product is the ideal generated by a seed and its words over
        generator pairs (_PRODUCT_WORDS), g over the generators of the
        left member and h over those of member j: for the star product
        the seed {0} and g·h, for the huq product the star product and
        [g, h]₊, [g, h]∘.  Each g's words over member j are evaluated once.
        """
        columns = self._columns[table]
        column = columns.get(j)
        if column is not None:
            return column
        built = self.__dict__.get(table)
        if built is not None:
            return [row[j] for row in built]
        members = self.members
        if table == "star_table":
            seeds = [1] * len(members)
        else:
            seeds = map(members.__getitem__, self._column("star_table", j))
        words = []
        for name in _PRODUCT_WORDS[table]:
            word, left, right, every = self._word_rules[name]
            hs = right[j]
            words.append((left, {g: word(g, hs) for g in every}))
        ideal_of_seed, column = self._ideal_of_seed, []
        for i, seed in enumerate(seeds):
            for left, row in words:
                for g in left[i]:
                    seed |= row[g]
            pos = ideal_of_seed.get(seed)
            if pos is None:  # each distinct seed is closed once
                product = generated_ideal(self.brace, seed)
                what = _PRODUCT_NAMES[table]
                pos = ideal_of_seed[seed] = self._position(product, what, members[i], members[j])
            column.append(pos)
        columns[j] = column
        return column

    def _table(self, table: str) -> tuple[tuple[int, ...], ...]:
        """Every column, as rows; the columns are then dropped."""
        columns = [self._column(table, j) for j in range(len(self.members))]
        self._columns[table].clear()
        return tuple(zip(*columns))

    def _at(self, table: str, x: Mask, y: Mask) -> int:
        """Position of one product before its table is built.  With y a
        principal member, all that a spectrum reads, it is read off the
        memoised column of y; any other y builds the table."""
        i, j = self._positions_of((x, y))
        if y in self._principal_set:
            return self._column(table, j)[i]
        return getattr(self, table)[i][j]

    @cached_property
    def star_table(self) -> tuple[tuple[int, ...], ...]:
        return self._table("star_table")

    @cached_property
    def huq_table(self) -> tuple[tuple[int, ...], ...]:
        return self._table("huq_table")

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        members, position = self.members, self._position
        return tuple(tuple([position(x & y, "meet", x, y) for y in members]) for x in members)

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        members, k = self.members, len(self.members)
        sizes = [popcount(m) for m in members]
        # bit j of above[i]: member j contains member i, so j >= i
        above = [
            sum(1 << j for j in range(i, k) if not x & ~members[j]) for i, x in enumerate(members)
        ]
        join = [[0] * k for _ in range(k)]
        for i, (x, above_x, size_x) in enumerate(zip(members, above, sizes)):
            row = join[i]
            for j in range(i, k):
                both = above_x & above[j]
                pos = (both & -both).bit_length() - 1
                if sizes[pos] * popcount(x & members[j]) != size_x * sizes[j]:
                    raise ConsistencyError(
                        f"no member is the sum of {x:#x} and {members[j]:#x}"
                    )
                row[j] = join[j][i] = pos
        return tuple(map(tuple, join))

    @cached_property
    def _maximal(self) -> tuple[Mask, ...]:
        # a coatom is a proper member whose join with any member is itself
        # or the top: a proper member strictly above it would be its join
        k = len(self.members)
        rows = zip(self.members[:-1], self.join_table)
        return tuple(m for i, (m, row) in enumerate(rows) if row.count(i) + row.count(k - 1) == k)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        """Least size of a generating subset of each member, by position.

        k elements generate the join of their k principal ideals, so a
        weight is the least k that joins the member from principal ideals:
        breadth-first levels over positions, the distinct principal ideals
        ({0} included) at level 1, each level joining one more through
        join_table, |members|·|principal| lookups.  A {0} or a repeat in
        a join can be dropped, so a member first met at level k ≥ 2 needs
        k nonzero elements.  all_ideals closes the principal ideals under
        joins, so every member is met.  The search over subsets of
        principal ideals is the oracle (tests/brace_oracles.py).
        """
        join = self.join_table
        principal = sorted(set(self._positions_of(principal_ideals(self.brace))))
        level = dict.fromkeys(principal, 1)
        frontier = principal
        while frontier:
            grown = []
            for x in frontier:
                for p in principal:
                    j = join[x][p]
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
        meet = x & y
        if meet not in self.index:
            raise ConsistencyError(f"meet {meet:#x} of {x:#x} and {y:#x} is not a member")
        return meet

    def join(self, x: Mask, y: Mask) -> Mask:
        return self.members[self.join_table[self.index[x]][self.index[y]]]

    def star(self, x: Mask, y: Mask) -> Mask:
        table = self.__dict__.get("star_table")
        if table is None:
            return self.members[self._at("star_table", x, y)]
        try:
            return self.members[table[self.index[x]][self.index[y]]]
        except KeyError as exc:
            raise _not_a_member(exc) from None

    def huq(self, x: Mask, y: Mask) -> Mask:
        table = self.__dict__.get("huq_table")
        if table is None:
            return self.members[self._at("huq_table", x, y)]
        try:
            return self.members[table[self.index[x]][self.index[y]]]
        except KeyError as exc:
            raise _not_a_member(exc) from None

    def generated(self, seed: Mask) -> Mask:
        """Least member containing the seed: the first one in size order."""
        for m in self.members:
            if not seed & ~m:
                return m

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
    """Check the order laws of the star product on the ideal lattice.

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
    members, star_t, join_t = lat.members, lat.star_table, lat.join_table
    products = ((x, y, p) for x, row in zip(members, star_t) for y, p in zip(members, row))
    above_meet = next(
        (("below-meet", x, y) for x, y, p in products if not is_subset(members[p], x & y)),
        None,
    )

    # on positions: distinct members have distinct positions
    lower_covers = Counter(y for _, y in hasse_edges(members))
    gens = [p for p, m in enumerate(members) if lower_covers[m] <= 1]
    undistributed = (
        ("distributive", members[x], members[p], members[z])
        for x, join_x in enumerate(join_t)
        for p in gens
        for z, star_z in enumerate(star_t)
        if star_t[join_x[p]][z] != join_t[star_t[x][z]][star_t[p][z]]
        or star_z[join_x[p]] != join_t[star_z[x]][star_z[p]]
    )
    bad = next(undistributed, None)
    return LatticeLawReport(above_meet is None, bad is None, above_meet or bad)
