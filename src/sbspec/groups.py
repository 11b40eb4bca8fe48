"""Finite groups as Cayley tables over {0, ..., n-1} with identity 0.

A table is a tuple of n row tuples; table[a][b] is the product of a and b.
The groups are data: GROUP_SOURCE holds one generating set of
permutations per isomorphism class of order <= ENUMERATION_BOUND (the one
bound that the enumeration, the catalog and the CLI read too), built by
`permutation_table`.  `group_representatives` are their canonical forms;
`all_group_tables`, read only by the raw oracle route of the
enumeration, walks their orbits under identity-fixing relabelling on the
adjacent transpositions.  `canonical_group_table` is a lex-least
relabelling search forced on row 1, bounded to CANONICAL_BOUND.  Maps
between tables come from one search, `homomorphisms`, over the images of
a generating set.  Laws are checked on the greedy generators
(`group_violation`, `_law_witness`), and subgroups are grown one
generator at a time (`_closure`), |closure|·g steps.  No function here
searches Cayley tables or sweeps every relabelling or every pair of a
closure: those are test oracles, and the Latin-square search checks that
the source misses no group.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .bitsets import full_mask
from .errors import OrderBoundError

Table = tuple[tuple[int, ...], ...]

ENUMERATION_BOUND = 6
CANONICAL_BOUND = 8

# One generating set of permutations per isomorphism class of groups of
# order <= ENUMERATION_BOUND; a permutation p is (p(0), ..., p(m-1)).
GROUP_SOURCE = (
    ((0,),),  # Z1
    ((1, 0),),  # Z2
    ((1, 2, 0),),  # Z3
    ((1, 2, 3, 0),),  # Z4
    ((1, 0, 3, 2), (2, 3, 0, 1)),  # Z2², acting on itself
    ((1, 2, 3, 4, 0),),  # Z5
    ((1, 2, 3, 4, 5, 0),),  # Z6
    ((1, 0, 2), (1, 2, 0)),  # S3: a transposition and a 3-cycle
)


def as_table(rows) -> Table:
    return tuple(tuple(row) for row in rows)


def table_shape_error(table) -> str | None:
    """None for a list or tuple of n rows, each a list or tuple of n
    non-bool ints in 0..n-1; else a message.  The one reader of raw entries."""
    if not isinstance(table, (list, tuple)):
        return f"table is a {type(table).__name__}, not a list of rows"
    n = len(table)
    if n == 0:
        return "table is empty"
    for a, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            return f"row {a} is a {type(row).__name__}, not a list"
        if len(row) != n:
            return f"row {a} has length {len(row)}, expected {n}"
        for b, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                return f"entry [{a}][{b}] = {v!r} is not in 0..{n - 1}"
    return None


def find_identity(table: Table) -> int | None:
    n = len(table)
    for e in range(n):
        if all(table[e][a] == a and table[a][e] == a for a in range(n)):
            return e
    return None


def group_violation(table: Table) -> tuple[str, tuple] | None:
    """First group-axiom failure for a well-shaped table, or None.

    The identity is required to sit at index 0; a group with its identity
    elsewhere is reported as an identity failure, not as a non-group.
    Associativity is Light's test (Clifford–Preston, *The Algebraic Theory
    of Semigroups* I, 1961), b over the greedy generators: the b with
    (a·b)·c = a·(b·c) for all a, c hold 0 and are closed under the product,
    (a·bb')·c = ((a·b)·b')·c = (a·b)·(b'·c) = a·(b·(b'·c)) = a·(bb'·c).
    """
    n = len(table)
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            return ("identity", (a,))
    for a in range(n):
        if 0 not in table[a] or all(row[a] for row in table):
            return ("inverse", (a,))
    gens = _greedy_generators(table, full_mask(n))
    for a, row_a in enumerate(table):
        for b in gens:
            # row(a) after row(b) must be row(a·b)
            target = table[row_a[b]]
            for c, bc in enumerate(table[b]):
                if row_a[bc] != target[c]:
                    return ("associativity", (a, b, c))
    return None


def cyclic_table(n: int) -> Table:
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def product_table(s: Table, t: Table) -> Table:
    """Direct product, element (a, b) encoded as a * len(t) + b."""
    m = len(t)
    pairs = [(a, b) for a in range(len(s)) for b in range(m)]
    return tuple(
        tuple(s[a1][a2] * m + t[b1][b2] for (a2, b2) in pairs) for (a1, b1) in pairs
    )


def klein_table() -> Table:
    return product_table(cyclic_table(2), cyclic_table(2))


def permutation_table(gens) -> Table:
    """Cayley table of the group the permutations gens generate, identity first.

    Elements are the permutations in lex order, so the identity lands at
    index 0; p·q acts by q first, then p.  The walk closes the identity
    under right multiplication by each generator; a finite set closed
    under a permutation's composition holds its inverse, a power of it,
    so the set reached is the generated group.
    """
    perms = {tuple(range(len(gens[0])))}
    frontier = list(perms)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[x] for x in g)
            if q not in perms:
                perms.add(q)
                frontier.append(q)
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[x] for x in q)] for q in perms) for p in perms)


def symmetric_table(m: int) -> Table:
    """Cayley table of all permutations of m letters, identity first:
    `permutation_table` on the m-cycle and the transposition (0 1)."""
    cycle = (*range(1, m), 0)
    return permutation_table((cycle, (1, 0, *range(2, m))) if m > 1 else (cycle,))


def relabel_table(table: Table, perm: tuple[int, ...]) -> Table:
    """Transport the table along the bijection a -> perm[a]."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        pa = perm[a]
        row = table[a]
        target = new[pa]
        for b in range(n):
            target[perm[b]] = perm[row[b]]
    return as_table(new)


def _element_order(table: Table, x: int) -> int:
    """The least k >= 1 with x^k = 0; at most n in a group table, n + 1 if none."""
    k, power = 1, x
    while power and k <= len(table):
        power = table[x][power]
        k += 1
    return k


@lru_cache(maxsize=None)
def canonical_group_table(table: Table) -> Table:
    """Lex-least relabeling, identity kept at 0, by a search forced on row 1.

    Row 0 of every relabelling is 0..n-1, so the least one is decided on
    row 1 first.  With label 1 on x, row 1 maps column j to the label of
    x·q(j), q the inverse labelling.  It reads 1, 2, ..., k-1, 0 for x of
    order k, so label 1 goes to an element of least order.  Column j then
    finds q(j) labelled already, or branches over the free elements for
    label j (labels 0..j-1 are in use).  Then x·q(j) has a label, or takes
    the next free one: any other would put a larger value in column j
    after the same prefix, so no least relabelling is cut.  Each leaf is
    a bijection; its table is built row by row and dropped at the first
    row above the best table so far.  The (n-1)! sweep stays in the tests
    as the oracle.  Bounded to CANONICAL_BOUND.
    """
    n = len(table)
    if n > CANONICAL_BOUND:
        raise OrderBoundError(f"canonical form is bounded to order {CANONICAL_BOUND}, got {n}")
    if n <= 1:
        return table
    orders = [_element_order(table, x) for x in range(n)]
    least = min(orders[1:])
    best = None

    def walk(row_x: tuple[int, ...], label: list, inverse: list, j: int) -> None:
        nonlocal best
        for j in range(j, n):
            if j == len(inverse):
                for y in range(n):
                    if label[y] is None:
                        forked = label.copy()
                        forked[y] = j
                        walk(row_x, forked, inverse + [y], j)
                return
            z = row_x[inverse[j]]
            if label[z] is None:
                label[z] = len(inverse)
                inverse.append(z)
        # the relabelled table, row by row, dropped at its first row above best
        rows, tied = [], best is not None
        for i, a in enumerate(inverse):
            row_a = table[a]
            row = tuple(label[row_a[b]] for b in inverse)
            if tied:
                if row > best[i]:
                    return
                tied = row == best[i]
            rows.append(row)
        if not tied:
            best = tuple(rows)

    for x in range(1, n):
        if orders[x] == least:
            label = [None] * n
            label[0], label[x] = 0, 1
            walk(table[x], label, [0, x], 1)
    return best


def _closure(table, need: int, orbit=None) -> tuple[int, list[int]]:
    """The least superset of need that is closed under the table and, when
    given, under the per-element orbit mask, and the generators it was
    grown from.

    need holds 0, and row 0 of the table is the identity.  The subgroup
    grows one generator at a time: the next generator is the least pending
    element outside it, and the extension walks the elements with right
    multiplication by the generators, each (element, generator) pair
    once, so the closure costs |closure|·g steps, not |closure|².  The
    orbit mask of each new element joins the pending set.  The walked set
    holds 0 and is closed under right multiplication by every generator,
    a permutation of a finite group, so it is the subgroup they generate;
    every element was forced, so it is the least one.  The pairwise
    worklist is the oracle (tests/brace_oracles.py).
    """
    full = full_mask(len(table))
    closed, walked, gens = 1, [0], []
    todo = need & ~1
    while todo:
        x = (todo & -todo).bit_length() - 1
        gens.append(x)
        # the old elements times the new generator, then each new element
        # times every generator
        old, i = len(walked), 0
        while i < len(walked):
            row = table[walked[i]]
            i += 1
            for g in (x,) if i <= old else gens:
                y = row[g]
                if not closed >> y & 1:
                    closed |= 1 << y
                    walked.append(y)
                    if orbit is not None:
                        need |= orbit[y]
        if closed == full:
            break
        todo = need & ~closed
    return closed, gens


def _greedy_generators(table, mask: int) -> tuple[int, ...]:
    """Elements of mask, in order, each outside the closure of those before.

    For a subgroup mask they generate it under the table's operation.
    `_closure` picks each generator as the least element of mask outside
    the subgroup grown so far, and every element of mask below it is
    inside, so its generators are these; it costs |⟨mask⟩|·g steps.  On a
    table with identity 0 that is not a group, as group_violation may
    read, each element of mask is still a right-multiplied word in them.
    """
    return tuple(_closure(table, mask | 1)[1])


def _law_witness(f, table: Table, target: Table, gens) -> tuple[int, int] | None:
    """First (a, g) with f(a·g) != f(a)·f(g), a over table and g over gens, or None.

    None makes f a homomorphism into a group when gens generate the table:
    each w is a positive word in them, and by induction on its length
    f(a·w·g) = f(a·w)·f(g) = f(a)·f(w)·f(g) = f(a)·f(w·g).  With no
    generators (order 1) the one law is tested at g = 0.
    """
    for a, row in enumerate(table):
        fa = target[f[a]]
        for g in gens or (0,):
            if f[row[g]] != fa[f[g]]:
                return (a, g)
    return None


def homomorphisms(table: Table, target: Table) -> tuple[tuple[int, ...], ...]:
    """Every homomorphism f from table to target, as (f(0), ..., f(n-1)), in lex order.

    Each tuple of images of the greedy generators g_1 < ... < g_d extends
    along a breadth-first word tree (each x != 0 reached once, as parent·g)
    to one map f, kept when f(x·g) = f(x)·f(g) for every x and generator
    g; the tree edges hold by construction, and `_law_witness` proves that
    this suffices.  The maps come out in lex order because every element below g_k lies
    in the closure of g_1, ..., g_{k-1}.
    """
    n, m = len(table), len(target)
    gens = _greedy_generators(table, full_mask(n))
    order, tree, rest = [0], [], []
    reached = 1
    for x in order:
        for k, g in enumerate(gens):
            y = table[x][g]
            if reached >> y & 1:
                rest.append((y, x, k))
            else:
                reached |= 1 << y
                order.append(y)
                tree.append((y, x, k))
    maps = []
    for images in itertools.product(range(m), repeat=len(gens)):
        f = [0] * n
        for y, x, k in tree:
            f[y] = target[f[x]][images[k]]
        if all(f[y] == target[f[x]][images[k]] for y, x, k in rest):
            maps.append(tuple(f))
    return tuple(maps)


@lru_cache(maxsize=None)
def isomorphisms(table: Table, target: Table) -> tuple[tuple[int, ...], ...]:
    """Every identity-fixing p with relabel_table(table, p) == target, in lex order.

    These are the bijective homomorphisms from table onto target.
    """
    if len(target) != len(table):
        return ()
    return tuple(f for f in homomorphisms(table, target) if len(set(f)) == len(f))


def automorphisms(table: Table) -> tuple[tuple[int, ...], ...]:
    return isomorphisms(table, table)


@lru_cache(maxsize=None)
def group_representatives(n: int) -> tuple[Table, ...]:
    """One canonical table per isomorphism class of groups of order n:
    the canonical forms of the GROUP_SOURCE tables of order n, sorted."""
    if n > ENUMERATION_BOUND:
        raise OrderBoundError(f"group tables are bounded to order {ENUMERATION_BOUND}, got {n}")
    tables = (permutation_table(gens) for gens in GROUP_SOURCE)
    return tuple(sorted(canonical_group_table(t) for t in tables if len(t) == n))


@lru_cache(maxsize=None)
def all_group_tables(n: int) -> tuple[Table, ...]:
    """Every group Cayley table on {0..n-1} with identity 0, in lex order.

    Each relabels, fixing 0, onto its class's representative, so this is
    the union of their orbits under identity-fixing relabelling.  The
    adjacent transpositions (1 2), ..., (n-2 n-1) generate those
    relabellings, so the set they reach from the representatives is that
    union: one relabelling per (table, transposition).  Complete when
    GROUP_SOURCE holds every class, which the Latin-square oracle
    (tests/test_groups.py) and the enumeration-raw-agreement row check.
    """
    swaps = [(0, *range(1, i), i + 1, i, *range(i + 2, n)) for i in range(1, n - 1)]
    found = set(group_representatives(n))
    todo = list(found)
    while todo:
        table = todo.pop()
        for swap in swaps:
            moved = relabel_table(table, swap)
            if moved not in found:
                found.add(moved)
                todo.append(moved)
    return tuple(sorted(found))


def group_fingerprint(table: Table) -> str:
    """Short stable identifier of the isomorphism class of a group table."""
    import hashlib

    canon = canonical_group_table(table)
    flat = bytes(v for row in canon for v in row)
    return hashlib.sha256(flat).hexdigest()[:12]
