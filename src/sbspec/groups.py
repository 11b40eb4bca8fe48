"""Finite groups as Cayley tables over {0, ..., n-1} with identity 0.

A table is a tuple of n row tuples; table[a][b] is the product of a and b.
The table search is bounded to ENUMERATION_BOUND, the one bound that the
brace enumeration, the catalog and the CLI read as well.  It branches
only on the rows of generators and forces every other row by
row(a·b) = row(a) ∘ row(b), so it never completes a table that is not a
group and checks no complete table again.  The canonical form,
`canonical_group_table`, is a lex-least relabelling search forced on row
1 and bounded to CANONICAL_BOUND.  Maps between tables come from one
search, `homomorphisms`, over the images of a generating set;
isomorphisms, automorphisms and the isomorphism classes of the
lex-sorted table list are read off it.  Laws are checked on the greedy
generators (`group_violation`, `_law_witness`), and subgroups are grown
one generator at a time (`_closure`), |closure|·g steps.  No function
here sweeps every relabelling or every pair of a closure; the (n-1)!
sweep, the Latin-square search and the pairwise closure are test oracles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .bitsets import bits, full_mask
from .errors import OrderBoundError

Table = tuple[tuple[int, ...], ...]

ENUMERATION_BOUND = 6
CANONICAL_BOUND = 8


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


def symmetric_table(m: int) -> Table:
    """Cayley table of all permutations of m letters, identity first.

    Elements are the permutations in lexicographic order, so the identity
    permutation lands at index 0.  Product p*q acts by q first, then p.
    """
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[x]] for x in range(m))] for q in perms) for p in perms
    )


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


def _closure(table, need: int, orbits) -> tuple[int, list[int]]:
    """The least superset of need that is closed under the table and under
    each per-element orbit mask, and the generators it was grown from.

    need holds 0, and row 0 of the table is the identity.  The subgroup
    grows one generator at a time: the next generator is the least pending
    element outside it, and the extension walks the elements with right
    multiplication by the generators, each (element, generator) pair
    once, so the closure costs |closure|·g steps, not |closure|².  The
    orbit masks of each new element join the pending set.  The walked set
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
                    for orbit in orbits:
                        need |= orbit[y]
        if closed == full:
            break
        todo = need & ~closed
    return closed, gens


def _sum_closure(table, closed: int, orbits) -> int:
    """Least superset of closed (which holds 0) under the table and each
    per-element orbit mask, in |closure|·g steps (`_closure`)."""
    return _closure(table, closed, orbits)[0]


def _greedy_generators(table, mask: int) -> tuple[int, ...]:
    """Elements of mask, in order, each outside the closure of those before.

    For a subgroup mask they generate it under the table's operation.
    `_closure` picks each generator as the least element of mask outside
    the subgroup grown so far, and every element of mask below it is
    inside, so its generators are these; it costs |⟨mask⟩|·g steps.  On a
    table with identity 0 that is not a group, as group_violation may
    read, each element of mask is still a right-multiplied word in them.
    """
    return tuple(_closure(table, mask | 1, ())[1])


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
    """Every homomorphism f from table to target, as (f(0), ..., f(n-1)), in lex order."""
    return tuple(_homomorphism_maps(table, target))


def _homomorphism_maps(table: Table, target: Table):
    """Yield the homomorphisms from table to target, in lex order.

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
    for images in itertools.product(range(m), repeat=len(gens)):
        f = [0] * n
        for y, x, k in tree:
            f[y] = target[f[x]][images[k]]
        if all(f[y] == target[f[x]][images[k]] for y, x, k in rest):
            yield tuple(f)


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


def _free_rows(columns: list[int], r: int):
    """The permutations with r in column 0 whose column c avoids the values in columns[c]."""
    n = len(columns)

    def extend(row: list[int], used: int):
        c = len(row)
        if c == n:
            yield tuple(row)
            return
        for v in bits(full_mask(n) & ~used & ~columns[c]):
            row.append(v)
            yield from extend(row, used | 1 << v)
            row.pop()

    yield from extend([r], 1 << r)


@lru_cache(maxsize=None)
def all_group_tables(n: int) -> tuple[Table, ...]:
    """Every group Cayley table on {0..n-1} with identity 0, in lex order.

    Row a of a group table is left multiplication by a, and (a·b)·c =
    a·(b·c) says row(a·b) = row(a) ∘ row(b).  The search branches only on
    the row of the least unfixed element r: a permutation with r in column
    0 and no value twice in a column.  A worklist then closes the fixed
    rows under composition.  For each pair (a, b) of fixed rows the
    composite is assigned to a·b when that row is unfixed and clashes with
    no column, and compared with it when fixed; the branch is cut at the
    first mismatch or clash.  A cyclic group is decided by its row 1.

    Sound: in a complete assignment every pair (a, b) was compared or
    assigned, so the table is associative; row 0 and column 0 are the
    identity, and every row is a permutation, so each a has a right
    inverse, and an associative table with identity and right inverses is
    a group.  Complete: a group table satisfies every step, so the branch
    that picks its rows finds it, and distinct branches differ in a row.
    tests/test_groups.py checks the result against the normalized Latin
    squares that pass the n³ associativity sweep, at every order <= 6.
    """
    if n > ENUMERATION_BOUND:
        raise OrderBoundError(
            f"group table search is bounded to order {ENUMERATION_BOUND}, got {n}"
        )
    if n == 0:
        return ()
    rows: list = [None] * n
    rows[0] = tuple(range(n))
    columns = [1 << c for c in range(n)]  # values used in column c
    done: list[int] = []  # fixed rows other than 0, in the order fixed
    results = []

    def fix(x: int, row: tuple[int, ...]) -> bool:
        if any(columns[c] >> v & 1 for c, v in enumerate(row)):
            return False
        rows[x] = row
        for c, v in enumerate(row):
            columns[c] |= 1 << v
        done.append(x)
        return True

    def close(start: int) -> bool:
        # every pair among done[:start] is closed; pair each later row,
        # the forced ones included, with itself and every row fixed before it
        i = start
        while i < len(done):
            x = done[i]
            i += 1
            for y in done[:i]:
                for a, b in ((x, y), (y, x)):
                    row_a = rows[a]
                    composite = tuple(row_a[v] for v in rows[b])
                    ab = row_a[b]
                    if rows[ab] is None:
                        if not fix(ab, composite):
                            return False
                    elif rows[ab] != composite:
                        return False
        return True

    def search():
        if len(done) == n - 1:
            results.append(tuple(rows))
            return
        r = rows.index(None)
        mark = len(done)
        for row in _free_rows(columns, r):
            fix(r, row)
            if close(mark):
                search()
            for x in done[mark:]:
                for c, v in enumerate(rows[x]):
                    columns[c] &= ~(1 << v)
                rows[x] = None
            del done[mark:]

    search()
    return tuple(sorted(results))


@lru_cache(maxsize=None)
def group_representatives(n: int) -> tuple[Table, ...]:
    """One canonical table per isomorphism class of groups of order n.

    `all_group_tables(n)` is complete, closed under identity-fixing
    relabelling and lex-sorted, so the first table met in each class is
    the class's lex-minimum, i.e. its `canonical_group_table`.  A table is
    kept when it has no isomorphism onto a table kept before it; the
    search for one stops at the first bijective homomorphism.  The result
    comes out sorted.
    """
    reps: list[Table] = []
    for table in all_group_tables(n):
        if not any(len(set(f)) == n for rep in reps for f in _homomorphism_maps(table, rep)):
            reps.append(table)
    return tuple(reps)


def group_fingerprint(table: Table) -> str:
    """Short stable identifier of the isomorphism class of a group table."""
    import hashlib

    canon = canonical_group_table(table)
    flat = bytes(v for row in canon for v in row)
    return hashlib.sha256(flat).hexdigest()[:12]
