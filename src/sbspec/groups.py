"""Finite groups as Cayley tables over {0, ..., n-1} with identity 0.

A table is a tuple of n row tuples; table[a][b] is the product of a and b.
The table search is bounded to ENUMERATION_BOUND, the one bound that the
brace enumeration, the catalog and the CLI read as well.  It fills a
normalized Latin square row by row and tests associativity on the rows
fixed so far after each new row, so it never completes a Latin square
that is not a group and checks no complete table again.  Maps between
tables come from one search, `homomorphisms`, over the images of a
generating set; isomorphisms, automorphisms and the isomorphism classes
of the lex-sorted table list are read off it.  Laws are checked on the
greedy generators (`group_violation`, `_law_witness`).  The one (n-1)!
sweep, `canonical_group_table`, is bounded to CANONICAL_BOUND.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .bitsets import bits, full_mask
from .errors import NotAGroupError, OrderBoundError

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


def is_group_table(table: Table) -> bool:
    return table_shape_error(table) is None and group_violation(table) is None


def check_group(table: Table, which: str = "table") -> None:
    """Raise NotAGroupError if the table fails the group axioms."""
    msg = table_shape_error(table)
    if msg is not None:
        raise NotAGroupError(which, "bad shape", msg)
    bad = group_violation(table)
    if bad is not None:
        raise NotAGroupError(which, bad[0], bad[1])


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


def identity_fixing_perms(n: int):
    for rest in itertools.permutations(range(1, n)):
        yield (0,) + rest


@lru_cache(maxsize=None)
def canonical_group_table(table: Table) -> Table:
    """Lex-least relabeling, identity kept at 0: an (n-1)! sweep, so bounded."""
    n = len(table)
    if n > CANONICAL_BOUND:
        raise OrderBoundError(f"canonical form is bounded to order {CANONICAL_BOUND}, got {n}")
    return min(relabel_table(table, p) for p in identity_fixing_perms(n))


def _sum_closure(table, closed: int, orbits) -> int:
    """Least superset of closed under the table and each per-element orbit mask.

    Worklist: pop the lowest unprocessed element i, OR in orbit[i], i·i,
    and i·j, j·i for every processed j (· the table's operation), so each
    pair is touched once.
    A finite subset closed under a group operation is a subgroup, so
    inverses need no step of their own.
    """
    full = full_mask(len(table))
    done: list[int] = []
    processed = 0
    todo = closed
    while todo:
        i = (todo & -todo).bit_length() - 1
        row = table[i]
        closed |= 1 << row[i]
        for orbit in orbits:
            closed |= orbit[i]
        for j in done:
            closed |= 1 << row[j] | 1 << table[j][i]
        if closed == full:
            return full
        done.append(i)
        processed |= 1 << i
        todo = closed & ~processed
    return closed


def _greedy_generators(table, mask: int) -> tuple[int, ...]:
    """Elements of mask, in order, each outside the closure of those before.

    For a subgroup mask they generate it under the table's operation.
    """
    gens = []
    closed = 1
    for x in bits(mask):
        if not closed >> x & 1:
            gens.append(x)
            closed = _sum_closure(table, closed | 1 << x, ())
    return tuple(gens)


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


def _row_candidates(partial: list[tuple[int, ...]], r: int, n: int):
    """All valid next rows for a table whose rows 0..r-1 are fixed.

    Row r must start with r (column 0 is forced by the identity) and keep
    every column a partial permutation.
    """
    col_used = [{partial[i][c] for i in range(r)} for c in range(n)]

    def extend(row: list[int], used: int):
        c = len(row)
        if c == n:
            yield tuple(row)
            return
        forced = r if c == 0 else None
        choices = (forced,) if forced is not None else range(n)
        for v in choices:
            if used >> v & 1 or v in col_used[c]:
                continue
            # row 0 of any identity table is 0..n-1, so column c cannot
            # repeat value row[c] either; col_used already covers it.
            row.append(v)
            yield from extend(row, used | 1 << v)
            row.pop()

    yield from extend([], 0)


def _rows_associate(partial: list[tuple[int, ...]], r: int) -> bool:
    """Associativity on rows 0..r, for the pairs that involve the new row r.

    Tests row(a) after row(b) == row(a*b) for every pair (a, b) with a, b
    and a*b all among the fixed rows and at least one of them equal to r;
    pairs among rows 0..r-1 were tested when their last row was added.
    Row 0 is the identity, so a = 0 and b = 0 hold trivially.
    """
    cols = range(len(partial[0]))
    for a in range(1, r + 1):
        row_a = partial[a]
        for b in range(1, r + 1):
            ab = row_a[b]
            if ab > r or (ab != r and a != r and b != r):
                continue
            row_b = partial[b]
            target = partial[ab]
            for c in cols:
                if row_a[row_b[c]] != target[c]:
                    return False
    return True


@lru_cache(maxsize=None)
def all_group_tables(n: int) -> tuple[Table, ...]:
    """Every group Cayley table on {0..n-1} with identity 0, in lex order.

    Depth-first over normalized Latin squares, one row at a time in lex
    order.  After row r is appended, associativity is tested on the pairs
    of fixed rows that involve r (`_rows_associate`) and the branch is cut
    on the first mismatch, so non-group squares are abandoned as soon as
    the rows that refute them are fixed.

    A complete table is a group with no further check.  Row 0 and column
    0 are the identity.  Each pair (a, b) was tested when the last of rows
    a, b and a·b was fixed, so the table is associative.  Rows and columns
    are permutations, so 0 appears in row a and in column a: each a has a
    right and a left inverse.  tests/test_groups.py checks every table up
    to order 6 against the group axioms.
    """
    if n > ENUMERATION_BOUND:
        raise OrderBoundError(
            f"group table search is bounded to order {ENUMERATION_BOUND}, got {n}"
        )
    if n == 0:
        return ()
    first = tuple(range(n))
    results = []

    def fill(partial: list[tuple[int, ...]]):
        r = len(partial)
        if r == n:
            results.append(tuple(partial))
            return
        for row in _row_candidates(partial, r, n):
            partial.append(row)
            if _rows_associate(partial, r):
                fill(partial)
            partial.pop()

    fill([first])
    return tuple(results)


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
