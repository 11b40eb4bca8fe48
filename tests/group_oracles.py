"""Exhaustive group-table oracles for sbspec.groups.

The library reads its groups off permutation generators
(`groups.GROUP_SOURCE`), their tables off relabelling orbits walked on
adjacent transpositions (`all_group_tables`), and canonical forms off a
search forced on row 1 of a relabelling (`canonical_group_table`).  The
tests check them against the sweeps here: every normalized Latin square,
filled row by row, which shows that the source misses no group of order
<= 6, and every identity-fixing relabelling, (n-1)! of them.
"""

import itertools
from functools import lru_cache

from sbspec.groups import relabel_table


def identity_fixing_perms(n):
    for rest in itertools.permutations(range(1, n)):
        yield (0,) + rest


def canonical_sweep(table):
    """The lex-least relabelling with the identity kept at 0, over all (n-1)!."""
    return min(relabel_table(table, p) for p in identity_fixing_perms(len(table)))


def row_candidates(partial, r, n):
    """All valid next rows for a table whose rows 0..r-1 are fixed.

    Row r must start with r (column 0 is forced by the identity) and keep
    every column a partial permutation.
    """
    col_used = [{partial[i][c] for i in range(r)} for c in range(n)]

    def extend(row, used):
        c = len(row)
        if c == n:
            yield tuple(row)
            return
        choices = (r,) if c == 0 else range(n)
        for v in choices:
            if used >> v & 1 or v in col_used[c]:
                continue
            row.append(v)
            yield from extend(row, used | 1 << v)
            row.pop()

    yield from extend([], 0)


def rows_associate(partial, r):
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
def latin_squares(n):
    """Every normalized Latin square of order n, in lex order, no pruning."""
    results = []

    def fill(partial):
        r = len(partial)
        if r == n:
            results.append(tuple(partial))
            return
        for row in row_candidates(partial, r, n):
            partial.append(row)
            fill(partial)
            partial.pop()

    fill([tuple(range(n))])
    return tuple(results)
