"""Element-sweep oracles for the generator-based structures in sbspec.

The library closes orbits under the generators of the acting group
(`braces._orbits`), grows subgroups one generator at a time
(`groups._closure`) and checks the skew law with a over the
∘-generators (`braces._skew_witness`).  The tests compare each with the
sweep here: every group element acting on every element, every pair of
processed elements, every a.  The twist and star tables, which the
package evaluates as words, are built here in full for the tests.
"""

from sbspec.bitsets import full_mask
from sbspec.groups import _greedy_generators


def lam_table(brace):
    """lam[a][b] = -a + a∘b for every a and b."""
    add, mul, neg, n = brace.add, brace.mul, brace.neg, brace.order
    return tuple(tuple(add[neg[a]][mul[a][b]] for b in range(n)) for a in range(n))


def star_table(brace):
    """star[a][b] = -a + a∘b - b = lam[a][b] - b for every a and b."""
    add, neg = brace.add, brace.neg
    return tuple(
        tuple(add[lam_ab][neg[b]] for b, lam_ab in enumerate(row)) for row in lam_table(brace)
    )


def orbit_sweep(n, act):
    """Mask of {act(a, i) : a} for each element i, over all n elements a."""
    out = [0] * n
    for a in range(n):
        for i in range(n):
            out[i] |= 1 << act(a, i)
    return tuple(out)


def orbit_masks_sweep(brace):
    """The three orbit masks of SkewBrace, each from the n² sweep."""
    add, mul, neg, inv, n = brace.add, brace.mul, brace.neg, brace.inv, brace.order
    return (
        orbit_sweep(n, lambda a, i: add[add[a][i]][neg[a]]),
        orbit_sweep(n, lambda a, i: mul[mul[a][i]][inv[a]]),
        orbit_sweep(n, lambda a, i: add[neg[a]][mul[a][i]]),
    )


def pairwise_closure(table, closed, orbits):
    """Least superset of closed under the table and each orbit mask.

    Worklist: pop the lowest unprocessed element i, OR in orbit[i], i·i,
    and i·j, j·i for every processed j, so each pair is touched once:
    |closure|² steps.
    """
    full = full_mask(len(table))
    done = []
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


def skew_witness_sweep(add, mul):
    """First (a, b, c) breaking a∘(b + c) = a∘b - a + a∘c, a over every
    element, b over every element and c over the +-generators, or None."""
    neg = tuple(row.index(0) for row in add)
    gens = _greedy_generators(add, full_mask(len(add)))
    for a, row_a in enumerate(mul):
        na = neg[a]
        for b, ab in enumerate(row_a):
            left = add[ab][na]
            for c in gens:
                if row_a[add[b][c]] != add[left][row_a[c]]:
                    return (a, b, c)
    return None
