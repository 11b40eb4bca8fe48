"""Element-sweep oracles for the generator-based structures in sbspec.

The library closes orbits under the generators of the acting group
(`braces._orbits`), grows subgroups one generator at a time
(`groups._closure`), checks the skew law with a over the ∘-generators
(`braces._skew_witness`) and reads weights off breadth-first joins
(`IdealLattice.weights`), tests primality on pairs of principal ideals
(`spectra.ideal_pair_witness`) and joins each ideal with one principal
ideal per class of elements (`ideals.all_ideals`).  The tests compare each
with the sweep here: every group element acting on every element, every
pair of processed elements, every a, every subset of principal ideals,
every pair of members, every member joined with every principal ideal.  The twist and star
tables, which the package evaluates as words, are built here in full for
the tests.  with_star_table plants a star table in a copy of a lattice,
and star_positions reads a lattice's back, for the mutation tests.
"""

import copy
import functools
import itertools

from sbspec.bitsets import bits, full_mask, is_subset, popcount
from sbspec.groups import _greedy_generators
from sbspec.ideals import generated_ideal, principal_ideals


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


def ideal_orbit_sweep(brace):
    """SkewBrace.ideal_orbit from the n² sweeps: the +-conjugation,
    ∘-conjugation and twist orbits of each element, each over every a,
    joined until no mask grows."""
    add, mul, neg, inv, n = brace.add, brace.mul, brace.neg, brace.inv, brace.order
    sweeps = (
        orbit_sweep(n, lambda a, i: add[add[a][i]][neg[a]]),
        orbit_sweep(n, lambda a, i: mul[mul[a][i]][inv[a]]),
        orbit_sweep(n, lambda a, i: add[neg[a]][mul[a][i]]),
    )
    out = [sweeps[0][i] | sweeps[1][i] | sweeps[2][i] for i in range(n)]
    grown = True
    while grown:
        grown = False
        for i in range(n):
            mask = out[i]
            for x in bits(out[i]):
                mask |= out[x]
            if mask != out[i]:
                out[i], grown = mask, True
    return tuple(out)


def weight_by_combinations(lat, mask):
    """Least k such that k distinct nonzero principal ideals inside mask
    join to it through lat.join; the zero ideal has weight 1.  The
    principal ideals are closed here, one generated_ideal per element."""
    if mask == 1:
        return 1
    inside = sorted({generated_ideal(lat.brace, 1 << a) for a in bits(mask) if a})
    for k in range(1, len(inside) + 1):
        for combo in itertools.combinations(inside, k):
            if functools.reduce(lat.join, combo) == mask:
                return k
    raise AssertionError(f"mask {mask:#x} does not generate itself")


def principal_join_closure(brace):
    """Every ideal, sorted by size then mask: the distinct principal ideals
    closed under joining any member with any principal ideal, each join
    the set sum swept over element pairs."""
    add = brace.add
    principal = sorted(set(principal_ideals(brace)))
    found, frontier = set(principal), list(principal)
    while frontier:
        x = frontier.pop()
        for p in principal:
            total = 0
            for i in bits(x):
                for j in bits(p):
                    total |= 1 << add[i][j]
            if total not in found:
                found.add(total)
                frontier.append(total)
    return tuple(sorted(found, key=lambda m: (popcount(m), m)))


def member_pair_witness(lat, mask, product):
    """The first pair of members outside mask whose product lies in mask,
    or None when mask is prime for that product: the loop over every pair
    of members that spectra.ideal_pair_witness runs on principal members."""
    outside = [x for x in lat.members if not is_subset(x, mask)]
    for x in outside:
        for y in outside:
            if is_subset(product(x, y), mask):
                return x, y
    return None


def with_star_table(lat, table):
    """A copy of lat whose star products are table (rows by member
    position): the table's columns are its full star store, so every star
    read comes off them, and the huq products, whose seeds are star
    products, are read afresh from them.  The joins are lat's join store,
    which no star product enters; lat's star and huq stores are left as
    they were."""
    mutant = copy.copy(lat)
    columns = list(map(list, zip(*table)))
    mutant._columns = {
        "join": lat._columns["join"],
        "star": columns,
        "huq": [None] * len(columns),
    }
    return mutant


def star_positions(lat):
    """The star table by member position, rows by the left factor, read
    one entry at a time through lat.star."""
    members, index = lat.members, lat.index
    return [[index[lat.star(x, y)] for y in members] for x in members]


def pairwise_closure(table, closed, orbit=None):
    """Least superset of closed under the table and, when given, the orbit mask.

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
        if orbit is not None:
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
