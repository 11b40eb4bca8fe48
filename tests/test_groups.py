"""Group-table layer: enumeration counts, canonical forms, maps between tables."""

import itertools
import random

import pytest
from brace_oracles import pairwise_closure
from conftest import _alternating_table
from group_oracles import canonical_sweep, identity_fixing_perms, latin_squares, rows_associate
from test_relabelling_guard import ROOT, readers

from sbspec.bitsets import bits
from sbspec.errors import OrderBoundError
from sbspec.groups import (
    _closure,
    _greedy_generators,
    all_group_tables,
    automorphisms,
    canonical_group_table,
    cyclic_table,
    find_identity,
    group_fingerprint,
    group_representatives,
    group_violation,
    homomorphisms,
    isomorphisms,
    klein_table,
    product_table,
    relabel_table,
    symmetric_table,
    table_shape_error,
)

# Number of group tables on {0..n-1} with identity 0, and the number of
# isomorphism classes among them.  The library reads the classes off
# GROUP_SOURCE and the tables off their relabelling orbits; the values
# here were verified against independent hand counts (n! / |Aut| summed
# over classes), and test_tables_match_unpruned_sweep recomputes the
# tables from the Latin squares.
TABLE_COUNTS = [1, 1, 1, 4, 6, 80]
CLASS_COUNTS = [1, 1, 1, 2, 1, 2]


@pytest.mark.parametrize("n", range(1, 7))
def test_table_counts(n):
    assert len(all_group_tables(n)) == TABLE_COUNTS[n - 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_class_counts(n):
    reps = group_representatives(n)
    assert len(reps) == CLASS_COUNTS[n - 1]
    # representatives are canonical and pairwise distinct
    assert len(set(reps)) == len(reps)
    for rep in reps:
        assert canonical_group_table(rep) == rep


def test_burnside_count_identity():
    # Sum over classes of n!/(n-1)... the orbit of each class under
    # identity-fixing relabellings has size (n-1)!/|Aut|, so the total
    # table count must equal sum of (n-1)!/|Aut(G)|.
    import math

    for n in range(1, 7):
        total = 0
        for rep in group_representatives(n):
            auts = len(automorphisms(rep))
            assert math.factorial(n - 1) % auts == 0
            total += math.factorial(n - 1) // auts
        assert total == TABLE_COUNTS[n - 1]


@pytest.mark.parametrize(
    "table,expected",
    [
        (cyclic_table(2), 1),
        (cyclic_table(3), 2),
        (cyclic_table(4), 2),
        (cyclic_table(5), 4),
        (cyclic_table(6), 2),
        (klein_table(), 6),
        (symmetric_table(3), 6),
    ],
)
def test_automorphism_counts(table, expected):
    auts = automorphisms(table)
    assert len(auts) == expected
    for perm in auts:
        assert perm[0] == 0
        for a in range(len(table)):
            for b in range(len(table)):
                assert perm[table[a][b]] == table[perm[a]][perm[b]]


@pytest.mark.parametrize(
    "table",
    [cyclic_table(4), klein_table(), cyclic_table(6), symmetric_table(3), cyclic_table(7)],
)
def test_isomorphisms_onto_a_relabelled_table(table):
    # every isomorphism onto a relabelled copy is p composed with an
    # automorphism, so there are |Aut| of them, p among them, in lex order
    n = len(table)
    rng = random.Random(n)
    for _ in range(3):
        rest = list(range(1, n))
        rng.shuffle(rest)
        p = (0, *rest)
        target = relabel_table(table, p)
        found = isomorphisms(table, target)
        assert p in found
        assert len(found) == len(automorphisms(table))
        assert list(found) == sorted(found)
        assert all(relabel_table(table, q) == target for q in found)
    assert isomorphisms(table, table) == automorphisms(table)


# oracles: the sweep over all maps and over all (n-1)! relabellings


def isomorphism_loop(table, target):
    """Every identity-fixing p carrying table onto target, over all (n-1)!."""
    n = len(table)
    return tuple(
        p
        for p in identity_fixing_perms(n)
        if all(p[table[a][b]] == target[p[a]][p[b]] for a in range(n) for b in range(n))
    )


def homomorphism_loop(table, target):
    """Every map fixing 0 that preserves the product, over all m^(n-1)."""
    n = len(table)
    return tuple(
        f
        for tail in itertools.product(range(len(target)), repeat=n - 1)
        for f in [(0, *tail)]
        if all(f[table[a][b]] == target[f[a]][f[b]] for a in range(n) for b in range(n))
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_isomorphisms_match_the_relabelling_loop(n):
    for rep in group_representatives(n):
        for table in all_group_tables(n):
            assert isomorphisms(rep, table) == isomorphism_loop(rep, table)


@pytest.mark.parametrize("name", ["Z8", "Z4xZ2", "Z2^3", "D4", "Q8"])
def test_isomorphisms_match_the_relabelling_loop_at_order_8(groups8, name):
    table = groups8[name]
    rng = random.Random(8)
    rest = list(range(1, 8))
    rng.shuffle(rest)
    target = relabel_table(table, (0, *rest))
    assert isomorphisms(table, target) == isomorphism_loop(table, target)


def test_homomorphisms_match_the_map_sweep():
    # every pair of representatives up to order 5, and into S3 and Z6
    sources = [rep for n in range(1, 6) for rep in group_representatives(n)]
    for table in sources:
        for target in sources + list(group_representatives(6)):
            assert homomorphisms(table, target) == homomorphism_loop(table, target)


def test_generator_images_that_are_no_homomorphism_are_rejected():
    # V4 = <1, 2>: two distinct transpositions of S3 as the images of the
    # generators extend along the word tree, but do not commute, so the
    # map fails on an edge outside the tree
    v4, s3 = klein_table(), symmetric_table(3)
    a, b = 1, 2  # the permutations (0, 2, 1) and (1, 0, 2)
    assert s3[a][a] == s3[b][b] == 0 and s3[a][b] != s3[b][a]
    homs = homomorphisms(v4, s3)
    assert not any(f[1] == a and f[2] == b for f in homs)
    # the commuting pairs of involutions are left: (0, 0), three (t, 0),
    # three (0, t) and three (t, t)
    assert len(homs) == 10
    # Z3 -> Z2: 1 -> 1 extends to f(2) = 0, then f(2 + 1) = 0 != f(2) + f(1)
    assert homomorphisms(cyclic_table(3), cyclic_table(2)) == ((0, 0, 0),)


@pytest.mark.parametrize(
    "order,name,expected",
    [
        (8, "Z8", 4),
        (8, "Z4xZ2", 8),
        (8, "Z2^3", 168),
        (8, "D4", 8),
        (8, "Q8", 24),
        # out of reach of the relabelling loop: 11! = 4·10^7 candidates
        (12, "Z12", 4),
        (12, "Z2xZ6", 12),
        (12, "A4", 24),
        (12, "D6", 12),
        (12, "Dic3", 12),
    ],
)
def test_automorphism_group_orders_at_orders_8_and_12(request, order, name, expected):
    table = request.getfixturevalue(f"groups{order}")[name]
    auts = automorphisms(table)
    assert len(auts) == expected
    assert all(relabel_table(table, p) == table for p in auts)


@pytest.mark.parametrize(
    "name,expected", [("Z8", 8), ("Z4xZ2", 32), ("Z2^3", 512), ("D4", 36), ("Q8", 28)]
)
def test_endomorphism_counts_at_order_8(groups8, name, expected):
    # Z4xZ2: 4·2·2·2 maps between cyclic factors; Z2^3: 8^3; Q8: the
    # trivial map, three onto its centre and the 24 automorphisms
    assert len(homomorphisms(groups8[name], groups8[name])) == expected


def test_no_isomorphism_between_distinct_classes():
    assert isomorphisms(cyclic_table(4), klein_table()) == ()
    assert isomorphisms(cyclic_table(6), symmetric_table(3)) == ()


def test_constructors_are_groups():
    for table in [
        cyclic_table(1),
        cyclic_table(6),
        klein_table(),
        symmetric_table(3),
        product_table(cyclic_table(2), cyclic_table(3)),
    ]:
        assert table_shape_error(table) is None and group_violation(table) is None
        assert find_identity(table) == 0


def test_symmetric_table_shape():
    s3 = symmetric_table(3)
    assert len(s3) == 6
    # nonabelian
    assert any(s3[a][b] != s3[b][a] for a in range(6) for b in range(6))


@pytest.mark.parametrize("m", range(0, 6))
def test_symmetric_table_is_every_permutation(m):
    # the two generators reach all m! permutations, in lex order, with
    # p·q acting by q first, then p
    perms = sorted(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    expected = tuple(
        tuple(index[tuple(p[q[x]] for x in range(m))] for q in perms) for p in perms
    )
    assert symmetric_table(m) == expected


@pytest.mark.parametrize("m", range(3, 6))
def test_three_cycles_give_the_alternating_table(m):
    # the fixtures' A_m on the 3-cycles (0 1 k) is the table of the even
    # permutations, found by their inversion count, in lex order
    perms = sorted(
        p
        for p in itertools.permutations(range(m))
        if sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m)) % 2 == 0
    )
    index = {p: i for i, p in enumerate(perms)}
    expected = tuple(
        tuple(index[tuple(p[q[x]] for x in range(m))] for q in perms) for p in perms
    )
    assert _alternating_table(m) == expected


def test_only_the_raw_enumeration_reads_the_table_list():
    # the catalog path reads the group source alone; the orbits of
    # all_group_tables feed only the raw sweep oracle
    found = {
        path.stem: readers(path.read_text(), "all_group_tables")
        for path in sorted((ROOT / "src" / "sbspec").glob("*.py"))
    }
    assert {name: fns for name, fns in found.items() if fns} == {
        "enumeration": ["enumerate_braces_raw"]
    }


def test_z2_times_z3_is_z6():
    prod = product_table(cyclic_table(2), cyclic_table(3))
    assert canonical_group_table(prod) == canonical_group_table(cyclic_table(6))


def test_canonical_is_relabel_invariant():
    z4 = cyclic_table(4)
    perm = (0, 2, 1, 3)
    relabeled = relabel_table(z4, perm)
    assert relabeled != z4
    assert canonical_group_table(relabeled) == canonical_group_table(z4)
    # idempotent
    canon = canonical_group_table(z4)
    assert canonical_group_table(canon) == canon


def test_group_violation_witnesses():
    z3 = cyclic_table(3)
    # overwrite 1+1 (= 2) with 1; associativity then fails
    broken = tuple(
        tuple(1 if (a, b) == (1, 1) else z3[a][b] for b in range(3)) for a in range(3)
    )
    assert group_violation(broken) is not None
    assert group_violation(z3) is None
    assert table_shape_error(broken) is None
    assert group_violation(broken)[0] == "associativity"


def test_identity_must_be_zero():
    # Z2 relabelled so the identity sits at position 1 is still a group
    # table, but the enumeration and brace layers insist on identity 0.
    shifted = ((1, 0), (0, 1))
    assert find_identity(shifted) == 1
    assert group_violation(shifted) is not None


def test_identity_fixing_perms_count():
    import math

    for n in range(1, 6):
        perms = list(identity_fixing_perms(n))
        assert len(perms) == math.factorial(n - 1)
        assert all(p[0] == 0 for p in perms)


def test_fingerprint_separates_and_unifies():
    z4 = cyclic_table(4)
    v4 = klein_table()
    assert group_fingerprint(z4) != group_fingerprint(v4)
    assert group_fingerprint(relabel_table(z4, (0, 3, 2, 1))) == group_fingerprint(z4)
    assert len(group_fingerprint(z4)) == 12


def test_enumeration_bound():
    with pytest.raises(OrderBoundError):
        all_group_tables(7)
    with pytest.raises(OrderBoundError):
        group_representatives(7)


# ---------------------------------------------------------------------------
# oracles: the unpruned row-wise sweep over normalized Latin squares
# (group_oracles.latin_squares) and the (n-1)! relabelling sweep


def associativity_witness(table):
    """The first (a, b, c) with (a·b)·c != a·(b·c), over all n^3 triples, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def _reference_tables(n):
    # a normalized Latin square has identity 0 and inverses: a group
    # exactly when it is associative
    return tuple(t for t in latin_squares(n) if associativity_witness(t) is None)


@pytest.mark.parametrize("n", range(1, 7))
def test_group_violation_matches_the_associativity_oracle(n):
    # Light's test over the generators against the n^3 sweep, on all 9471
    # normalized Latin squares of order <= 6; a reported triple is real
    failures = 0
    for square in latin_squares(n):
        bad = group_violation(square)
        assert (bad is None) == (associativity_witness(square) is None)
        if bad is not None:
            failures += 1
            assert bad[0] == "associativity"
            a, b, c = bad[1]
            assert square[square[a][b]][c] != square[a][square[b][c]]
    assert failures == len(latin_squares(n)) - TABLE_COUNTS[n - 1]


def greedy_by_pairwise_closure(table, mask):
    """Elements of mask, in order, each outside the pairwise closure of those before."""
    gens, closed = [], 1
    for x in bits(mask):
        if not closed >> x & 1:
            gens.append(x)
            closed = pairwise_closure(table, closed | 1 << x)
    return tuple(gens)


@pytest.mark.parametrize("n", range(1, 7))
def test_closures_grown_on_generators_match_the_pairwise_worklist(n):
    # every group table of order <= 6 and every subset: the closure and
    # the greedy generators equal the |closure|² worklist's
    for table in all_group_tables(n):
        for mask in range(1, 1 << n, 2):
            assert _closure(table, mask)[0] == pairwise_closure(table, mask)
            assert _greedy_generators(table, mask) == greedy_by_pairwise_closure(table, mask)


@pytest.mark.parametrize("n", range(1, 7))
def test_tables_match_unpruned_sweep(n):
    assert all_group_tables(n) == _reference_tables(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_matches_the_sweep(n):
    # the forced row-1 search against all (n-1)! relabellings, on every table
    for table in all_group_tables(n):
        assert canonical_group_table(table) == canonical_sweep(table)


@pytest.mark.parametrize("name", ["Z8", "Z4xZ2", "Z2^3", "D4", "Q8"])
def test_canonical_matches_the_sweep_at_order_8(groups8, name):
    table = groups8[name]
    form = canonical_sweep(table)
    assert canonical_group_table(table) == form
    for seed in (1, 2):
        rest = list(range(1, 8))
        random.Random(seed).shuffle(rest)
        moved = relabel_table(table, (0, *rest))
        assert canonical_group_table(moved) == canonical_sweep(moved) == form


def test_canonical_forms_separate_the_groups_of_order_8(groups8):
    forms = {canonical_group_table(table) for table in groups8.values()}
    assert len(forms) == 5


@pytest.mark.parametrize("n", range(1, 7))
def test_representatives_match_canonical_forms(n):
    tables = all_group_tables(n)
    expected = tuple(sorted({canonical_group_table(t) for t in tables}))
    assert group_representatives(n) == expected


@pytest.mark.parametrize("n", range(2, 7))
def test_row_pruning_decides_groups(n):
    # over all normalized Latin squares, passing the row test at every
    # depth is exactly being a group; some squares fail it at n >= 5.
    # The package searches no tables, so this checks the oracle's own
    # row test (group_oracles.rows_associate)
    rejected = 0
    for square in latin_squares(n):
        rows_ok = all(rows_associate(list(square[: r + 1]), r) for r in range(1, n))
        assert rows_ok == (associativity_witness(square) is None)
        rejected += not rows_ok
    assert (rejected > 0) == (n >= 5)


# the orbits of all_group_tables: sorted, groups, closed under relabelling


@pytest.mark.parametrize("n", range(1, 7))
def test_tables_strictly_lex_increasing(n):
    tables = all_group_tables(n)
    assert all(a < b for a, b in zip(tables, tables[1:]))


@pytest.mark.parametrize("n", range(1, 7))
def test_tables_are_groups(n):
    assert all(group_violation(t) is None for t in all_group_tables(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_tables_closed_under_relabelling(n):
    tables = all_group_tables(n)
    present = set(tables)
    for table in tables:
        for perm in identity_fixing_perms(n):
            assert relabel_table(table, perm) in present
