"""Brace axioms checked against a naive in-test oracle, plus constructors."""

import random
from collections import Counter

import pytest
from brace_oracles import lam_table, skew_witness_sweep, star_table
from group_oracles import identity_fixing_perms

from sbspec import groups
from sbspec.braces import (
    SkewBrace,
    _skew_witness,
    almost_trivial_brace,
    canonical_form,
    canonicalize,
    direct_product,
    is_isomorphic,
    relabel,
    trivial_brace,
    validate,
)
from sbspec.errors import (
    IdentityMismatchError,
    NotAGroupError,
    OrderBoundError,
    ParseError,
    SbspecError,
    SkewLawError,
)
from sbspec.enumeration import enumerate_braces
from sbspec.groups import (
    all_group_tables,
    cyclic_table,
    group_representatives,
)


def naive_skew_holds(add, mul) -> bool:
    """Direct translation of the compatibility law, written independently:

    a ∘ (b + c) == (a ∘ b) - a + (a ∘ c)
    """
    n = len(add)
    neg = [row.index(0) for row in add]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = mul[a][add[b][c]]
                right = add[add[mul[a][b]][neg[a]]][mul[a][c]]
                if left != right:
                    return False
    return True


@pytest.mark.parametrize("n", range(1, 7))
def test_validate_agrees_with_naive_oracle(n):
    """Sweep every (addition class, multiplication table) pair.

    Both tables are honest groups with identity 0, so validate must
    succeed exactly when the naive compatibility check passes, and a
    reported triple must break the law.
    """
    seen_failure = False
    for add in group_representatives(n):
        neg = [row.index(0) for row in add]
        for mul in all_group_tables(n):
            expected = naive_skew_holds(add, mul)
            if expected:
                brace = validate(add, mul)
                assert brace.add == add and brace.mul == mul
            else:
                seen_failure = True
                with pytest.raises(SkewLawError) as err:
                    validate(add, mul)
                a, b, c = err.value.triple
                assert mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]
    if n == 4:
        # the sweep must actually exercise the failure branch somewhere
        assert seen_failure


def test_every_twist_is_an_additive_automorphism(
    catalog6, s4_trivial, s4_almost, a5_trivial, a5_almost
):
    # validate checks only the skew law, which makes each lam[a] additive
    # and bijective; here both are checked on the tables directly
    braces = [SkewBrace(rec.add, rec.mul) for rec in catalog6]
    braces += [s4_trivial, s4_almost, a5_trivial, a5_almost]
    for brace in braces:
        n, add = brace.order, brace.add
        for lam_a in lam_table(brace):
            assert sorted(lam_a) == list(range(n))
            for b in range(n):
                assert all(lam_a[add[b][c]] == add[lam_a[b]][lam_a[c]] for c in range(n))


def test_z4_radical_star_is_2ab(z4_radical):
    star, lam = star_table(z4_radical), lam_table(z4_radical)
    for a in range(4):
        for b in range(4):
            assert star[a][b] == (2 * a * b) % 4
            # lam[a][b] = -a + a∘b
            assert lam[a][b] == (b + 2 * a * b) % 4


def test_z4_radical_circle_group_is_klein(z4_radical):
    # a ∘ a = 2a + 2a² = 0 mod 4 for every a, so (A, ∘) has exponent 2
    for a in range(4):
        assert z4_radical.mul[a][a] == 0


def test_trivial_brace_star_zero(v4_trivial):
    assert all(v == 0 for row in star_table(v4_trivial) for v in row)
    lam = lam_table(v4_trivial)
    assert all(
        lam[a][b] == b
        for a in range(v4_trivial.order)
        for b in range(v4_trivial.order)
    )


def test_almost_trivial_star_is_commutator(s3_almost):
    add = s3_almost.add
    neg = s3_almost.neg
    star = star_table(s3_almost)
    for a in range(6):
        for b in range(6):
            # star a*b = -a + (a ∘ b) - b = -a + b + a - b
            expected = add[add[add[neg[a]][b]][a]][neg[b]]
            assert star[a][b] == expected


def test_almost_trivial_of_abelian_is_trivial():
    z6 = cyclic_table(6)
    assert almost_trivial_brace(z6) == trivial_brace(z6)


def test_direct_product(z2_trivial, z3_trivial):
    prod = direct_product(z2_trivial, z3_trivial)
    assert prod.order == 6
    checked = validate(prod.add, prod.mul)
    assert checked == prod
    assert is_isomorphic(prod, trivial_brace(cyclic_table(6))) is not None


def test_hash_and_equality_follow_the_tables(z4_radical):
    # the hash is cached per instance; separately built equal braces
    # still hash and compare equal, and a relabelled one does not compare equal
    rebuilt = validate([list(r) for r in z4_radical.add], [list(r) for r in z4_radical.mul])
    assert rebuilt is not z4_radical
    assert rebuilt == z4_radical
    assert hash(rebuilt) == hash(z4_radical) == hash((z4_radical.add, z4_radical.mul))
    assert relabel(z4_radical, (0, 3, 1, 2)) != z4_radical


def test_neg_inv_tables(z4_radical):
    for a in range(4):
        assert z4_radical.add[a][z4_radical.neg[a]] == 0
        assert z4_radical.mul[a][z4_radical.inv[a]] == 0


def test_canonical_form_z2(z2_trivial):
    assert canonical_form(z2_trivial) == bytes([0, 1, 1, 0, 0, 1, 1, 0])


def test_canonicalize_relabel_invariant(z4_radical):
    perm = (0, 3, 1, 2)
    moved = relabel(z4_radical, perm)
    assert moved != z4_radical
    assert canonicalize(moved) == canonicalize(z4_radical)
    canon = canonicalize(z4_radical)
    assert canonicalize(canon) == canon


def test_is_isomorphic_returns_checked_perm(z4_radical):
    perm = (0, 3, 1, 2)
    moved = relabel(z4_radical, perm)
    found = is_isomorphic(z4_radical, moved)
    assert found is not None
    # verify the returned map really is an isomorphism, independently
    for a in range(4):
        for b in range(4):
            assert found[z4_radical.add[a][b]] == moved.add[found[a]][found[b]]
            assert found[z4_radical.mul[a][b]] == moved.mul[found[a]][found[b]]


def is_isomorphic_loop(x, y):
    """Oracle: the first identity-fixing permutation, over all (n-1)!, that
    carries both tables of x onto y."""
    if x.order != y.order:
        return None
    return next(
        (p for p in identity_fixing_perms(x.order) if relabel(x, p) == y), None
    )


@pytest.mark.parametrize("n", range(1, 7))
def test_is_isomorphic_matches_the_relabelling_loop(n):
    # every pair among the classes of order n and a relabelled copy of each
    rng = random.Random(n)
    corpus = list(enumerate_braces(n))
    for brace in list(corpus):
        rest = list(range(1, n))
        rng.shuffle(rest)
        corpus.append(relabel(brace, (0, *rest)))
    for x in corpus:
        for y in corpus:
            assert is_isomorphic(x, y) == is_isomorphic_loop(x, y)


def test_not_isomorphic(z4_trivial, z4_radical, v4_trivial):
    assert is_isomorphic(z4_trivial, z4_radical) is None
    assert is_isomorphic(z4_trivial, v4_trivial) is None
    assert is_isomorphic(z4_trivial, trivial_brace(cyclic_table(3))) is None


def test_validate_rejects_non_group():
    with pytest.raises(NotAGroupError):
        validate(((0, 1), (1, 1)), cyclic_table(2))
    with pytest.raises(NotAGroupError):
        validate(cyclic_table(2), ((0, 1), (1, 1)))


def test_validate_rejects_shifted_identity():
    # Z2 with identity relabelled to position 1: a genuine group, wrong slot
    shifted = ((1, 0), (0, 1))
    with pytest.raises(IdentityMismatchError):
        validate(shifted, shifted)


def test_validate_rejects_bad_shape():
    with pytest.raises(ParseError):
        validate(((0, 1), (1, 0, 0)), cyclic_table(2))
    with pytest.raises(ParseError):
        validate(cyclic_table(2), cyclic_table(3))


def test_skew_witness_matches_the_full_sweep(b_brace, b_prime_brace):
    # a over the ∘-generators decides as a over every element; on these
    # pairs the first failing a is a ∘-generator, so the triples agree too
    pairs = [
        (add, mul)
        for n in range(1, 7)
        for add in group_representatives(n)
        for mul in all_group_tables(n)
    ]
    assert len(pairs) == 177
    pairs += [(b.add, b.mul) for b in (b_brace, b_prime_brace)]
    failing = 0
    for add, mul in pairs:
        witness = _skew_witness(add, mul)
        assert witness == skew_witness_sweep(add, mul)
        failing += witness is not None
    assert failing


def test_validate_skew_witness_is_real():
    # a relabelled Z4 addition with the plain cyclic multiplication
    # violates the compatibility law; check the reported triple
    add = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1))
    mul = cyclic_table(4)
    with pytest.raises(SkewLawError) as err:
        validate(add, mul)
    a, b, c = err.value.triple
    assert not naive_skew_holds(add, mul)
    neg = [row.index(0) for row in add]
    assert mul[a][add[b][c]] != add[add[mul[a][b]][neg[a]]][mul[a][c]]


def test_canonicalize_order_bound(z3_trivial):
    nine = direct_product(z3_trivial, z3_trivial)
    assert nine.order == 9
    with pytest.raises(OrderBoundError):
        canonicalize(nine)


def test_errors_share_base():
    for exc in (
        NotAGroupError("add", "x"),
        IdentityMismatchError(1, 1),
        SkewLawError(0, 0, 0),
        ParseError("x"),
        OrderBoundError(9, 8),
    ):
        assert isinstance(exc, SbspecError)


def _opposite(t):
    return tuple(tuple(t[b][a] for b in range(len(t))) for a in range(len(t)))


def test_constructors_equal_validate(s4_trivial, a5_trivial):
    # the constructors check the table once as a group and skip the skew
    # law, which holds when ∘ is + or its opposite; validate still agrees
    tables = [t for n in range(1, 7) for t in group_representatives(n)]
    for t in tables + [s4_trivial.add, a5_trivial.add]:
        assert trivial_brace(t) == validate(t, t)
        assert almost_trivial_brace(t) == validate(t, _opposite(t))


NON_BRACE_TABLES = [
    # no inverse of 1: not a group
    (((0, 1), (1, 1)), NotAGroupError),
    # a Latin square with identity 0 that is not associative
    (
        ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)),
        NotAGroupError,
    ),
    # no two-sided identity at all
    (((1, 0), (1, 0)), NotAGroupError),
    # Z2 with its identity at position 1
    (((1, 0), (0, 1)), IdentityMismatchError),
    # ragged rows, where an opposite table built before the shape check
    # raises IndexError, and an entry out of range
    (((0, 1), (1,)), ParseError),
    (((0, 1), (1, 2)), ParseError),
]


@pytest.mark.parametrize("table, error", NON_BRACE_TABLES)
def test_constructors_raise_what_validate_raises(table, error):
    with pytest.raises(error) as expected:
        validate(table, table)
    with pytest.raises(error) as got:
        trivial_brace(table)
    assert str(got.value) == str(expected.value)
    with pytest.raises(error) as got:
        almost_trivial_brace(table)
    if error is not ParseError:
        with pytest.raises(error) as expected:
            validate(table, _opposite(table))
    assert str(got.value) == str(expected.value)


def test_the_gate_tests_each_table_once(monkeypatch, s4_trivial):
    # validate reads two tables, the constructors one: each is shape-checked,
    # searched for its identity and put through Light's test exactly once
    steps = ("table_shape_error", "find_identity", "group_violation")
    calls = Counter()
    for name in steps:
        fn = getattr(groups, name)
        monkeypatch.setattr(groups, name, lambda t, fn=fn, name=name: calls.update([name]) or fn(t))
    t = s4_trivial.add
    for build, tables in ((validate, 2), (trivial_brace, 1), (almost_trivial_brace, 1)):
        calls.clear()
        build(*[t] * tables)
        assert calls == dict.fromkeys(steps, tables), build.__name__
