"""Prime ideals: definitions, witnesses, radicals, and the emptiness findings."""

import copy
import dataclasses
from collections import Counter

import pytest
from brace_oracles import member_pair_witness, star_table
from conftest import _alternating_table

from sbspec.bitsets import full_mask, is_subset, mask_of
from sbspec import spectra, suite
from sbspec.braces import direct_product, trivial_brace
from sbspec.enumeration import enumerate_braces
from sbspec.errors import NotAnIdealError, NotMaximalError, NotProperError
from sbspec.groups import cyclic_table, klein_table, product_table
from sbspec.ideals import ideal_lattice, star_set, star_subgroup
from sbspec.spectra import (
    PRIME_KINDS,
    compare_definitions,
    ideal_pair_witness,
    is_prime,
    kind_product,
    maximal_prime_criterion,
    nil_radical,
    radical,
    spectrum,
)
from sbspec.topology import lattice_spectrum


def all_braces():
    out = []
    for n in range(1, 7):
        for i, b in enumerate(enumerate_braces(n)):
            out.append((f"{n}-{i}", b))
    return out


CORPUS = all_braces()


def _pointwise_witness(brace, mask):
    """Elements a, b outside mask with a*b inside it, or None when mask is
    pointwise prime; n^2 star products per ideal."""
    outside = [a for a in range(brace.order) if not mask >> a & 1]
    star = star_table(brace)
    return next(((a, b) for a in outside for b in outside if mask >> star[a][b] & 1), None)


def _subset_pair_witness(brace, mask):
    """Oracle for _pointwise_witness: subsets x, y outside mask whose
    pointwise star products lie inside it, over all 2^n x 2^n pairs."""
    subsets = [x for x in range(1 << brace.order) if not is_subset(x, mask)]
    return next(
        (
            (x, y)
            for x in subsets
            for y in subsets
            if is_subset(star_set(brace, x, y), mask)
        ),
        None,
    )


def test_brace_squares(z4_radical, s3_almost, v4_trivial):
    def square(brace):
        lat = ideal_lattice(brace)
        return lat.star(lat.top, lat.top)

    whole = full_mask(4)
    assert square(z4_radical) == mask_of([0, 2])
    assert star_subgroup(z4_radical, whole, whole) == mask_of([0, 2])
    assert square(s3_almost) == mask_of([0, 3, 4])
    assert square(v4_trivial) == mask_of([0])


def test_star_prime_witness_is_checkable(s3_almost):
    # the alternating ideal is not pointwise prime: the witness elements
    # lie outside it yet their star product lands inside
    a3 = mask_of([0, 3, 4])
    a, b = _pointwise_witness(s3_almost, a3)
    assert not a3 >> a & 1 and not a3 >> b & 1
    assert a3 >> star_table(s3_almost)[a][b] & 1


def test_star_ideal_witness_is_checkable(s3_almost):
    # nor is it star prime: the witness ideals lie outside it, and their
    # star product, read off the lattice, lies inside
    a3 = mask_of([0, 3, 4])
    ok, witness = is_prime(s3_almost, a3, "star")
    assert not ok
    tag, x, y = witness
    assert tag == "ideals"
    assert not is_subset(x, a3) and not is_subset(y, a3)
    assert is_subset(ideal_lattice(s3_almost).star(x, y), a3)


def test_ideal_witness_for_ksv_and_huq(z4_radical):
    two = mask_of([0, 2])
    for kind in ("ksv", "huq"):
        ok, witness = is_prime(z4_radical, two, kind)
        assert not ok
        tag, x, y = witness
        assert tag == "ideals"
        assert not is_subset(x, two) and not is_subset(y, two)


def test_not_proper(z4_radical):
    with pytest.raises(NotProperError):
        is_prime(z4_radical, full_mask(4), "star")


def test_is_prime_refuses_a_non_ideal(b_brace):
    # {0, 1} is no ideal of B, whose ideals are {0} and B, and the pair
    # loop finds no pair against it, so it would read as prime.  Every
    # kind refuses it, as it refuses the empty mask and a mask with a bit
    # past the brace, naming the elements as quotient and ideal_weight do
    for kind in ("star", "ksv", "huq"):
        with pytest.raises(NotAnIdealError) as err:
            is_prime(b_brace, mask_of([0, 1]), kind)
        assert (err.value.condition, err.value.witness) == ("prime-input", [0, 1])
    for mask in (0, 1 | 1 << b_brace.order):
        with pytest.raises(NotAnIdealError):
            is_prime(b_brace, mask, "star")
    assert is_prime(b_brace, 1, "star") == (True, None)


def test_unknown_kind(z4_radical):
    with pytest.raises(ValueError):
        is_prime(z4_radical, 1, "weird")
    with pytest.raises(ValueError):
        spectrum(z4_radical, "weird")


@pytest.mark.parametrize("bid,brace", CORPUS, ids=[bid for bid, _ in CORPUS])
def test_all_spectra_empty_up_to_order_six(bid, brace):
    """Central computational finding: no brace of order <= 6 has any
    prime ideal, under any of the three definitions, and the lattice
    spectrum is empty as well.  Everything topological downstream is
    exercised on genuinely empty spaces plus synthetic positive cases."""
    for kind in PRIME_KINDS:
        spec = spectrum(brace, kind)
        assert spec.primes == ()
        assert spec.empty
        assert spec.minimal == ()
        # every proper ideal is rejected with a witness
        assert len(spec.rejected) == len(ideal_lattice(brace).proper_members())
    assert lattice_spectrum(brace).primes == ()


SMALL = [t for t in CORPUS if t[1].order <= 5]


@pytest.mark.parametrize("bid,brace", SMALL, ids=[bid for bid, _ in SMALL])
def test_star_prime_subset_oracle_agreement(bid, brace):
    # the element test of the theorem below against all subset pairs
    for m in ideal_lattice(brace).proper_members():
        lhs = _pointwise_witness(brace, m) is None
        rhs = _subset_pair_witness(brace, m) is None
        assert lhs == rhs


def test_no_proper_ideal_is_pointwise_prime(s4_trivial, s4_almost, a5_trivial, a5_almost):
    # the theorem in the spectra docstring: lambda of A/P would act freely
    # on the |A/P| - 1 nonzero elements, so the pointwise notion is empty.
    # Subsets x, y outside m with x * y inside m exist exactly when such
    # elements do (take singletons; conversely any a in x - m, b in y - m),
    # so the element witness decides the subset form as well (checked
    # against all subset pairs up to order 5 in the test above).
    braces = [b for _, b in CORPUS] + [s4_trivial, s4_almost, a5_trivial, a5_almost]
    checked = 0
    for brace in braces:
        star = star_table(brace)
        for m in ideal_lattice(brace).proper_members():
            witness = _pointwise_witness(brace, m)
            assert witness is not None, m
            a, b = witness
            assert not m >> a & 1 and not m >> b & 1 and m >> star[a][b] & 1
            checked += 1
    assert checked == 34


def test_radical_with_no_primes_is_whole(z4_radical):
    # no prime contains anything, so every radical collapses to the top
    for m in ideal_lattice(z4_radical).members:
        assert radical(z4_radical, m) == full_mask(4)
    assert nil_radical(z4_radical) == full_mask(4)


def test_radical_laws_hold_degenerately(s3_almost):
    lat = ideal_lattice(s3_almost)
    for m in lat.members:
        r = radical(s3_almost, m)
        assert is_subset(m, r)
        assert radical(s3_almost, r) == r


def test_maximal_prime_criterion(z4_radical, s3_almost, v4_trivial, zero_brace):
    # z4_radical: A*A = {0,2} sits inside the unique maximal ideal {0,2}
    assert maximal_prime_criterion(z4_radical, mask_of([0, 2])) is False
    assert maximal_prime_criterion(s3_almost, mask_of([0, 3, 4])) is False
    for m in ideal_lattice(v4_trivial).maximal_ideals():
        assert maximal_prime_criterion(v4_trivial, m) is False
    # criterion must match star-primality wherever it is defined
    for brace in (z4_radical, s3_almost, v4_trivial):
        for m in ideal_lattice(brace).maximal_ideals():
            assert maximal_prime_criterion(brace, m) == is_prime(brace, m, "star")[0]
    assert ideal_lattice(zero_brace).maximal_ideals() == ()


def test_maximal_criterion_rejects_non_maximal(z4_radical):
    with pytest.raises(NotMaximalError):
        maximal_prime_criterion(z4_radical, mask_of([0]))
    with pytest.raises(NotMaximalError):
        maximal_prime_criterion(z4_radical, full_mask(4))


def _assert_star_equals_ksv(brace):
    star, ksv = spectrum(brace, "star"), spectrum(brace, "ksv")
    assert star.primes == ksv.primes
    assert star.rejected == ksv.rejected
    assert lattice_spectrum(brace).primes == star.primes


@pytest.mark.parametrize("bid,brace", CORPUS, ids=[bid for bid, _ in CORPUS])
def test_definitions_compared(bid, brace):
    cmp = compare_definitions(brace)
    assert cmp.all_agree
    assert tuple(s.kind for s in cmp.spectra) == PRIME_KINDS
    for mask, flags in cmp.membership:
        assert len(set(flags)) == 1
    _assert_star_equals_ksv(brace)


def test_rejection_reasons_are_stable(z4_radical):
    spec = spectrum(z4_radical, "star")
    assert spec == spectrum(z4_radical, "star")
    assert dict(spec.rejected).keys() == {mask_of([0]), mask_of([0, 2])}


@pytest.fixture(params=["s4_almost", "a4_almost", "a5_trivial", "a5_almost"])
def large_brace(request):
    return request.getfixturevalue(request.param)


def test_star_equals_ksv_on_larger_braces(large_brace):
    # the S4 and A4 braces have empty spectra; the A5 ones do not
    _assert_star_equals_ksv(large_brace)


def test_ksv_pairs_match_subgroup_closure(large_brace):
    # the ksv product is the additive subgroup generated by the products;
    # the star table decides every pair alike, because an ideal contains
    # that subgroup exactly when it contains the ideal it generates
    lat = ideal_lattice(large_brace)
    for p in lat.proper_members():
        for x in lat.members:
            for y in lat.members:
                by_subgroup = is_subset(star_subgroup(large_brace, x, y), p)
                assert by_subgroup == is_subset(lat.star(x, y), p)


def test_a5_almost_star_spectrum_is_zero(a5_almost, a5_trivial):
    # A5 is perfect, so A*A = A lies outside {0}: {0} is star prime on the
    # almost-trivial brace, although commuting elements multiply into it
    assert spectrum(a5_almost, "star").primes == (1,)
    assert _pointwise_witness(a5_almost, 1) is not None
    # on the trivial brace A*A = {0}
    assert spectrum(a5_trivial, "star").primes == ()



@pytest.fixture(scope="module")
def primality_corpus(s4_trivial, s4_almost, a4_almost, a5_trivial, a5_almost, b_brace, b_prime_brace):
    """Catalog <= 6, S4, A4, A5, B, B', B x B and trivial Z2^4 and Z2^5."""
    z2_4 = product_table(klein_table(), klein_table())
    return [b for _, b in CORPUS] + [
        s4_trivial,
        s4_almost,
        trivial_brace(_alternating_table(4)),
        a4_almost,
        a5_trivial,
        a5_almost,
        b_brace,
        b_prime_brace,
        direct_product(b_brace, b_brace),
        trivial_brace(z2_4),
        trivial_brace(product_table(z2_4, cyclic_table(2))),
    ]


def test_principal_pairs_decide_primality_as_member_pairs(primality_corpus):
    # ideal_pair_witness tries the pairs of principal members only; the
    # loop over every pair of members finds the same witness at every
    # proper ideal, for every kind, so the spectra agree too
    assert [len(ideal_lattice(b)) for b in primality_corpus[-2:]] == [67, 374]
    primes = 0
    for brace in primality_corpus:
        lat = ideal_lattice(brace)
        for kind in PRIME_KINDS:
            product = kind_product(lat, kind)
            witnesses = {m: member_pair_witness(lat, m, product) for m in lat.proper_members()}
            for m, witness in witnesses.items():
                assert ideal_pair_witness(lat, m, product) == witness, (brace.describe(), kind, m)
            expected = tuple(m for m, witness in witnesses.items() if witness is None)
            assert spectrum(brace, kind).primes == expected
            primes += len(expected)
    assert primes


def test_ksv_spectrum_is_the_star_spectrum(primality_corpus, monkeypatch):
    # kind_product proves that ksv and star decide every pair alike,
    # witnesses included, so the ksv spectrum is the star spectrum under
    # kind ksv, field by field, and the pair loop runs for star only
    corpus = list(dict.fromkeys(primality_corpus))
    kinds = Counter()
    real = spectra.is_prime
    monkeypatch.setattr(
        spectra, "is_prime", lambda brace, mask, kind: kinds.update([kind]) or real(brace, mask, kind)
    )
    spectrum.cache_clear()
    try:
        for brace in corpus:
            star, ksv = spectrum(brace, "star"), spectrum(brace, "ksv")
            assert ksv == dataclasses.replace(star, kind="ksv"), brace.describe()
            spectrum(brace, "huq")
    finally:
        monkeypatch.undo()
        spectrum.cache_clear()
    proper = sum(len(ideal_lattice(b).proper_members()) for b in corpus)
    assert kinds == {"star": proper, "huq": proper}
    assert any(spectrum(b, "ksv").primes for b in corpus)


def test_principal_pairs_without_the_largest_are_caught(
    primality_corpus, a5_trivial, monkeypatch
):
    # a candidate list without the largest principal ideal decides some
    # ideal differently from the member-pair loop: on trivial A5 the only
    # nonzero principal ideal is A5, and without it {0} would be star prime
    def caught(brace):
        lat = ideal_lattice(brace)
        mutant = copy.copy(lat)
        mutant.principal = lat.principal[:-1]
        return any(
            (ideal_pair_witness(mutant, m, kind_product(lat, kind)) is None)
            != (member_pair_witness(lat, m, kind_product(lat, kind)) is None)
            for kind in PRIME_KINDS
            for m in lat.proper_members()
        )

    found = [brace for brace in primality_corpus if caught(brace)]
    assert a5_trivial in found
    # the suite's principal-prime row takes the principal ideals from the
    # brace, not from the lattice, so it fails on that spectrum too
    lat = ideal_lattice(a5_trivial)
    monkeypatch.setattr(lat, "principal", lat.principal[:-1])
    spectrum.cache_clear()
    try:
        verdict = suite._principal_criterion(a5_trivial)[1]
    finally:
        monkeypatch.undo()
        spectrum.cache_clear()
    assert verdict == (False, False, str((1, ("principal", lat.top, lat.top))))
