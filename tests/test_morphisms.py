"""Homomorphisms, quotients, and the induced maps on spectra."""

import itertools

import pytest

from sbspec.bitsets import full_mask, is_subset, mask_of, popcount
from sbspec import morphisms
from sbspec.braces import direct_product, is_isomorphic, relabel, trivial_brace
from sbspec.enumeration import enumerate_braces
from sbspec.errors import (
    NotAHomomorphismError,
    NotAnIdealError,
    ParseError,
)
from sbspec.groups import cyclic_table, product_table
from sbspec.ideals import all_ideals, ideal_lattice, is_ideal
from sbspec.morphisms import (
    compose,
    contraction,
    endomorphisms,
    extension,
    identity_hom,
    ideal_correspondence,
    image,
    induced_spec_map,
    is_injective,
    is_surjective,
    kernel,
    nil_quotient_homeo,
    quotient,
    quotient_projections,
    validate_hom,
    zero_hom,
)
from sbspec.spectra import nil_radical, spectrum
from sbspec.suite import _spec_maps


def test_validate_hom_accepts(z4_radical, z2_trivial):
    f = validate_hom(z4_radical, z2_trivial, [0, 1, 0, 1])
    assert f(3) == 1
    assert f.image_of(mask_of([0, 2])) == mask_of([0])
    assert f.preimage_of(mask_of([0])) == mask_of([0, 2])


def test_validate_hom_rejects_non_hom(z4_trivial):
    # not additive: f(1+1) = f(2) = 0 but f(1)+f(1) = 2
    with pytest.raises(NotAHomomorphismError) as err:
        validate_hom(z4_trivial, z4_trivial, [0, 1, 0, 1])
    assert err.value.law == "add"
    assert err.value.pair == (1, 1)


def test_validate_hom_rejects_mul_breakage(z4_trivial, z4_radical):
    # additive automorphism of Z4 that does not respect the radical circle
    # on the target: x -> x is additive both ways but 1∘1 differs
    with pytest.raises(NotAHomomorphismError) as err:
        validate_hom(z4_trivial, z4_radical, [0, 1, 2, 3])
    assert err.value.law == "mul"


@pytest.mark.parametrize("n", range(1, 5))
def test_validate_hom_matches_the_pair_sweep(n):
    # the laws on the source's generators against all n^2 pairs, over
    # every self-map, 0 moved or not; a reported pair breaks its law
    for brace in enumerate_braces(n):
        tables = {"add": brace.add, "mul": brace.mul}
        for m in itertools.product(range(n), repeat=n):
            sweep = all(
                m[t[a][b]] == t[m[a]][m[b]]
                for t in tables.values()
                for a in range(n)
                for b in range(n)
            )
            if sweep:
                assert validate_hom(brace, brace, m).mapping == m
                continue
            with pytest.raises(NotAHomomorphismError) as err:
                validate_hom(brace, brace, m)
            t = tables[err.value.law]
            a, b = err.value.pair
            assert m[t[a][b]] != t[m[a]][m[b]]


def test_validate_hom_from_order_one_checks_the_identity(zero_brace, z2_trivial):
    # the order-1 table has no generators; its one law is f(0) = f(0)·f(0)
    assert validate_hom(zero_brace, z2_trivial, [0]).mapping == (0,)
    with pytest.raises(NotAHomomorphismError) as err:
        validate_hom(zero_brace, z2_trivial, [1])
    assert err.value.pair == (0, 0)


def test_validate_hom_rejects_bad_shapes(z2_trivial):
    with pytest.raises(ParseError):
        validate_hom(z2_trivial, z2_trivial, [0])
    with pytest.raises(ParseError):
        validate_hom(z2_trivial, z2_trivial, [0, 2])


def test_identity_zero_compose(z4_radical, z2_trivial):
    ident = identity_hom(z4_radical)
    zero = zero_hom(z4_radical, z2_trivial)
    f = validate_hom(z4_radical, z2_trivial, [0, 1, 0, 1])
    assert compose(f, ident).mapping == f.mapping
    assert compose(zero_hom(z2_trivial, z2_trivial), f).mapping == zero.mapping
    assert is_injective(ident) and is_surjective(ident)
    assert not is_injective(f) and is_surjective(f)
    assert not is_surjective(zero)


def test_kernel_image(z4_radical, z2_trivial):
    f = validate_hom(z4_radical, z2_trivial, [0, 1, 0, 1])
    assert kernel(f) == mask_of([0, 2])
    assert image(f) == mask_of([0, 1])
    assert is_ideal(z4_radical, kernel(f))


def test_contraction_extension(z4_radical, z2_trivial):
    f = validate_hom(z4_radical, z2_trivial, [0, 1, 0, 1])
    assert contraction(f, mask_of([0])) == mask_of([0, 2])
    assert contraction(f, mask_of([0, 1])) == full_mask(4)
    assert extension(f, mask_of([0, 2])) == mask_of([0])
    assert extension(f, full_mask(4)) == mask_of([0, 1])


def test_quotient_by_middle_ideal(z4_radical, z2_trivial):
    q = quotient(z4_radical, mask_of([0, 2]))
    assert q.brace.order == 2
    assert is_isomorphic(q.brace, z2_trivial) is not None
    assert kernel(q.projection) == mask_of([0, 2])
    assert is_surjective(q.projection)
    # representatives: one per coset, identity first
    assert q.reps[0] == 0
    assert len(q.reps) == 2
    assert all(q.coset_of[a] == q.coset_of[q.base.add[a][2]] for a in range(4))


def test_quotient_by_zero_and_whole(s3_almost, zero_brace):
    q0 = quotient(s3_almost, mask_of([0]))
    assert q0.brace.order == 6
    assert is_isomorphic(q0.brace, s3_almost) is not None
    qa = quotient(s3_almost, full_mask(6))
    assert qa.brace.order == 1
    assert qa.brace == zero_brace


def test_quotient_rejects_non_ideal(z4_radical, s3_trivial):
    with pytest.raises(NotAnIdealError):
        quotient(z4_radical, mask_of([0, 1]))
    # subgroup that is not normal
    with pytest.raises(NotAnIdealError):
        quotient(s3_trivial, mask_of([0, 1]))


def test_quotient_projection_order_identity(catalog6):
    # |A/I| * |I| = |A| across the whole catalog, and every quotient is a
    # brace, as the coset tables of an ideal must be
    from sbspec.braces import SkewBrace, validate

    for rec in catalog6:
        brace = SkewBrace(rec.add, rec.mul)
        for ideal in all_ideals(brace):
            q = quotient(brace, ideal)
            assert q.brace.order * popcount(ideal) == brace.order
            assert validate(q.brace.add, q.brace.mul) == q.brace


def test_every_quotient_projection_passes_validate_hom(catalog6, suite12_braces):
    # quotient builds its projection as a Hom without validate_hom: once
    # is_ideal holds, the coset map is a homomorphism by theory
    from sbspec.braces import SkewBrace

    braces = [SkewBrace(rec.add, rec.mul) for rec in catalog6] + suite12_braces
    checked = 0
    for brace in braces:
        for f in quotient_projections(brace):
            assert validate_hom(f.source, f.target, f.mapping) == f
            checked += 1
    assert checked == sum(len(ideal_lattice(b).members) for b in braces)


def test_ideal_correspondence(z4_radical, v4_trivial):
    q = quotient(z4_radical, mask_of([0, 2]))
    rep = ideal_correspondence(q)
    assert rep.bijective
    assert rep.over_count == 2 and rep.quotient_count == 2

    # quotient by a minimal ideal of the Klein brace: ideals above it
    # are itself and the whole, and Z2 has exactly two ideals
    q = quotient(v4_trivial, mask_of([0, 1]))
    rep = ideal_correspondence(q)
    assert rep.bijective
    assert rep.over_count == 2


def test_endomorphism_counts(z2_trivial, z3_trivial, z4_trivial, z4_radical, v4_trivial):
    assert len(endomorphisms(z2_trivial)) == 2
    assert len(endomorphisms(z3_trivial)) == 3
    assert len(endomorphisms(z4_trivial)) == 4
    assert len(endomorphisms(z4_radical)) == 4
    assert len(endomorphisms(v4_trivial)) == 16


def endomorphism_loop(brace):
    """Oracle: every map fixing 0 that preserves both tables, over all n^(n-1)."""
    n = brace.order
    add, mul = brace.add, brace.mul
    return tuple(
        m
        for tail in itertools.product(range(n), repeat=n - 1)
        for m in [(0, *tail)]
        if all(
            m[add[a][b]] == add[m[a]][m[b]] and m[mul[a][b]] == mul[m[a]][m[b]]
            for a in range(n)
            for b in range(n)
        )
    )


@pytest.mark.parametrize("n", range(1, 5))
def test_endomorphisms_match_the_map_sweep(n):
    for brace in enumerate_braces(n):
        found = endomorphisms(brace)
        assert tuple(f.mapping for f in found) == endomorphism_loop(brace)
        assert all(f.source == brace == f.target for f in found)


def test_quotient_projections_enumeration(z4_radical, v4_trivial):
    projs = quotient_projections(z4_radical)
    assert len(projs) == 3
    assert sorted(p.target.order for p in projs) == [1, 2, 4]
    assert len(quotient_projections(v4_trivial)) == 5


def _adjunction_witness(f):
    """A source ideal I and target ideal J with e(I) ⊆ J but not I ⊆ c(J),
    or the converse; None when extension and contraction are adjoint."""
    targets = ideal_lattice(f.target).members
    return next(
        (
            (i, j)
            for i in all_ideals(f.source)
            for j in targets
            if is_subset(extension(f, i), j) != is_subset(i, contraction(f, j))
        ),
        None,
    )


def test_ext_cont_reports(z4_radical, s3_almost, z2_trivial):
    # e(I) ⊆ J ⇔ I ⊆ c(J) holds for every homomorphism, since e(I) is
    # the least ideal over f(I); the suite row states it, this checks it
    homs = []
    for brace in (z4_radical, s3_almost):
        homs.extend(quotient_projections(brace))
    homs.append(validate_hom(z2_trivial, z4_radical, [0, 2]))
    for f in homs:
        assert _adjunction_witness(f) is None


def test_spec_map_on_projection(z4_radical):
    q = quotient(z4_radical, mask_of([0, 2]))
    rep = induced_spec_map(q.projection)
    assert rep.kind == "star"
    # both spectra are empty: the pullback is the empty map and every
    # per-point certificate is flagged vacuous rather than asserted
    assert rep.point_map == ()
    assert rep.points_vacuous
    assert rep.contractions_prime
    assert rep.continuity_exact is True
    assert rep.injectivity_certificate is True
    # surjective: the (empty) image is the hull of the kernel
    assert rep.kernel_hull is True
    # density: the empty image is dense iff the kernel sits inside the
    # nil radical; here Nil(A) is the whole brace, so both sides hold
    assert rep.kernel_in_nil
    assert rep.density is True
    assert rep.density_matches_kernel is True
    assert rep.density_vacuous


def test_spec_map_on_embedding(z2_trivial, z4_radical):
    f = validate_hom(z2_trivial, z4_radical, [0, 2])
    rep = induced_spec_map(f)
    assert rep.points_vacuous
    assert rep.kernel_hull is None
    assert rep.kernel_in_nil  # kernel is {0}
    assert rep.density_matches_kernel is True


def test_spec_map_names_a_contraction_that_is_no_point(z2_trivial, b_brace, monkeypatch):
    # Z2 onto the order-2 element 11 of B: the point {0} of B pulls back
    # to {0} of trivial Z2, which is not prime, as Z2·Z2 = {0}; is_prime
    # names the pair.  On the projections of B x B every contraction is a
    # point of the source space, so is_prime never runs.
    f = validate_hom(z2_trivial, b_brace, [0, 11])
    for kind in ("star", "ksv", "huq"):
        rep = induced_spec_map(f, kind)
        assert not rep.contractions_prime
        assert rep.continuity_exact is None
        assert rep.witness == ("contraction-not-prime", 1, 1, ("ideals", 3, 3))
    monkeypatch.setattr(morphisms, "is_prime", None)
    points = 0
    for f in quotient_projections(direct_product(b_brace, b_brace)):
        for kind in ("star", "ksv", "huq"):
            rep = induced_spec_map(f, kind)
            assert rep.contractions_prime
            points += len(rep.point_map)
    assert points


def test_spec_map_of_the_zero_map_is_reported(b_brace):
    # the zero map B -> B: the point {0} of B holds the image, so it
    # contracts to all of B, which is not proper.  The report names the
    # pair; is_prime, defined for proper ideals only, is not asked
    top = full_mask(b_brace.order)
    for kind in ("star", "ksv", "huq"):
        rep = induced_spec_map(zero_hom(b_brace, b_brace), kind)
        assert rep.point_map == ((1, top),)
        assert not rep.contractions_prime and not rep.points_vacuous
        assert rep.witness == ("contraction-not-prime", 1, top, "not proper")
        assert rep.continuity_exact is None and rep.injectivity_certificate is None


def test_spec_maps_close_extensions_only_at_points(b_brace, monkeypatch):
    # every certificate quantifies over the target's points.  A fresh
    # trivial Z2^4 (a relabelling no other test builds) has an empty star
    # spectrum, and so has each quotient, the targets of its maps: the
    # five spec-map rows close no extension and stay vacuous.  B x B has
    # two points: the rows close extensions, and continuity passes on them
    calls = []
    extension = morphisms.extension
    monkeypatch.setattr(
        morphisms, "extension", lambda f, i: calls.append(i) or extension(f, i)
    )
    v4 = product_table(cyclic_table(2), cyclic_table(2))
    brace = relabel(trivial_brace(product_table(v4, v4)), (0, *range(3, 16), 1, 2))
    assert _spec_maps(brace) == [(True, True, "")] * 5
    assert calls == []
    assert _spec_maps(direct_product(b_brace, b_brace))[0] == (True, False, "")
    assert calls


def test_spec_map_all_kinds(z4_radical):
    for kind in ("star", "ksv", "huq"):
        rep = induced_spec_map(identity_hom(z4_radical), kind)
        assert rep.kind == kind
        assert rep.continuity_exact is True


def test_nil_quotient(z4_radical, s3_almost, v4_trivial):
    for brace in (z4_radical, s3_almost, v4_trivial):
        rep = nil_quotient_homeo(brace)
        assert rep.nil == nil_radical(brace)
        assert rep.nil == full_mask(brace.order)
        assert rep.homeomorphic
        assert rep.vacuous


@pytest.mark.parametrize(
    "fixture, kinds",
    [("a5_trivial", ("huq",)), ("a5_almost", ("star", "ksv", "huq"))],
    ids=["a5-trivial-huq", "a5-almost-star-ksv-huq"],
)
def test_spec_map_certificates_on_a5(request, fixture, kinds):
    # Spec A5 = {0} for these kinds, so the certificates quantify over a
    # real point: the projection by {0} maps it onto itself, the one by
    # A5 has an empty image that must equal the (empty) hull of A5
    brace = request.getfixturevalue(fixture)
    for kind in kinds:
        assert spectrum(brace, kind).primes == (1,)
        projections = quotient_projections(brace)
        assert len(projections) == 2
        points_seen = False
        nonempty_seen = 0
        for f in projections:
            rep = induced_spec_map(f, kind)
            assert rep.contractions_prime, rep.witness
            assert rep.kernel_hull is True, rep.witness
            assert rep.continuity_exact is True
            assert rep.density_matches_kernel is True
            assert rep.density is (kernel(f) == 1)
            assert not rep.density_vacuous
            points_seen = points_seen or not rep.points_vacuous
            # the restriction square's vacuity rule against the spectra of
            # the quotients themselves: some A'/e(I) has a prime exactly
            # when A' has one
            built = [
                bool(spectrum(quotient(f.target, extension(f, ideal)).brace, kind).primes)
                for ideal in ideal_lattice(brace).members
            ]
            assert any(built) == bool(spectrum(f.target, kind).primes), built
            nonempty_seen += sum(built)
        assert points_seen
        assert nonempty_seen >= 1
        nq = nil_quotient_homeo(brace, kind)
        assert nq.nil == 1
        assert nq.homeomorphic and not nq.vacuous


def test_hom_roundtrip_through_quotient_tower(s3_almost):
    # compose two projections: S3 -> S3/A3 -> (S3/A3)/whole
    q1 = quotient(s3_almost, mask_of([0, 3, 4]))
    assert q1.brace.order == 2
    q2 = quotient(q1.brace, full_mask(2))
    tower = compose(q2.projection, q1.projection)
    assert kernel(tower) == full_mask(6)
    assert is_surjective(tower)
    assert _adjunction_witness(tower) is None


def test_direct_checks_against_trivial_z2(z2_trivial):
    # endomorphisms of the two-element brace: identity and zero
    maps = sorted(f.mapping for f in endomorphisms(z2_trivial))
    assert maps == [(0, 0), (0, 1)]
