"""Spaces with two and more points, from real braces: B x B, B x B' and
products of their ideal lattices.

B and B' are the two classes of braces on A4 whose only ideals are {0}
and A (conftest).  {0} is prime in each under every kind, so each
product has four ideals and a spectrum of two points per kind: the
first suite inputs whose topology rows quantify over more than one
point.  The per-kind entries and the spectral entry read only a space,
so they also run on products of two, three and four copies of the
ideal lattices of B and B' (test_topology.ProductLattice), with 2, 3
and 4 points, without building a brace of order 1728.
"""

import hashlib
from functools import reduce

import pytest

from sbspec import morphisms
from sbspec.bitsets import bits, is_subset, mask_of
from sbspec.braces import direct_product, is_isomorphic
from sbspec.enumeration import _twist_braces
from sbspec.ideals import ideal_lattice
from sbspec.morphisms import induced_spec_map, nil_quotient_homeo, quotient, quotient_projections
from sbspec.spectra import PRIME_KINDS, kind_product, product_kind, spectrum
from sbspec.suite import _KIND_CHECKS, _run, _spec_maps, _spectral, run_brace_suite
from sbspec.topology import HullKernelSpace, spec_topology
from test_topology import ProductLattice

# the per-kind entries that compute their verdict; the rest are literal
COMPUTED = [entry for entry in _KIND_CHECKS if entry[1].__name__ != "<lambda>"]
SPECTRAL_ROWS = ("spectral-space-spec", "closed-axioms-lattice", "spectral-space-idl")

# sha256 of the reprs, one per line, of induced_spec_map on every
# projection of B x B and then of B x B', per kind, each kind followed by
# nil_quotient_homeo: 30 reports whose certificates read real points
SPEC_MAP_REPORTS_SHA256 = "d5682836eba7f2f0caa729f8819c5aaf9ff9b30c283add7042d6816553136c8b"


def space_rows(hk, kind):
    """{check: (verdict, detail)} of every computed per-kind entry that
    runs for kind, then of the spectral entry, on one space."""
    out = []
    for names, check, kinds in COMPUTED:
        if kind in kinds:
            named = [name.format(kind=kind) for name in names]
            _run(out, "space", named, lambda: check(lambda: hk))
    _run(out, "space", SPECTRAL_ROWS, lambda: _spectral(lambda: hk))
    return {r.check: (r.verdict, r.detail) for r in out}


def failed(hk):
    """The star rows of space_rows that fail on one space, sorted."""
    return sorted(name for name, (v, _) in space_rows(hk, "star").items() if v == "fail")


def product_space(braces, kind):
    """The hull-kernel space of one kind on the product of the braces'
    ideal lattices, with every member prime for the kind's product."""
    lat = reduce(ProductLattice, [ideal_lattice(b) for b in braces])
    return HullKernelSpace(lat, lat.primes(kind_product(lat, kind)), product_kind(kind))


def test_b_and_b_prime_are_the_simple_twist_classes_of_a4(b_brace, b_prime_brace):
    simple = [b for b in _twist_braces(b_brace.add) if len(ideal_lattice(b)) == 2]
    assert len(simple) == 24
    assert is_isomorphic(b_brace, b_prime_brace) is None
    assert all(
        (is_isomorphic(b, b_brace) is None) != (is_isomorphic(b, b_prime_brace) is None)
        for b in simple
    )
    for brace in (b_brace, b_prime_brace):
        assert ideal_lattice(brace).members == (1, ideal_lattice(brace).top)
        assert all(spectrum(brace, kind).primes == (1,) for kind in PRIME_KINDS)
        assert [spec_topology(brace, kind).n_points for kind in PRIME_KINDS] == [1, 1, 1]


# every row of run_brace_suite on B x B and on B x B', details included:
# the first pinned row set on spaces with two points
PRODUCT_ROWS = [
    ("brace-axioms", "pass", ""),
    ("lambda-maps", "pass", ""),
    ("ideal-criteria", "pass", "ideals=4"),
    ("multiplicative-lattice", "pass", "join_distributive=True"),
    ("generated-ideal-routes", "pass", ""),
    ("star-chain", "pass", ""),
    ("principal-prime-criterion-star", "pass", "primes=2 principal=3"),
    ("principal-prime-criterion-huq", "pass", "primes=2 principal=3"),
    *(
        row
        for kind in PRIME_KINDS
        for row in (
            (f"radical-laws-{kind}", "pass", ""),
            (f"closed-axioms-{kind}", "pass", ""),
            (f"galois-{kind}", "pass", "holds for every hull-kernel space"),
            (f"t0-specialization-{kind}", "pass", "points=2"),
            *(
                [("t1-iff-spec-equals-max", "pass", "t1=True spec_equals_max=True")]
                if kind == "star"
                else []
            ),
            (f"irreducibles-are-hulls-{kind}", "pass", ""),
            (f"generic-points-unique-{kind}", "pass", ""),
            (f"components-minimal-primes-{kind}", "pass", ""),
            (f"irreducible-iff-nil-prime-{kind}", "pass", "irreducible=False nil_prime=False"),
            (f"noetherian-compact-{kind}", "pass", "chain=3 points=2"),
        )
    ),
    ("maximal-prime-criterion", "pass", "maximal=2 square_closures_agree=True"),
    ("spectral-space-spec", "pass", "t0=True sober=True"),
    ("closed-axioms-lattice", "pass", ""),
    ("spectral-space-idl", "pass", "points=2"),
    ("hom-kernel-image", "pass", "homs=4"),
    ("quotient-construction", "pass", ""),
    ("ideal-correspondence", "pass", ""),
    ("star-image-exact", "pass", "holds for every homomorphism"),
    ("extension-contraction-galois", "pass", "holds for every homomorphism"),
    ("spec-map-continuity", "pass", ""),
    ("spec-map-surjectivity", "pass", ""),
    ("spec-map-injectivity", "pass", ""),
    ("spec-map-kernel-hull", "pass", ""),
    ("spec-map-density", "pass", ""),
    ("nil-quotient-homeomorphic", "pass", ""),
    ("restriction-square", "pass", "squares=16"),
]


@pytest.mark.parametrize("right", ["b_brace", "b_prime_brace"])
def test_products_have_two_points_and_pass_every_row(b_brace, right, request):
    brace = direct_product(b_brace, request.getfixturevalue(right))
    assert len(ideal_lattice(brace)) == 4
    assert [spec_topology(brace, kind).n_points for kind in PRIME_KINDS] == [2, 2, 2]
    rows = run_brace_suite(f"b x {right}", brace)
    assert len(PRODUCT_ROWS) == 52
    assert [(r.check, r.verdict, r.detail) for r in rows] == PRODUCT_ROWS


def test_product_lattice_matches_the_product_brace(b_brace):
    # (I, J) -> I x J, with the pair (a, b) at a*|B| + b in direct_product
    n = b_brace.order
    prod = ProductLattice(ideal_lattice(b_brace), ideal_lattice(b_brace))
    lat = ideal_lattice(direct_product(b_brace, b_brace))

    def pair(m):
        x, y = m & prod.left.top, m >> prod.shift
        return mask_of(a * n + b for a in bits(x) for b in bits(y))

    assert sorted(map(pair, prod.members)) == list(lat.members)
    for x in prod.members:
        for y in prod.members:
            assert is_subset(x, y) == is_subset(pair(x), pair(y))
            assert pair(prod.star(x, y)) == lat.star(pair(x), pair(y))


def test_three_factors_have_three_points(b_brace):
    # B x B x B, order 1728: its lattice is the product of three copies of
    # B's lattice, in members, inclusion and star table, and each kind's
    # spectrum has one point per factor
    n = b_brace.order
    brace = direct_product(direct_product(b_brace, b_brace), b_brace)
    lat = ideal_lattice(brace)
    assert len(lat) == 8
    assert [spec_topology(brace, kind).n_points for kind in PRIME_KINDS] == [3, 3, 3]
    assert "lam" not in vars(brace) and "star" not in vars(brace)

    b = ideal_lattice(b_brace)
    prod = ProductLattice(ProductLattice(b, b), b)
    low, shift = prod.left.left.top, prod.left.shift

    def triple(m):
        # (x, y, z) -> x x y x z, the triple (a, b, c) at (a*|B| + b)*|B| + c
        x, y, z = m & low, m >> shift & low, m >> prod.shift
        return mask_of((a * n + b) * n + c for a in bits(x) for b in bits(y) for c in bits(z))

    assert set(map(triple, prod.members)) == set(lat.members)
    for x in prod.members:
        for y in prod.members:
            assert is_subset(x, y) == is_subset(triple(x), triple(y))
            assert triple(prod.star(x, y)) == lat.star(triple(x), triple(y))


@pytest.mark.parametrize("kind", PRIME_KINDS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_rows_pass_on_product_spaces(b_brace, b_prime_brace, k, kind):
    braces = [b_brace, b_prime_brace, b_prime_brace, b_brace][:k]
    hk = product_space(braces, kind)
    assert len(hk.lat.members) == 2**k
    # Spec(L1 x L2) = Spec L1 ⊔ Spec L2: a prime is a prime of one factor
    # with every other factor at its top, since (top, bottom)·(bottom, top)
    # is the bottom
    expected, offset = set(), 0
    for brace in braces:
        top = ideal_lattice(brace).top
        rest = hk.lat.top & ~(top << offset)
        expected |= {rest | p << offset for p in spectrum(brace, kind).primes}
        offset += brace.order
    assert set(hk.points) == expected
    assert hk.n_points == k

    rows = space_rows(hk, kind)
    assert {verdict for verdict, _ in rows.values()} == {"pass"}
    for name in ("t0-specialization", "generic-points-unique", "components-minimal-primes"):
        assert rows[f"{name}-{kind}"][0] == "pass"
    assert rows[f"t0-specialization-{kind}"][1] == f"points={k}"
    assert rows[f"noetherian-compact-{kind}"][1] == f"chain={k + 1} points={k}"


def test_breaks_fail_their_rows_on_a_two_point_space(b_brace):
    hk = product_space([b_brace, b_brace], "star")
    lat = hk.lat
    assert hk.n_points == 2 and failed(hk) == []

    # pseudo-points: every proper member, the bottom (not prime) included;
    # the hull family is then not a topology, so the spectral rows fail too
    pseudo = HullKernelSpace(lat, lat.members[:-1], "star")
    assert failed(pseudo) == sorted([
        "closed-axioms-star",
        "irreducible-iff-nil-prime-star",
        "noetherian-compact-star",
        *SPECTRAL_ROWS,
    ])

    # the wrong product: a constant bottom, which no point is prime for
    wrong = HullKernelSpace(lat, hk.points, "zero")
    assert failed(wrong) == ["closed-axioms-lattice", "closed-axioms-star"]

    # a missing point: Spec is one of the two maximal ideals, yet T1
    for kept in hk.points:
        missing = HullKernelSpace(lat, [kept], "star")
        assert failed(missing) == ["t1-iff-spec-equals-max"]


def test_a_broken_extension_map_fails_spec_map_continuity(b_brace, monkeypatch):
    # the projection of B x B onto B x B / ({0} x B), a copy of B, with
    # the extension of {0} x B read as the whole quotient instead of {0}:
    # the continuity certificate turns false, and the row fails on the
    # 2-point space of B x B
    brace = direct_product(b_brace, b_brace)
    right = mask_of(range(b_brace.order))  # the pairs (0, b)
    f = quotient(brace, right).projection
    assert spec_topology(brace, "star").n_points == 2
    assert morphisms.extension(f, right) == 1 and induced_spec_map(f).continuity_exact is True
    assert _spec_maps(brace)[0] == (True, False, "")

    extension, top = morphisms.extension, ideal_lattice(f.target).top
    monkeypatch.setattr(
        morphisms, "extension", lambda g, i: top if g is f and i == right else extension(g, i)
    )
    rep = induced_spec_map(f)
    assert rep.continuity_exact is False and rep.witness[:2] == ("continuity", right)
    ok, vacuous, detail = _spec_maps(brace)[0]
    assert not ok and not vacuous and detail.startswith("('continuity', ")


def test_spec_map_reports_on_the_products_pinned(b_brace, b_prime_brace):
    # the injectivity premise is read at each point as e(c(q)) = q, and
    # continuity closes e(I) only when the target has points: these maps
    # have them, so the pin covers both on real points
    lines = []
    for brace in (direct_product(b_brace, b_brace), direct_product(b_brace, b_prime_brace)):
        for kind in PRIME_KINDS:
            lines += [repr(induced_spec_map(f, kind)) for f in quotient_projections(brace)]
            lines.append(repr(nil_quotient_homeo(brace, kind)))
    assert len(lines) == 30
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SPEC_MAP_REPORTS_SHA256
