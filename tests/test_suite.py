"""Catalog records and the property-suite verdict machinery."""

import dataclasses
import hashlib
import itertools

import pytest
from brace_oracles import lam_table, star_positions, with_star_table

from sbspec import braces, groups, ideals, spectra, suite, topology
from sbspec.bitsets import is_subset, popcount
from sbspec.braces import direct_product, trivial_brace, validate
from sbspec.catalog import (
    build_record,
    catalog_lines,
    read_catalog,
    record_from_dict,
    record_to_dict,
    verify_record,
    write_catalog,
)
from sbspec.errors import ConsistencyError, ParseError
from sbspec.groups import (
    CANONICAL_BOUND,
    cyclic_table,
    klein_table,
    product_table,
)
from sbspec.ideals import IdealCheck, generated_ideal, ideal_lattice
from sbspec.morphisms import quotient
from sbspec.spectra import spectrum
from sbspec.suite import (
    SuiteResult,
    failures,
    run_brace_suite,
    run_catalog_checks,
    run_records,
    summarize,
)
from sbspec.topology import lattice_spectrum, spec_topology


def test_generate_catalog_shape(catalog4):
    assert [rec.brace_id for rec in catalog4] == [
        "1-0",
        "2-0",
        "3-0",
        "4-0",
        "4-1",
        "4-2",
        "4-3",
    ]
    for rec in catalog4:
        assert rec.order == len(rec.add) == len(rec.mul)
        assert rec.ideal_count >= 2 or rec.order == 1
        assert verify_record(rec) == []


def test_catalog_of_six_has_fourteen(catalog6):
    assert len(catalog6) == 14
    assert [rec.brace_id for rec in catalog6][-6:] == [
        "6-0",
        "6-1",
        "6-2",
        "6-3",
        "6-4",
        "6-5",
    ]
    # all spectra empty across the catalog, under every definition
    for rec in catalog6:
        assert dict(rec.spec_sizes) == {"star": 0, "ksv": 0, "huq": 0}
        assert rec.lattice_spec_size == 0
        assert rec.spec_spectral and rec.idl_spectral
        assert rec.t0 and rec.t1
        assert rec.components == 0


def test_record_roundtrip(catalog4):
    for rec in catalog4:
        assert record_from_dict(record_to_dict(rec)) == rec


def test_record_from_dict_structural_only(catalog4):
    doc = record_to_dict(catalog4[3])
    doc["ideal_count"] = 77
    # parses fine: summary fields are only verified later
    rec = record_from_dict(doc)
    assert rec.ideal_count == 77
    assert "ideal_count" in verify_record(rec)


def test_record_from_dict_rejects_junk(catalog4):
    good = record_to_dict(catalog4[0])
    with pytest.raises(ParseError):
        record_from_dict([])
    for field in ("id", "order", "add", "mul", "weights", "spec_sizes"):
        doc = dict(good)
        del doc[field]
        with pytest.raises(ParseError):
            record_from_dict(doc)
    doc = dict(good)
    doc["t0"] = 1
    with pytest.raises(ParseError):
        record_from_dict(doc)
    doc = dict(good)
    doc["weights"] = [True]
    with pytest.raises(ParseError):
        record_from_dict(doc)
    for bad in ("abc", None, True, 1.0):
        doc = dict(good, spec_sizes={**good["spec_sizes"], "star": bad})
        with pytest.raises(ParseError, match="spec_sizes"):
            record_from_dict(doc)
    # orders outside 1..CANONICAL_BOUND, where no fingerprint is recomputed
    for order in (0, CANONICAL_BOUND + 1):
        table = [[(a + b) % order for b in range(order)] for a in range(order)]
        doc = dict(good, order=order, add=table, mul=table)
        with pytest.raises(ParseError, match=rf"1\.\.{CANONICAL_BOUND}, got {order}"):
            record_from_dict(doc)


def test_catalog_file_roundtrip(tmp_path, catalog4):
    path = tmp_path / "cat.jsonl"
    write_catalog(catalog4, str(path))
    assert read_catalog(str(path)) == catalog4
    assert catalog_lines(catalog4) == path.read_text()


def test_read_catalog_reports_line_numbers(tmp_path, catalog4):
    path = tmp_path / "cat.jsonl"
    lines = catalog_lines(catalog4).strip().split("\n")
    lines[2] = "{broken"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_catalog(str(path))
    assert ":3" in str(err.value)


def test_build_record_consistency(z4_radical, catalog4):
    rec = build_record("4-x", z4_radical)
    assert rec.order == 4
    assert rec.ideal_count == 3
    assert rec.weights == (1, 1, 1)
    assert dict(rec.spec_sizes) == {"star": 0, "ksv": 0, "huq": 0}
    # the same brace appears in the catalog under its canonical labels
    twin = [r for r in catalog4 if r.add_group != r.mul_group and r.order == 4]
    assert len(twin) == 2


def test_run_brace_suite_clean(z4_radical):
    rows = run_brace_suite("z4r", z4_radical)
    assert failures(rows) == []
    checks = {r.check for r in rows}
    assert "brace-axioms" in checks
    assert "galois-star" in checks
    assert "spec-map-continuity" in checks
    assert "restriction-square" in checks
    by_check = {r.check: r for r in rows}
    assert by_check["t1-iff-spec-equals-max"].verdict == "vacuous"
    assert "square inside some maximal ideal" in by_check["t1-iff-spec-equals-max"].detail
    row = by_check["principal-prime-criterion-star"]
    assert (row.verdict, row.detail) == ("pass", "primes=0 principal=2")
    assert by_check["maximal-prime-criterion"].verdict == "pass"


def _kind_checks(kind):
    return [
        f"radical-laws-{kind}",
        f"closed-axioms-{kind}",
        f"galois-{kind}",
        f"t0-specialization-{kind}",
        *(["t1-iff-spec-equals-max"] if kind == "star" else []),
        f"irreducibles-are-hulls-{kind}",
        f"generic-points-unique-{kind}",
        f"components-minimal-primes-{kind}",
        f"irreducible-iff-nil-prime-{kind}",
        f"noetherian-compact-{kind}",
    ]


SUITE_CHECKS = [
    "brace-axioms",
    "lambda-maps",
    "ideal-criteria",
    "multiplicative-lattice",
    "generated-ideal-routes",
    "star-chain",
    "principal-prime-criterion-star",
    "principal-prime-criterion-huq",
    *_kind_checks("star"),
    *_kind_checks("ksv"),
    *_kind_checks("huq"),
    "maximal-prime-criterion",
    "spectral-space-spec",
    "closed-axioms-lattice",
    "spectral-space-idl",
    "hom-kernel-image",
    "quotient-construction",
    "ideal-correspondence",
    "star-image-exact",
    "extension-contraction-galois",
    "spec-map-continuity",
    "spec-map-surjectivity",
    "spec-map-injectivity",
    "spec-map-kernel-hull",
    "spec-map-density",
    "nil-quotient-homeomorphic",
    "restriction-square",
]


def test_suite_check_names_pinned(z4_radical):
    # catalog and benchmark gates count these rows per brace
    assert len(SUITE_CHECKS) == 52
    rows = run_brace_suite("z4r", z4_radical)
    assert [r.check for r in rows] == SUITE_CHECKS


# (check, pass, fail, vacuous) over run_records(generate_catalog(6)).
# Several rows hold by construction and carry only their vacuity rule
# (galois-*, radical-laws-*, t0-specialization-*, hom-kernel-image,
# star-image-exact, spec-map-surjectivity, restriction-square), so the
# counts are what would move if one of those rules changed.
CATALOG6_VERDICTS = [
    ('record-integrity', 14, 0, 0),
    ('brace-axioms', 14, 0, 0),
    ('lambda-maps', 14, 0, 0),
    ('ideal-criteria', 14, 0, 0),
    ('multiplicative-lattice', 14, 0, 0),
    ('generated-ideal-routes', 14, 0, 0),
    ('star-chain', 14, 0, 0),
    ('principal-prime-criterion-star', 13, 0, 1),
    ('principal-prime-criterion-huq', 13, 0, 1),
    ('radical-laws-star', 14, 0, 0),
    ('closed-axioms-star', 14, 0, 0),
    ('galois-star', 14, 0, 0),
    ('t0-specialization-star', 0, 0, 14),
    ('t1-iff-spec-equals-max', 1, 0, 13),
    ('irreducibles-are-hulls-star', 14, 0, 0),
    ('generic-points-unique-star', 0, 0, 14),
    ('components-minimal-primes-star', 0, 0, 14),
    ('irreducible-iff-nil-prime-star', 14, 0, 0),
    ('noetherian-compact-star', 14, 0, 0),
    ('radical-laws-ksv', 14, 0, 0),
    ('closed-axioms-ksv', 14, 0, 0),
    ('galois-ksv', 14, 0, 0),
    ('t0-specialization-ksv', 0, 0, 14),
    ('irreducibles-are-hulls-ksv', 14, 0, 0),
    ('generic-points-unique-ksv', 0, 0, 14),
    ('components-minimal-primes-ksv', 0, 0, 14),
    ('irreducible-iff-nil-prime-ksv', 14, 0, 0),
    ('noetherian-compact-ksv', 14, 0, 0),
    ('radical-laws-huq', 14, 0, 0),
    ('closed-axioms-huq', 14, 0, 0),
    ('galois-huq', 14, 0, 0),
    ('t0-specialization-huq', 0, 0, 14),
    ('irreducibles-are-hulls-huq', 14, 0, 0),
    ('generic-points-unique-huq', 0, 0, 14),
    ('components-minimal-primes-huq', 0, 0, 14),
    ('irreducible-iff-nil-prime-huq', 14, 0, 0),
    ('noetherian-compact-huq', 14, 0, 0),
    ('maximal-prime-criterion', 13, 0, 1),
    ('spectral-space-spec', 14, 0, 0),
    ('closed-axioms-lattice', 14, 0, 0),
    ('spectral-space-idl', 14, 0, 0),
    ('hom-kernel-image', 14, 0, 0),
    ('quotient-construction', 14, 0, 0),
    ('ideal-correspondence', 14, 0, 0),
    ('star-image-exact', 14, 0, 0),
    ('extension-contraction-galois', 14, 0, 0),
    ('spec-map-continuity', 0, 0, 14),
    ('spec-map-surjectivity', 0, 0, 14),
    ('spec-map-injectivity', 0, 0, 14),
    ('spec-map-kernel-hull', 0, 0, 14),
    ('spec-map-density', 0, 0, 14),
    ('nil-quotient-homeomorphic', 0, 0, 14),
    ('restriction-square', 0, 0, 14),
    ('enumeration-raw-agreement', 6, 0, 0),
    ('catalog-isomorphism-free', 6, 0, 0),
    ('catalog-matches-enumeration', 1, 0, 0),
    ('catalog-deterministic', 1, 0, 0),
]


def test_catalog6_verdict_table(catalog6):
    rows = run_records(catalog6)
    assert len(rows) == 756
    assert summarize(rows) == CATALOG6_VERDICTS


# sha256 of the catalog <=6 rows joined as brace_id|check|verdict|detail,
# one per line: a change that should leave every row as it was, detail
# included, keeps this digest
CATALOG6_ROWS_SHA256 = "5acd3a5cce271036cf1c67a1718cadf04a236c0063481c88c0c86b83b137bb79"


def test_catalog6_row_bytes_pinned(catalog6):
    joined = "\n".join(
        f"{r.brace_id}|{r.check}|{r.verdict}|{r.detail}" for r in run_records(catalog6)
    )
    assert hashlib.sha256(joined.encode()).hexdigest() == CATALOG6_ROWS_SHA256


# (check, pass, fail, vacuous) over run_brace_suite on trivial and
# almost-trivial S4 and A5, the braces with non-empty spectra: {0} is
# star, ksv and huq prime on almost-trivial A5 and huq prime on trivial
# A5, so the topology and morphism rows there are evidence, not vacuous.
LARGE_VERDICTS = [
    ('brace-axioms', 4, 0, 0),
    ('lambda-maps', 4, 0, 0),
    ('ideal-criteria', 4, 0, 0),
    ('multiplicative-lattice', 4, 0, 0),
    ('generated-ideal-routes', 4, 0, 0),
    ('star-chain', 4, 0, 0),
    ('principal-prime-criterion-star', 4, 0, 0),
    ('principal-prime-criterion-huq', 4, 0, 0),
    ('radical-laws-star', 4, 0, 0),
    ('closed-axioms-star', 4, 0, 0),
    ('galois-star', 4, 0, 0),
    ('t0-specialization-star', 0, 0, 4),
    ('t1-iff-spec-equals-max', 1, 0, 3),
    ('irreducibles-are-hulls-star', 4, 0, 0),
    ('generic-points-unique-star', 1, 0, 3),
    ('components-minimal-primes-star', 1, 0, 3),
    ('irreducible-iff-nil-prime-star', 4, 0, 0),
    ('noetherian-compact-star', 4, 0, 0),
    ('radical-laws-ksv', 4, 0, 0),
    ('closed-axioms-ksv', 4, 0, 0),
    ('galois-ksv', 4, 0, 0),
    ('t0-specialization-ksv', 0, 0, 4),
    ('irreducibles-are-hulls-ksv', 4, 0, 0),
    ('generic-points-unique-ksv', 1, 0, 3),
    ('components-minimal-primes-ksv', 1, 0, 3),
    ('irreducible-iff-nil-prime-ksv', 4, 0, 0),
    ('noetherian-compact-ksv', 4, 0, 0),
    ('radical-laws-huq', 4, 0, 0),
    ('closed-axioms-huq', 4, 0, 0),
    ('galois-huq', 4, 0, 0),
    ('t0-specialization-huq', 0, 0, 4),
    ('irreducibles-are-hulls-huq', 4, 0, 0),
    ('generic-points-unique-huq', 2, 0, 2),
    ('components-minimal-primes-huq', 2, 0, 2),
    ('irreducible-iff-nil-prime-huq', 4, 0, 0),
    ('noetherian-compact-huq', 4, 0, 0),
    ('maximal-prime-criterion', 4, 0, 0),
    ('spectral-space-spec', 4, 0, 0),
    ('closed-axioms-lattice', 4, 0, 0),
    ('spectral-space-idl', 4, 0, 0),
    ('hom-kernel-image', 4, 0, 0),
    ('quotient-construction', 4, 0, 0),
    ('ideal-correspondence', 4, 0, 0),
    ('star-image-exact', 4, 0, 0),
    ('extension-contraction-galois', 4, 0, 0),
    ('spec-map-continuity', 1, 0, 3),
    ('spec-map-surjectivity', 1, 0, 3),
    ('spec-map-injectivity', 1, 0, 3),
    ('spec-map-kernel-hull', 1, 0, 3),
    ('spec-map-density', 1, 0, 3),
    ('nil-quotient-homeomorphic', 1, 0, 3),
    ('restriction-square', 1, 0, 3),
]


def test_large_brace_verdict_table(s4_trivial, s4_almost, a5_trivial, a5_almost):
    rows = []
    for name, brace in (
        ("s4-trivial", s4_trivial),
        ("s4-almost", s4_almost),
        ("a5-trivial", a5_trivial),
        ("a5-almost", a5_almost),
    ):
        rows += run_brace_suite(name, brace)
    assert len(rows) == 208
    assert failures(rows) == []
    assert summarize(rows) == LARGE_VERDICTS


def _clear_lattice_caches():
    for fn in (ideal_lattice, spectrum, spec_topology, lattice_spectrum, quotient):
        fn.cache_clear()


def test_suite_builds_one_closed_axioms_report_per_space(
    z4_radical, a5_trivial, monkeypatch
):
    # star, ksv, the lattice row and spectral-space-spec read the one star
    # space and its report; huq reads its own: two reports per brace
    built = []
    real = topology.closed_axioms_report
    monkeypatch.setattr(
        topology, "closed_axioms_report", lambda hk: built.append(hk.kind) or real(hk)
    )
    _clear_lattice_caches()
    try:
        for brace in (z4_radical, a5_trivial):
            assert failures(run_brace_suite("b", brace)) == []
    finally:
        monkeypatch.undo()
        _clear_lattice_caches()
    assert built == ["star", "huq", "star", "huq"]


def test_lattice_missing_a_member_gives_fail_rows(s4_almost, monkeypatch):
    # drop the second-smallest principal ideal, V4, from the members: the
    # star product A4 * A4 = V4 then has no position in the lattice
    real = ideals.all_ideals(s4_almost)
    dropped = sorted(set(ideals.principal_ideals(s4_almost)))[1]
    assert popcount(dropped) == 4 and dropped in real
    monkeypatch.setattr(
        ideals, "all_ideals", lambda brace: tuple(m for m in real if m != dropped)
    )
    _clear_lattice_caches()
    try:
        with pytest.raises(ConsistencyError, match="star product"):
            ideals.IdealLattice(s4_almost)
        rows = run_brace_suite("s4-almost", s4_almost)
    finally:
        monkeypatch.undo()
        _clear_lattice_caches()
    # every row that reads the lattice fails by name, with the error as its
    # detail; only the rows that never build it keep their verdicts
    assert [r.check for r in rows] == SUITE_CHECKS
    kept = {r.check: r.verdict for r in rows if r.verdict != "fail"}
    assert kept == {
        "brace-axioms": "pass",
        "lambda-maps": "pass",
        **{f"radical-laws-{kind}": "pass" for kind in ("star", "ksv", "huq")},
        **{f"galois-{kind}": "pass" for kind in ("star", "ksv", "huq")},
        "star-image-exact": "pass",
        "extension-contraction-galois": "pass",
    }
    bad = failures(rows)
    assert len(bad) == 42
    assert all(r.detail.startswith("ConsistencyError: ") for r in bad)


def test_generated_routes_sample_past_4096_seeds(z4_radical):
    # the row is exhaustive with an empty detail at order 4, and at order
    # 13 with 2^13 seeds, since the one-element steps from the members
    # cover them all
    rows = run_brace_suite("z4r", z4_radical)
    assert {r.check: r for r in rows}["generated-ideal-routes"].detail == ""
    rows = run_brace_suite("z13", trivial_brace(cyclic_table(13)))
    assert failures(rows) == []
    row = {r.check: r for r in rows}["generated-ideal-routes"]
    assert (row.verdict, row.detail) == ("pass", "")


def test_suite_samples_past_4096_cases_at_67_ideals():
    # trivial Z2^4 has 67 ideals, so 67^3 triples and 67^2 pairs, yet no
    # row samples: distributivity runs on the join-generators and
    # star-chain on the principal ideal pairs, and neither names a scope
    brace = trivial_brace(product_table(klein_table(), klein_table()))
    assert len(ideal_lattice(brace)) == 67
    rows = run_brace_suite("z2^4", brace)
    assert len(rows) == 52
    assert failures(rows) == []
    by_check = {r.check: r.detail for r in rows}
    assert by_check["multiplicative-lattice"] == "join_distributive=True"
    assert by_check["star-chain"] == ""


def test_t0_row_needs_two_points(a5_trivial):
    # T0 holds in every hull-kernel space, so the row is a literal pass
    # whose only content is its vacuity rule: one point is not evidence
    row = {r.check: r for r in run_brace_suite("a5", a5_trivial)}["t0-specialization-huq"]
    assert (row.verdict, row.detail) == ("vacuous", "points=1")


def test_zero_brace_suite_vacuities(zero_brace):
    rows = run_brace_suite("1-0", zero_brace)
    assert failures(rows) == []
    by_check = {r.check: r for r in rows}
    # no maximal ideals at all in the one-element brace
    assert by_check["maximal-prime-criterion"].verdict == "vacuous"
    # the equivalence hypothesis holds vacuously, both sides are checked
    assert by_check["t1-iff-spec-equals-max"].verdict == "pass"


def test_principal_criterion_catches_a_wrong_spectrum(a5_almost, z4_radical, monkeypatch):
    # spectrum decides with a broken product: for huq every pair lands in
    # {0}, which drops {0}, the huq prime of almost-trivial A5; for star no
    # pair lands in a proper ideal, which makes every ideal of z4_radical
    # prime.  The principal route still has the true products, so each row
    # fails on the first ideal, naming the rejecting side's pair.
    monkeypatch.setattr(
        spectra,
        "kind_product",
        lambda lat, kind: (lambda x, y: 1) if kind == "huq" else (lambda x, y: lat.top),
    )
    _clear_lattice_caches()
    try:
        assert spectrum(a5_almost, "huq").primes == ()
        assert spectrum(z4_radical, "star").primes == (1, 5)
        a5 = {r.check: r for r in run_brace_suite("a5-almost", a5_almost)}
        z4 = {r.check: r for r in run_brace_suite("z4r", z4_radical)}
    finally:
        monkeypatch.undo()
        _clear_lattice_caches()
    whole = ideal_lattice(a5_almost).top
    row = a5["principal-prime-criterion-huq"]
    assert (row.verdict, row.detail) == ("fail", str((1, ("ideals", whole, whole))))
    row = z4["principal-prime-criterion-star"]
    assert (row.verdict, row.detail) == ("fail", str((1, ("principal", 5, 5))))


def test_principal_criterion_keeps_a_nonzero_prime(a5_trivial, z2_trivial):
    # {0} x Z2 is huq prime in trivial A5 x Z2: the principal ideal pairs
    # run over ideals outside P only.  The entry is called alone, since
    # the whole suite on this order-120 brace takes seconds.
    brace = direct_product(a5_trivial, z2_trivial)
    assert spectrum(brace, "huq").primes == (3,)
    assert suite._principal_criterion(brace) == [
        (True, False, ""),  # star-chain
        (True, False, "primes=0 principal=3"),
        (True, False, "primes=1 principal=3"),
    ]


def test_principal_criterion_checks_the_huq_table(a5_trivial, monkeypatch):
    # the huq spectrum reads the lattice's huq product on principal pairs,
    # and the huq row checks it by the element route: it passes on trivial
    # A5 with the prime {0}, and a product that squares A5 into {0} drops
    # that prime and fails it
    lat = ideal_lattice(a5_trivial)
    assert lat.principal == (lat.top,) and lat.huq(lat.top, lat.top) == lat.top
    verdicts = suite._principal_criterion(a5_trivial)
    assert verdicts[0] == (True, False, "")  # star-chain
    assert verdicts[2] == (True, False, "primes=1 principal=1")
    monkeypatch.setattr(lat, "huq", lambda x, y: lat.bottom)
    spectrum.cache_clear()
    try:
        verdict = suite._principal_criterion(a5_trivial)[2]
    finally:
        monkeypatch.undo()
        spectrum.cache_clear()
    assert verdict == (False, False, str((1, ("ideals", lat.top, lat.top))))


def test_ideal_criteria_names_a_member_that_is_no_ideal(z4_radical, monkeypatch):
    # ideal_check rejecting the member {0, 2} fails the row with its witness
    real = suite.ideal_check
    broken = IdealCheck(True, True, True, True, False, ("twist", 1, 2))
    monkeypatch.setattr(
        suite, "ideal_check", lambda brace, m: broken if m == 5 else real(brace, m)
    )
    assert suite._ideal_criteria(z4_radical) == [
        (False, False, "('not-ideal', 5, ('twist', 1, 2)); ideals=3")
    ]


def test_ideal_criteria_names_a_closure_outside_the_members(z4_radical, monkeypatch):
    # the ideal generated by {0} and 1 read as {0, 1}, which is no member
    real = suite.generated_ideal
    monkeypatch.setattr(
        suite, "generated_ideal", lambda brace, seed: 3 if seed == 3 else real(brace, seed)
    )
    assert suite._ideal_criteria(z4_radical) == [
        (False, False, "('closure', 1, 1); ideals=3")
    ]


def test_ideal_criteria_finds_a_missing_ideal(v4_trivial, monkeypatch):
    # with {0, 2} dropped the lattice still builds, since every join and
    # star product of the rest is a member; the closure from {0} by 2 is
    # the missing ideal, and the certificate names it
    real = ideals.all_ideals(v4_trivial)
    monkeypatch.setattr(ideals, "all_ideals", lambda brace: tuple(m for m in real if m != 5))
    _clear_lattice_caches()
    try:
        assert len(ideal_lattice(v4_trivial)) == 4
        verdict = suite._ideal_criteria(v4_trivial)
    finally:
        monkeypatch.undo()
        _clear_lattice_caches()
    assert verdict == [(False, False, "('closure', 1, 2); ideals=4")]


def test_a_principal_ideal_outside_the_members_is_named(v4_trivial, monkeypatch):
    # with the principal ideal {0, 2} dropped, every product of the rest is
    # a member, so the lattice builds; a row that hands {0, 2} to a product
    # or a join, and the weights, fail with a ConsistencyError naming it,
    # never a KeyError that would stop the suite
    real = ideals.all_ideals(v4_trivial)
    monkeypatch.setattr(ideals, "all_ideals", lambda brace: tuple(m for m in real if m != 5))
    _clear_lattice_caches()
    try:
        lat = ideal_lattice(v4_trivial)
        reads = (
            lambda: lat.star(5, lat.top),
            lambda: lat.huq(lat.top, 5),
            lambda: lat.join(5, lat.top),
            lambda: lat.weights,
        )
        for read in reads:
            with pytest.raises(ConsistencyError, match="ideal 0x5 is not a member"):
                read()
        rows = {r.check: r for r in run_brace_suite("v4", v4_trivial)}
    finally:
        monkeypatch.undo()
        _clear_lattice_caches()
    for check in ("star-chain", "principal-prime-criterion-star", "principal-prime-criterion-huq"):
        assert (rows[check].verdict, rows[check].detail) == (
            "fail",
            "ConsistencyError: ideal 0x5 is not a member",
        )


def test_a_missing_join_is_named(monkeypatch):
    # trivial Z2^3 with one 4-element subgroup H dropped: every principal
    # ideal and every star product ({0}) is still a member, so the lattice
    # builds, but the sum of two atoms of H is no member.  The join of
    # those atoms raises ConsistencyError naming both, ideal-criteria
    # finds the missing closure, and each row that reads a join fails
    # with the error instead of stopping the suite
    brace = trivial_brace(product_table(klein_table(), cyclic_table(2)))
    real, all_ideals = ideals.all_ideals(brace), ideals.all_ideals
    h = next(m for m in real if popcount(m) == 4)
    a, b, _ = [m for m in real if popcount(m) == 2 and is_subset(m, h)]
    monkeypatch.setattr(
        ideals,
        "all_ideals",
        lambda other: tuple(m for m in real if m != h) if other == brace else all_ideals(other),
    )
    _clear_lattice_caches()
    try:
        lat = ideal_lattice(brace)
        assert len(lat) == 15
        with pytest.raises(ConsistencyError, match=f"no member is the sum of {a:#x} and {b:#x}"):
            lat.join(a, b)
        rows = {r.check: r for r in run_brace_suite("z2^3", brace)}
    finally:
        monkeypatch.undo()
        _clear_lattice_caches()
    assert rows["ideal-criteria"].verdict == "fail"
    assert rows["ideal-criteria"].detail.startswith("('closure', ")
    join_rows = [
        "multiplicative-lattice",
        *(f"closed-axioms-{kind}" for kind in ("star", "ksv", "huq", "lattice")),
        "spectral-space-spec",
        "spectral-space-idl",
    ]
    for check in join_rows:
        assert (rows[check].verdict, rows[check].detail) == (
            "fail",
            f"ConsistencyError: no member is the sum of {a:#x} and {b:#x}",
        )


def test_a_missing_meet_is_named(monkeypatch):
    # trivial Z2^3 with one atom dropped: every join and star product of
    # the rest is a member, so the lattice builds, but the atom is the
    # meet of the planes that hold it.  The hull laws read every meet by
    # position, off the meet columns, and raise the error a meet raises,
    # naming the first two of those planes in member order
    brace = trivial_brace(product_table(klein_table(), cyclic_table(2)))
    real, all_ideals = ideals.all_ideals(brace), ideals.all_ideals
    atom = next(m for m in real if popcount(m) == 2)
    h1, h2, _ = [m for m in real if popcount(m) == 4 and is_subset(atom, m)]
    monkeypatch.setattr(
        ideals,
        "all_ideals",
        lambda other: tuple(m for m in real if m != atom) if other == brace else all_ideals(other),
    )
    error = f"meet {atom:#x} of {h1:#x} and {h2:#x} is not a member"
    _clear_lattice_caches()
    try:
        lat = ideal_lattice(brace)
        with pytest.raises(ConsistencyError, match=error):
            lat.meet(h1, h2)
        for h in (h1, h2):  # either column names the pair in member order
            with pytest.raises(ConsistencyError, match=error):
                lat._column("meet", lat.index[h], range(len(lat)))
        rows = {r.check: r for r in run_brace_suite("z2^3", brace)}
    finally:
        monkeypatch.undo()
        _clear_lattice_caches()
    for check in (
        *(f"closed-axioms-{kind}" for kind in ("star", "ksv", "huq", "lattice")),
        "spectral-space-spec",
    ):
        assert (rows[check].verdict, rows[check].detail) == ("fail", f"ConsistencyError: {error}")


@pytest.fixture(scope="module")
def a5_s3_almost(a5_almost, s3_almost):
    brace = direct_product(a5_almost, s3_almost)
    assert brace.order == 360
    return brace


def recorded_closures(monkeypatch) -> list:
    """The seeds of the suite's generated_ideal calls from here on."""
    calls = []
    monkeypatch.setattr(
        suite, "generated_ideal", lambda b, seed: calls.append(seed) or generated_ideal(b, seed)
    )
    return calls


def test_ideal_criteria_at_order_360(a5_s3_almost, monkeypatch):
    # 6 ideals at order 360: a member check exponential in the generators
    # would take minutes here, and one closure per (member, element) step
    # would be 1550; one per (member, class) step is a few dozen
    calls = recorded_closures(monkeypatch)
    assert suite._ideal_criteria(a5_s3_almost) == [(True, False, "ideals=6")]
    assert 0 < len(calls) <= 64


def test_generated_routes_at_order_360(a5_s3_almost, monkeypatch):
    # all 2^360 seeds, by a few dozen one-element closures
    calls = recorded_closures(monkeypatch)
    assert suite._generated_routes(a5_s3_almost) == [(True, False, "")]
    assert 0 < len(calls) <= 64


def test_closure_seeds_reach_the_ideals_of_every_element(catalog6, suite12_braces):
    # for every member M, the one-seed-per-class sweep closes to the same
    # ideals as the full sweep over every element, on catalog <= 6 and on
    # the six order 8-12 braces of the suite12 workload
    braces = [validate(r.add, r.mul) for r in catalog6] + suite12_braces
    for brace in braces:
        lat = ideal_lattice(brace)
        swept = {m: set() for m in lat.members}
        for m, a in suite._closure_seeds(brace, lat):
            swept[m].add(generated_ideal(brace, m | 1 << a))
        for m in lat.members:
            full = {generated_ideal(brace, m | 1 << a) for a in range(brace.order)}
            assert swept[m] == full, (brace, m)


def _chained_closure(brace, seed, steps, close=generated_ideal):
    """The ideal generated by seed and 0, folded from one-element closures.

    Start from I = {0} and take the seed's elements lowest first, skipping
    those already in I; each step is I -> close(I + {a}), read from steps,
    keyed by (I, a), when an earlier seed took it.  Each step clears a
    from the to-do mask with the result, so even a closure that leaves a
    out cannot loop.  Agreement with generated_ideal on every seed is
    ⟨S ∪ {a}⟩ = ⟨⟨S⟩ ∪ {a}⟩, the identity the generated-ideal-routes row
    extends from its seeds to all of them by.
    """
    ideal, todo = 1, seed & ~1
    while todo:
        a = (todo & -todo).bit_length() - 1
        key = (ideal, a)
        if key not in steps:
            steps[key] = close(brace, ideal | 1 << a)
        ideal = steps[key]
        todo &= ~(ideal | 1 << a)
    return ideal


def assert_chained_closures_match(brace):
    steps = {}
    for seed in range(1 << brace.order):
        assert _chained_closure(brace, seed, steps) == generated_ideal(brace, seed), seed


def test_chained_closure_matches_generated_ideal_on_catalog6(catalog6):
    # every seed of every brace of order <= 6, one step memo per brace
    for rec in catalog6:
        assert_chained_closures_match(validate(rec.add, rec.mul))


def test_chained_closure_matches_generated_ideal(z4_radical, s3_almost):
    for brace in (z4_radical, s3_almost):
        assert_chained_closures_match(brace)


def test_generated_routes_close_at_most_k_n_steps(a4_almost, monkeypatch):
    # one closure per (ideal, element) step, not one per seed
    for brace in (trivial_brace(product_table(klein_table(), cyclic_table(2))), a4_almost):
        calls = recorded_closures(monkeypatch)
        assert suite._generated_routes(brace) == [(True, False, "")]
        k, n = len(ideal_lattice(brace)), brace.order
        assert len(calls) == len(set(calls)) <= k * n


class CappedSteps(dict):
    """A step memo that fails the test past 100 reads instead of looping."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        assert self.reads < 100, "the fold does not terminate"
        return super().__getitem__(key)


def test_generated_routes_survive_a_closure_that_drops_its_new_element(
    z4_radical, monkeypatch
):
    # the closure leaves out the lowest nonzero element of its seed, which
    # is the new element on each seed's first step; in the fold, a to-do
    # mask cleared only by the result would revisit that element for ever,
    # and the row names the first seed whose closure misses the lattice
    real = suite.generated_ideal

    def dropping(brace, seed):
        rest = seed & ~1
        return real(brace, seed) & ~(rest & -rest)

    monkeypatch.setattr(suite, "generated_ideal", dropping)
    # seed {1}: the closure of {0, 1} is all of Z4, less the element 1
    assert _chained_closure(z4_radical, 2, CappedSteps(), dropping) == 0b1101
    assert suite._generated_routes(z4_radical) == [(False, False, "seed=2")]


def test_generated_routes_fail_on_a_closure_without_the_twist(catalog6, monkeypatch):
    # 4-1 (additive Klein four, multiplicative Z4): λ_2 swaps 2 and 3, so
    # closing under the two conjugations alone leaves {0, 2} λ-open, and
    # the fold misses the lattice at seed 4
    brace = next(validate(r.add, r.mul) for r in catalog6 if r.brace_id == "4-1")
    assert any(lam_a[x] != x for lam_a in lam_table(brace) for x in range(4))
    assert suite._generated_routes(brace) == [(True, False, "")]
    add, mul, neg, inv = brace.add, brace.mul, brace.neg, brace.inv
    maps = [[add[add[g][i]][neg[g]] for i in range(4)] for g in brace.add_generators]
    maps += [[mul[mul[g][i]][inv[g]] for i in range(4)] for g in brace.mul_generators]
    conjugation = braces._orbits(4, maps)
    monkeypatch.setattr(
        suite, "generated_ideal", lambda b, seed: groups._closure(b.add, seed | 1, conjugation)[0]
    )
    assert suite._generated_routes(brace) == [(False, False, "seed=4")]


def test_maximal_prime_row_counts_the_square_closures(z4_radical, monkeypatch):
    # the element route's A*A closure disagreeing with the lattice's star
    # square fails the row
    assert suite._maximal_prime(z4_radical) == [
        (True, False, "maximal=1 square_closures_agree=True")
    ]
    monkeypatch.setattr(suite, "star_subgroup", lambda brace, x, y: x)
    assert suite._maximal_prime(z4_radical) == [
        (False, False, "maximal=1 square_closures_agree=False")
    ]


class DiamondLattice:
    """{0} < {0, 1}, {0, 2} < {0, 1, 2} with a star product that is
    monotone and below the meet, but A·A = A while every other product is
    {0}, so it does not distribute over {0, 1} + {0, 2} = A."""

    members = (1, 3, 5, 7)

    def join(self, x, y):
        return x | y

    def star(self, x, y):
        return 7 if x == y == 7 else 1

    def _column(self, kind, j, rows):
        # the store's column j: the position of x ∨ y or x·y for each row
        # x, y = member j
        ms, product = self.members, self.join if kind == "join" else self.star
        return [ms.index(product(ms[i], ms[j])) for i in rows]


def test_lattice_row_counts_distributivity(monkeypatch):
    monkeypatch.setattr(suite, "ideal_lattice", lambda brace: DiamondLattice())
    assert suite._lattice_laws(None) == [
        (False, False, "join_distributive=False witness=('distributive', 3, 5, 7)")
    ]


def test_every_broken_star_table_fails_a_lattice_row(
    z4_radical, v4_trivial, s3_almost, monkeypatch
):
    # every single-entry change of the star table fails star-chain (the
    # principal pairs against the element route) or multiplicative-lattice
    # (the table's laws): neither row samples, and together they pin the
    # whole table
    z2_cubed = trivial_brace(product_table(klein_table(), cyclic_table(2)))
    assert len(ideal_lattice(z2_cubed)) == 16
    only_chain = 0
    for brace in (z4_radical, v4_trivial, s3_almost, z2_cubed):
        lat = ideal_lattice(brace)
        k, star = len(lat), star_positions(lat)
        for i, j in itertools.product(range(k), repeat=2):
            for value in range(k):
                if value == star[i][j]:
                    continue
                table = [list(row) for row in star]
                table[i][j] = value
                mutant = with_star_table(lat, table)
                monkeypatch.setattr(suite, "ideal_lattice", lambda _: mutant)
                [(laws, _, _)] = suite._lattice_laws(brace)
                if laws:  # a table with every law: star-chain must catch it
                    assert not suite._principal_criterion(brace)[0][0], (brace, i, j, value)
                    only_chain += 1
    assert only_chain


def test_run_records_full(catalog4):
    rows = run_records(catalog4)
    assert failures(rows) == []
    assert len(rows) == 381
    # every record contributes a record-integrity row
    integ = [r for r in rows if r.check == "record-integrity"]
    assert len(integ) == 7
    assert all(r.verdict == "pass" for r in integ)


def test_run_records_catches_stale_field(catalog4):
    stale = list(catalog4)
    stale[3] = dataclasses.replace(stale[3], ideal_count=99)
    rows = run_records(tuple(stale))
    bad = failures(rows)
    # the stale summary field is flagged, and the catalog no longer
    # matches a fresh deterministic regeneration
    assert sorted(r.check for r in bad) == [
        "catalog-deterministic",
        "record-integrity",
    ]
    integ = [r for r in bad if r.check == "record-integrity"]
    assert "ideal_count" in integ[0].detail
    # the rest of the suite still ran for that brace
    assert any(r.brace_id == stale[3].brace_id and r.check == "galois-star" for r in rows)


def test_verify_record_audits_every_derived_field(catalog4):
    rec = catalog4[3]
    names = [f.name for f in dataclasses.fields(rec)]
    assert names[:4] == ["brace_id", "order", "add", "mul"]
    for name in names[4:]:
        assert verify_record(dataclasses.replace(rec, **{name: None})) == [name]
    # stale fields are listed in declaration order
    assert verify_record(dataclasses.replace(rec, t1=None, add_group=None)) == ["add_group", "t1"]


def test_failing_check_reports_its_first_witness(z4_radical, monkeypatch):
    # with every kernel read as {0}, each quotient but the one by {0} is a
    # witness; the row names the first, the quotient by {0, 2} (mask 5)
    monkeypatch.setattr(suite, "kernel", lambda f: 1)
    row = {r.check: r for r in run_brace_suite("z4r", z4_radical)}["quotient-construction"]
    assert (row.verdict, row.detail) == ("fail", "('projection-kernel', 5)")


def test_run_records_catches_broken_tables(catalog4):
    broken_mul = tuple(
        tuple(row) for row in (catalog4[2].mul[:2] + (catalog4[2].mul[1],))
    )
    broken = dataclasses.replace(catalog4[2], mul=broken_mul)
    rows = run_records((broken,))
    bad = failures(rows)
    assert bad and bad[0].check == "record-integrity"
    # with unusable tables, no per-brace checks run for that record
    assert all(r.check == "record-integrity" for r in rows if r.brace_id == "3-0")


def test_catalog_checks(catalog6):
    rows = run_catalog_checks(catalog6)
    assert failures(rows) == []
    by_check = {}
    for r in rows:
        by_check.setdefault(r.check, []).append(r)
    agreement = by_check["enumeration-raw-agreement"]
    # the raw sweep covers every order the group-table search reaches
    assert [r.verdict for r in agreement] == ["pass"] * 6
    assert [r.detail for r in agreement if r.brace_id == "order-6"] == ["twist=6 raw=6"]
    assert not any(r.verdict == "vacuous" for r in rows)
    assert [r.verdict for r in by_check["catalog-matches-enumeration"]] == ["pass"]
    assert [r.verdict for r in by_check["catalog-deterministic"]] == ["pass"]


def test_catalog_checks_past_enumeration_bound():
    # an order the enumeration refuses keeps every catalog row, vacuous,
    # with a detail naming the bound
    from types import SimpleNamespace

    from sbspec.groups import ENUMERATION_BOUND

    n = ENUMERATION_BOUND + 1
    rec = SimpleNamespace(order=n, brace_id=f"{n}-0", add=None, mul=None)
    rows = [(r.brace_id, r.check, r.verdict, r.detail) for r in run_catalog_checks([rec])]
    past = f"enumeration bounded to order {ENUMERATION_BOUND}"
    assert rows == [
        (f"order-{n}", "enumeration-raw-agreement", "vacuous",
         f"raw sweep bounded to order {ENUMERATION_BOUND}"),
        (f"order-{n}", "catalog-isomorphism-free", "vacuous", past),
        ("catalog", "catalog-matches-enumeration", "vacuous", past),
        ("catalog", "catalog-deterministic", "vacuous", past),
    ]


def test_summarize_orders_and_counts():
    rows = [
        SuiteResult("a", "x", "pass"),
        SuiteResult("b", "x", "fail", "boom"),
        SuiteResult("c", "y", "vacuous"),
        SuiteResult("d", "x", "pass"),
    ]
    assert summarize(rows) == [("x", 2, 1, 0), ("y", 0, 0, 1)]
    assert [r.brace_id for r in failures(rows)] == ["b"]
