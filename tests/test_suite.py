"""Catalog records and the property-suite verdict machinery."""

import dataclasses

import pytest

from sbspec import ideals
from sbspec.bitsets import popcount
from sbspec.braces import SkewBrace, trivial_brace
from sbspec.catalog import (
    build_record,
    catalog_lines,
    generate_catalog,
    read_catalog,
    record_from_dict,
    record_to_dict,
    verify_record,
    write_catalog,
)
from sbspec.errors import ConsistencyError, ParseError
from sbspec.groups import cyclic_table
from sbspec.ideals import ideal_lattice
from sbspec.morphisms import quotient
from sbspec.spectra import spectrum
from sbspec.suite import (
    SuiteResult,
    _check_separation,
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
    assert by_check["star-prime-subset-oracle"].verdict == "pass"
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
    "star-prime-subset-oracle",
    "prime-ideal-implication",
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
    ('star-prime-subset-oracle', 8, 0, 6),
    ('prime-ideal-implication', 0, 0, 14),
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
    ('star-prime-subset-oracle', 0, 0, 4),
    ('prime-ideal-implication', 0, 0, 4),
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
    # every row that reads the lattice fails with the error as its detail;
    # only the rows that never build it keep their verdicts
    kept = {r.check: r.verdict for r in rows if r.verdict != "fail"}
    assert kept == {
        "brace-axioms": "pass",
        "lambda-maps": "pass",
        "star-prime-subset-oracle": "vacuous",
        **{f"radical-laws-{kind}": "pass" for kind in ("star", "ksv", "huq")},
        **{f"galois-{kind}": "pass" for kind in ("star", "ksv", "huq")},
        "star-image-exact": "pass",
    }
    bad = failures(rows)
    assert len(bad) == 26
    assert all(r.detail.startswith("ConsistencyError: ") for r in bad)


def test_generated_routes_sample_past_4096_seeds(z4_radical):
    # order 12 and below: every seed, with no sampling note
    rows = run_brace_suite("z4r", z4_radical)
    assert {r.check: r for r in rows}["generated-ideal-routes"].detail == ""
    # order 13: 2^13 seeds, of which a seeded 4096 are drawn
    rows = run_brace_suite("z13", trivial_brace(cyclic_table(13)))
    assert failures(rows) == []
    row = {r.check: r for r in rows}["generated-ideal-routes"]
    assert (row.verdict, row.detail) == ("pass", "sampled 4096 of 2^13")


def test_t0_row_needs_two_points(a5_trivial):
    # T0 holds in every hull-kernel space, so the row is a literal pass
    # whose only content is its vacuity rule: one point is not evidence
    rows = _check_separation("a5", a5_trivial, "huq")
    assert [(r.verdict, r.detail) for r in rows] == [("vacuous", "points=1")]


def test_zero_brace_suite_vacuities(zero_brace):
    rows = run_brace_suite("1-0", zero_brace)
    assert failures(rows) == []
    by_check = {r.check: r for r in rows}
    # no maximal ideals at all in the one-element brace
    assert by_check["maximal-prime-criterion"].verdict == "vacuous"
    # the equivalence hypothesis holds vacuously, both sides are checked
    assert by_check["t1-iff-spec-equals-max"].verdict == "pass"


def test_subset_oracle_becomes_vacuous_at_order_six(catalog6):
    braces = {rec.brace_id: SkewBrace(rec.add, rec.mul) for rec in catalog6}
    rows = run_brace_suite("6-0", braces["6-0"])
    by_check = {r.check: r for r in rows}
    assert by_check["star-prime-subset-oracle"].verdict == "vacuous"
    rows = run_brace_suite("5-0", braces["5-0"])
    by_check = {r.check: r for r in rows}
    assert by_check["star-prime-subset-oracle"].verdict == "pass"


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

    from sbspec.enumeration import DEFAULT_BOUND
    from sbspec.groups import ENUMERATION_BOUND

    n = ENUMERATION_BOUND + 1
    rec = SimpleNamespace(order=n, brace_id=f"{n}-0", add=None, mul=None)
    rows = [(r.brace_id, r.check, r.verdict, r.detail) for r in run_catalog_checks([rec])]
    past = f"enumeration bounded to order {DEFAULT_BOUND}"
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
