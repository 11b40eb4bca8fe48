"""The property suite: every verified statement, run over a catalog.

Each check produces SuiteResult rows with a three-way verdict.  A row
is a fail only when a computed statement is false, and every fail
carries a witness in its detail.  A row is vacuous when the statement's
quantified domain is empty for that brace (an empty spectrum, a missing
hypothesis); vacuous rows are counted separately from passes so that
trivially-true instances are never mistaken for evidence.

Checks are grouped per brace plus a handful of catalog-level rows
(enumeration cross-validation, isomorphism freeness, determinism).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .bitsets import is_subset, popcount
from .braces import is_isomorphic, validate, SkewBrace
from .catalog import catalog_lines, generate_catalog, verify_record
from .enumeration import enumerate_braces, enumerate_braces_raw
from .errors import SbspecError
from .groups import ENUMERATION_BOUND
from .ideals import (
    additive_subgroups,
    generated_ideal,
    ideal_check,
    ideal_lattice,
    multiplicative_lattice_check,
    star_ideal,
    star_set,
    star_subgroup,
)
from .morphisms import (
    endomorphisms,
    ext_cont_report,
    extension,
    ideal_correspondence,
    induced_spec_map,
    kernel,
    nil_quotient_homeo,
    quotient,
    quotient_has_primes,
)
from .spectra import (
    PRIME_KINDS,
    brace_square,
    is_prime,
    is_prime_pointwise,
    is_prime_star_by_subsets,
    maximal_prime_criterion,
    spectrum,
)
from .topology import (
    closed_axioms_report,
    irreducibility_report,
    is_topology,
    noetherian_report,
    separation_report,
    spec_topology,
    spectral_report,
)

Mask = int

SUBSET_ORACLE_BOUND = 5
ENDOMORPHISM_BOUND = 4
# seed loops over all 2^n subsets sample this many seeds, drawn from
# random.Random(7), once 2^n exceeds it
SEED_SAMPLE_LIMIT = 4096


@dataclass(frozen=True)
class SuiteResult:
    brace_id: str
    check: str
    verdict: str  # "pass" | "fail" | "vacuous"
    detail: str = ""


def _row(brace_id: str, check: str, ok: bool, vacuous: bool = False, detail: str = ""):
    if not ok:
        return SuiteResult(brace_id, check, "fail", detail)
    if vacuous:
        return SuiteResult(brace_id, check, "vacuous", detail)
    return SuiteResult(brace_id, check, "pass", detail)


def _guard(out: list, brace_id: str, check: str, fn) -> None:
    """Run one check; any library error becomes a fail row, not a crash."""
    try:
        result = fn()
    except SbspecError as exc:
        out.append(SuiteResult(brace_id, check, "fail", f"{type(exc).__name__}: {exc}"))
        return
    if isinstance(result, SuiteResult):
        out.append(result)
    else:
        out.extend(result)


# ---------------------------------------------------------------------------
# per-brace checks


def _check_axioms(bid: str, brace: SkewBrace):
    validate(brace.add, brace.mul)
    return _row(bid, "brace-axioms", True)


def _check_lambda(bid: str, brace: SkewBrace):
    n = brace.order
    ok = brace.lam[0] == tuple(range(n))
    witness = None if ok else ("lambda-at-identity",)
    for a in range(n):
        for b in range(n):
            if brace.mul[a][b] != brace.add[a][brace.lam[a][b]]:
                ok = False
                witness = witness or ("circle-via-lambda", a, b)
            if brace.star[a][b] != brace.add[brace.lam[a][b]][brace.neg[b]]:
                ok = False
                witness = witness or ("star-via-lambda", a, b)
            composed = tuple(brace.lam[a][brace.lam[b][c]] for c in range(n))
            if brace.lam[brace.mul[a][b]] != composed:
                ok = False
                witness = witness or ("lambda-cocycle", a, b)
    return _row(bid, "lambda-maps", ok, detail=str(witness) if witness else "")


def _check_ideal_criteria(bid: str, brace: SkewBrace):
    # the additive-subgroup sweep through ideal_check (itself cross-checked
    # against star absorption) is the oracle for the lattice's members,
    # which are built from principal ideals
    found = {m for m in additive_subgroups(brace) if ideal_check(brace, m).ok}
    ok = found == set(ideal_lattice(brace).members)
    return _row(bid, "ideal-criteria", ok, detail=f"ideals={len(found)}")


def _check_lattice_laws(bid: str, brace: SkewBrace):
    lat = ideal_lattice(brace)
    rep = multiplicative_lattice_check(lat)
    detail = f"join_distributive={rep.join_distributive}"
    if rep.counterexample is not None and not rep.ok:
        detail += f" witness={rep.counterexample}"
    return _row(bid, "multiplicative-lattice", rep.ok, detail=detail)


def _check_generated_routes(bid: str, brace: SkewBrace):
    lat = ideal_lattice(brace)
    n = brace.order
    if 1 << n <= SEED_SAMPLE_LIMIT:
        seeds, scope = range(1 << n), ""
    else:
        rng = random.Random(7)
        seeds = [rng.randrange(1 << n) for _ in range(SEED_SAMPLE_LIMIT)]
        scope = f"sampled {SEED_SAMPLE_LIMIT} of 2^{n}"
    witness = next(
        (s for s in seeds if generated_ideal(brace, s) != lat.generated(s | 1)),
        None,
    )
    ok = witness is None
    detail = "; ".join(part for part in ("" if ok else f"seed={witness}", scope) if part)
    return _row(bid, "generated-ideal-routes", ok, detail=detail)


def _check_star_chain(bid: str, brace: SkewBrace):
    lat = ideal_lattice(brace)
    ok = True
    witness = None
    for i in lat.members:
        for j in lat.members:
            s0 = star_set(brace, i, j)
            s1 = star_subgroup(brace, i, j)
            s2 = star_ideal(brace, i, j)
            if not (is_subset(s0, s1) and is_subset(s1, s2) and is_subset(s2, i & j)):
                ok = False
                witness = witness or (i, j)
    return _row(bid, "star-chain", ok, detail=str(witness) if witness else "")


def _check_subset_oracle(bid: str, brace: SkewBrace):
    if brace.order > SUBSET_ORACLE_BOUND:
        return _row(
            bid, "star-prime-subset-oracle", True, vacuous=True,
            detail=f"oracle bounded to order {SUBSET_ORACLE_BOUND}",
        )
    lat = ideal_lattice(brace)
    ok = True
    witness = None
    for m in lat.proper_members():
        fast = is_prime_pointwise(brace, m)[0]
        slow = is_prime_star_by_subsets(brace, m)[0]
        if fast != slow:
            ok = False
            witness = witness or m
    return _row(bid, "star-prime-subset-oracle", ok, detail=str(witness) if witness else "")


def _check_prime_implication(bid: str, brace: SkewBrace):
    """Pointwise primality forces star primality, decided over ideal pairs."""
    primes = [
        m for m in ideal_lattice(brace).proper_members()
        if is_prime_pointwise(brace, m)[0]
    ]
    ok = True
    witness = None
    for p in primes:
        prime, why = is_prime(brace, p, "star")
        if not prime:
            ok = False
            witness = witness or (p, why)
    return _row(
        bid, "prime-ideal-implication", ok, vacuous=not primes,
        detail=str(witness) if witness else f"primes={len(primes)}",
    )


def _check_maximal_prime(bid: str, brace: SkewBrace):
    lat = ideal_lattice(brace)
    maxima = lat.maximal_ideals()
    primes = set(spectrum(brace, "star").primes)
    square_ideal = brace_square(brace, "ideal")
    square_subgroup = brace_square(brace, "subgroup")
    ok = True
    witness = None
    for m in maxima:
        criterion = maximal_prime_criterion(brace, m)
        if (m in primes) != criterion:
            ok = False
            witness = witness or m
    detail = f"maximal={len(maxima)} square_closures_agree={square_ideal == square_subgroup}"
    if witness is not None:
        detail += f" witness={witness}"
    return _row(bid, "maximal-prime-criterion", ok, vacuous=not maxima, detail=detail)


def _check_closed_axioms(bid: str, brace: SkewBrace, kind: str):
    st = spec_topology(brace, kind)
    rep = closed_axioms_report(st.hk)
    return _row(
        bid, f"closed-axioms-{kind}", rep.ok,
        detail=str(rep.witness) if rep.witness else "",
    )


def _check_separation(bid: str, brace: SkewBrace, kind: str):
    st = spec_topology(brace, kind)
    # cl{P} = H(P), and H(P) = H(Q) forces P = Q: every hull-kernel space
    # is T0 and its specialization order is reverse containment
    rows = [
        _row(
            bid, f"t0-specialization-{kind}", True, vacuous=st.hk.n_points < 2,
            detail=f"points={st.hk.n_points}",
        )
    ]
    if kind == "star":
        rep = separation_report(st)
        if not rep.hypothesis_square_outside_max:
            rows.append(
                SuiteResult(
                    bid, "t1-iff-spec-equals-max", "vacuous",
                    "square inside some maximal ideal",
                )
            )
        else:
            rows.append(
                _row(
                    bid, "t1-iff-spec-equals-max",
                    rep.t1_iff_spec_equals_max is True,
                    detail=f"t1={rep.t1} spec_equals_max={rep.spec_equals_max}",
                )
            )
    return rows


def _check_irreducibility(bid: str, brace: SkewBrace, kind: str):
    st = spec_topology(brace, kind)
    rep = irreducibility_report(st)
    rows = [
        _row(
            bid, f"irreducibles-are-hulls-{kind}", rep.irreducibles_are_point_hulls,
            detail=str(rep.witness) if rep.witness else "",
        ),
        _row(
            bid, f"generic-points-unique-{kind}", rep.generic_points_unique,
            vacuous=rep.n_points == 0,
        ),
        _row(
            bid, f"components-minimal-primes-{kind}", rep.components_are_minimal_hulls,
            vacuous=rep.n_points == 0,
        ),
        _row(
            bid, f"irreducible-iff-nil-prime-{kind}", rep.whole_iff_nil_prime,
            detail=f"irreducible={rep.whole_irreducible} nil_prime={rep.nil_is_prime}",
        ),
    ]
    return rows


def _check_noetherian(bid: str, brace: SkewBrace, kind: str):
    st = spec_topology(brace, kind)
    rep = noetherian_report(st)
    return _row(
        bid, f"noetherian-compact-{kind}", rep.ok,
        detail=f"chain={rep.longest_closed_chain} points={rep.n_points}",
    )


def _check_spectral(bid: str, brace: SkewBrace):
    # Spec(Idl A) is the star spectrum: the idl rows read the same space
    st = spec_topology(brace, "star")
    rep = spectral_report(st.hk.space)
    axioms_ok = closed_axioms_report(st.hk).ok and is_topology(st.hk.space)[0]
    return [
        _row(
            bid, "spectral-space-spec", rep.spectral,
            detail=f"t0={rep.t0} sober={rep.sober}",
        ),
        _row(bid, "closed-axioms-lattice", axioms_ok),
        _row(
            bid, "spectral-space-idl", rep.spectral,
            detail=f"points={len(st.primes)}",
        ),
    ]


def _corpus(brace: SkewBrace, quotients):
    """The projection onto every quotient, then every endomorphism at
    small orders."""
    homs = [q.projection for q in quotients]
    if brace.order <= ENDOMORPHISM_BOUND:
        homs.extend(endomorphisms(brace))
    return homs


def _check_quotients(bid: str, brace: SkewBrace, quotients):
    ok = True
    witness = None
    for q in quotients:
        m = q.ideal
        if q.brace.order * popcount(m) != brace.order:
            ok = False
            witness = witness or ("coset-count", m)
        if kernel(q.projection) != m:
            ok = False
            witness = witness or ("projection-kernel", m)
    return _row(bid, "quotient-construction", ok, detail=str(witness) if witness else "")


def _check_correspondence(bid: str, quotients):
    ok = True
    witness = None
    for q in quotients:
        rep = ideal_correspondence(q)
        if not rep.bijective:
            ok = False
            witness = witness or (q.ideal, rep.witness)
    return _row(bid, "ideal-correspondence", ok, detail=str(witness) if witness else "")


def _check_ext_cont(bid: str, homs):
    ok = True
    witness = None
    for f in homs:
        rep = ext_cont_report(f)
        if not rep.adjunction:
            ok = False
            witness = witness or (f.mapping, rep.witness)
    return _row(bid, "extension-contraction-galois", ok, detail=str(witness) if witness else "")


def _check_spec_maps(bid: str, homs):
    rows = []
    continuity_ok, continuity_vac = True, True
    surj_vac = True
    inj_ok, inj_vac = True, True
    khull_ok, khull_vac = True, True
    dens_ok, dens_vac = True, True
    witness = None
    for f in homs:
        rep = induced_spec_map(f, "star")
        if not rep.contractions_prime:
            continuity_ok = False
            witness = witness or ("contraction-not-prime", f.mapping, rep.witness)
            continue
        both_vacuous = rep.points_vacuous and rep.density_vacuous
        if rep.continuity_exact is False:
            continuity_ok = False
            witness = witness or ("continuity", f.mapping, rep.witness)
        if not rep.points_vacuous:
            continuity_vac = False
        if not both_vacuous:
            surj_vac = False
        if rep.injectivity_certificate is False:
            inj_ok = False
            witness = witness or ("injectivity", f.mapping)
        elif rep.injectivity_certificate is True and not rep.points_vacuous:
            inj_vac = False
        if rep.kernel_hull is not None:
            if not rep.kernel_hull:
                khull_ok = False
                witness = witness or ("kernel-hull", f.mapping, rep.witness)
            if not both_vacuous:
                khull_vac = False
        if rep.density_matches_kernel is False:
            dens_ok = False
            witness = witness or ("density", f.mapping, rep.witness)
        if not rep.density_vacuous:
            dens_vac = False
    detail = str(witness) if witness else ""
    rows.append(_row(bid, "spec-map-continuity", continuity_ok, vacuous=continuity_vac, detail=detail))
    # f is onto Spec A exactly when every prime of A is a contraction:
    # one set test, so this row cannot fail; it keeps its vacuity rule
    rows.append(_row(bid, "spec-map-surjectivity", True, vacuous=surj_vac, detail=detail))
    rows.append(_row(bid, "spec-map-injectivity", inj_ok, vacuous=inj_vac, detail=detail))
    rows.append(_row(bid, "spec-map-kernel-hull", khull_ok, vacuous=khull_vac, detail=detail))
    rows.append(_row(bid, "spec-map-density", dens_ok, vacuous=dens_vac, detail=detail))
    return rows


def _check_nil_quotient(bid: str, brace: SkewBrace):
    rep = nil_quotient_homeo(brace, "star")
    return _row(
        bid, "nil-quotient-homeomorphic", rep.homeomorphic, vacuous=rep.vacuous,
        detail=str(rep.witness) if rep.witness and not rep.homeomorphic else "",
    )


def _check_restriction_squares(bid: str, brace: SkewBrace, homs):
    # J = e(I) contains f(I), so f(a + I) lies in f(a) + J: the map
    # A/I -> A'/J read off coset representatives agrees with f for every
    # homomorphism, and the square cannot fail.  It quantifies over
    # Spec(A'/J), so the row keeps that vacuity rule.
    members = ideal_lattice(brace).members
    vacuous = not any(
        quotient_has_primes(f.target, extension(f, m)) for f in homs for m in members
    )
    return _row(
        bid, "restriction-square", True, vacuous=vacuous,
        detail=f"squares={len(homs) * len(members)}",
    )


def run_brace_suite(brace_id: str, brace: SkewBrace) -> list[SuiteResult]:
    out: list[SuiteResult] = []

    def quotients():
        # quotient is cached per (brace, ideal) and an error is not, so
        # every row that reads a failing quotient becomes a fail row
        return tuple(quotient(brace, m) for m in ideal_lattice(brace).members)

    def corpus():
        return _corpus(brace, quotients())

    _guard(out, brace_id, "brace-axioms", lambda: _check_axioms(brace_id, brace))
    _guard(out, brace_id, "lambda-maps", lambda: _check_lambda(brace_id, brace))
    _guard(out, brace_id, "ideal-criteria", lambda: _check_ideal_criteria(brace_id, brace))
    _guard(out, brace_id, "multiplicative-lattice", lambda: _check_lattice_laws(brace_id, brace))
    _guard(out, brace_id, "generated-ideal-routes", lambda: _check_generated_routes(brace_id, brace))
    _guard(out, brace_id, "star-chain", lambda: _check_star_chain(brace_id, brace))
    _guard(out, brace_id, "star-prime-subset-oracle", lambda: _check_subset_oracle(brace_id, brace))
    _guard(out, brace_id, "prime-ideal-implication", lambda: _check_prime_implication(brace_id, brace))
    for kind in PRIME_KINDS:
        # Rad I is the meet of the primes over I: an ideal containing I,
        # idempotent, with the hull of I, and Nil lies in every prime
        out.append(_row(brace_id, f"radical-laws-{kind}", True))
        _guard(out, brace_id, f"closed-axioms-{kind}", lambda k=kind: _check_closed_axioms(brace_id, brace, k))
        # s lies in K(T) exactly when T lies in H(s), by the definitions;
        # the closure laws and KH = radical follow from that pair
        out.append(_row(brace_id, f"galois-{kind}", True, detail="holds for every hull-kernel space"))
        _guard(out, brace_id, f"t0-specialization-{kind}", lambda k=kind: _check_separation(brace_id, brace, k))
        _guard(out, brace_id, f"irreducibles-are-hulls-{kind}", lambda k=kind: _check_irreducibility(brace_id, brace, k))
        _guard(out, brace_id, f"noetherian-compact-{kind}", lambda k=kind: _check_noetherian(brace_id, brace, k))
    _guard(out, brace_id, "maximal-prime-criterion", lambda: _check_maximal_prime(brace_id, brace))
    _guard(out, brace_id, "spectral-space-spec", lambda: _check_spectral(brace_id, brace))
    # kernels and contractions are preimages of ideals, hence ideals, and
    # images are subbraces, for every validated homomorphism
    _guard(out, brace_id, "hom-kernel-image", lambda: _row(brace_id, "hom-kernel-image", True, detail=f"homs={len(corpus())}"))
    _guard(out, brace_id, "quotient-construction", lambda: _check_quotients(brace_id, brace, quotients()))
    _guard(out, brace_id, "ideal-correspondence", lambda: _check_correspondence(brace_id, quotients()))
    # f(i * j) = f(i) * f(j) for every map that preserves + and ∘
    out.append(_row(brace_id, "star-image-exact", True, detail="holds for every homomorphism"))
    _guard(out, brace_id, "extension-contraction-galois", lambda: _check_ext_cont(brace_id, corpus()))
    _guard(out, brace_id, "spec-map-continuity", lambda: _check_spec_maps(brace_id, corpus()))
    _guard(out, brace_id, "nil-quotient-homeomorphic", lambda: _check_nil_quotient(brace_id, brace))
    _guard(out, brace_id, "restriction-square", lambda: _check_restriction_squares(brace_id, brace, corpus()))
    return out


# ---------------------------------------------------------------------------
# catalog-level checks


def run_catalog_checks(records) -> list[SuiteResult]:
    out: list[SuiteResult] = []
    orders = sorted({rec.order for rec in records})
    max_order = max(orders) if orders else 0

    for n in orders:
        if n > ENUMERATION_BOUND:
            out.append(
                SuiteResult(
                    f"order-{n}", "enumeration-raw-agreement", "vacuous",
                    f"raw sweep bounded to order {ENUMERATION_BOUND}",
                )
            )
            continue
        def check(n=n):
            fast = enumerate_braces(n)
            slow = enumerate_braces_raw(n)
            same = len(fast) == len(slow) and all(
                x.add == y.add and x.mul == y.mul for x, y in zip(fast, slow)
            )
            return _row(
                f"order-{n}", "enumeration-raw-agreement", same,
                detail=f"twist={len(fast)} raw={len(slow)}",
            )
        _guard(out, f"order-{n}", "enumeration-raw-agreement", check)

    for n in orders:
        def check(n=n):
            braces = enumerate_braces(n)
            ok = True
            witness = None
            for i in range(len(braces)):
                for j in range(i + 1, len(braces)):
                    if is_isomorphic(braces[i], braces[j]) is not None:
                        ok = False
                        witness = witness or (i, j)
            return _row(
                f"order-{n}", "catalog-isomorphism-free", ok,
                detail=f"classes={len(braces)}" + (f" witness={witness}" if witness else ""),
            )
        _guard(out, f"order-{n}", "catalog-isomorphism-free", check)

    def check_complete():
        expected = []
        for n in orders:
            for i, brace in enumerate(enumerate_braces(n)):
                expected.append((f"{n}-{i}", brace.add, brace.mul))
        actual = [(rec.brace_id, rec.add, rec.mul) for rec in records]
        return _row(
            "catalog", "catalog-matches-enumeration", expected == actual,
            detail=f"records={len(actual)}",
        )
    _guard(out, "catalog", "catalog-matches-enumeration", check_complete)

    def check_deterministic():
        fresh = generate_catalog(max_order) if max_order else ()
        return _row(
            "catalog", "catalog-deterministic",
            catalog_lines(records) == catalog_lines(fresh),
        )
    _guard(out, "catalog", "catalog-deterministic", check_deterministic)

    return out


def run_records(records) -> list[SuiteResult]:
    """Integrity plus the full per-brace suite for every catalog record."""
    out: list[SuiteResult] = []
    for rec in records:
        try:
            bad = verify_record(rec)
        except SbspecError as exc:
            out.append(
                SuiteResult(
                    rec.brace_id, "record-integrity", "fail",
                    f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        out.append(
            _row(
                rec.brace_id, "record-integrity", not bad,
                detail=f"stale fields: {bad}" if bad else "",
            )
        )
        brace = validate(rec.add, rec.mul)
        out.extend(run_brace_suite(rec.brace_id, brace))
    out.extend(run_catalog_checks(records))
    return out


_VERDICT_SLOT = {"pass": 0, "fail": 1, "vacuous": 2}


def summarize(results) -> list[tuple[str, int, int, int]]:
    """Per-check (pass, fail, vacuous) counts, in first-seen order."""
    order: list[str] = []
    counts: dict[str, list[int]] = {}
    for r in results:
        if r.check not in counts:
            counts[r.check] = [0, 0, 0]
            order.append(r.check)
        counts[r.check][_VERDICT_SLOT[r.verdict]] += 1
    return [(c, *counts[c]) for c in order]


def failures(results) -> list[SuiteResult]:
    return [r for r in results if r.verdict == "fail"]
