"""The property suite: every verified statement, run over a catalog.

Each check produces SuiteResult rows with a three-way verdict.  A row
is a fail only when a computed statement is false, and every fail
carries a witness in its detail.  A row is vacuous when the statement's
quantified domain is empty for that brace (an empty spectrum, a missing
hypothesis); vacuous rows are counted separately from passes so that
trivially-true instances are never mistaken for evidence.

The per-brace checks form one table.  An entry holds its row names, a
per-kind name as a ``{kind}`` template, and one function of the brace
(or of the brace and a prime kind) that returns one ``(ok, vacuous,
detail)`` verdict per name.  One runner, ``_run``, stamps the rows in
table order.  An entry that raises a library error fails every row it
owns, with the error as the detail, so a brace always gets every row by
name.  A new check is one entry.  The catalog-level rows (enumeration
cross-validation, isomorphism freeness, determinism) go through the
same runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .bitsets import is_subset, popcount
from .braces import is_isomorphic, validate, SkewBrace
from .catalog import catalog_lines, generate_catalog, verify_record
from .enumeration import DEFAULT_BOUND, enumerate_braces, enumerate_braces_raw
from .errors import SbspecError
from .groups import ENUMERATION_BOUND
from .ideals import (
    additive_subgroups,
    generated_ideal,
    huq_commutator,
    ideal_check,
    ideal_lattice,
    multiplicative_lattice_check,
    principal_ideals,
    sample_cases,
    star_ideal,
    star_subgroup,
)
from .morphisms import (
    endomorphisms,
    ideal_correspondence,
    induced_spec_map,
    kernel,
    nil_quotient_homeo,
    quotient,
    quotient_has_primes,
)
from .spectra import (
    PRIME_KINDS,
    maximal_prime_criterion,
    spectrum,
)
from .topology import (
    closed_axioms_report,
    irreducibility_report,
    noetherian_report,
    separation_report,
    spec_topology,
    spectral_report,
)

ENDOMORPHISM_BOUND = 4


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


def _error(exc: SbspecError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run(out: list, brace_id: str, names, fn) -> None:
    """Stamp one row per name from fn's verdicts; a library error fails
    every name, so one broken check never hides the rows it owns."""
    try:
        verdicts = fn()
    except SbspecError as exc:
        verdicts = [(False, False, _error(exc))] * len(names)
    out.extend(_row(brace_id, name, *v) for name, v in zip(names, verdicts, strict=True))


def _holds(detail: str = ""):
    """The check of a row that holds by construction: a literal pass."""
    return lambda *_: [(True, False, detail)]


def _first_witness(witnesses, scope: str = ""):
    """One verdict: a fail carrying the first witness, or a pass; then the scope."""
    witness = next(iter(witnesses), None)
    ok = witness is None
    return [(ok, False, "; ".join(p for p in ("" if ok else str(witness), scope) if p))]


# ---------------------------------------------------------------------------
# per-brace checks


def _axioms(brace: SkewBrace):
    validate(brace.add, brace.mul)
    return [(True, False, "")]


def _lambda_maps(brace: SkewBrace):
    n, lam = brace.order, brace.lam

    def witnesses():
        if lam[0] != tuple(range(n)):
            yield ("lambda-at-identity",)
        for a in range(n):
            for b in range(n):
                if brace.mul[a][b] != brace.add[a][lam[a][b]]:
                    yield ("circle-via-lambda", a, b)
                if brace.star[a][b] != brace.add[lam[a][b]][brace.neg[b]]:
                    yield ("star-via-lambda", a, b)
                if lam[brace.mul[a][b]] != tuple(lam[a][lam[b][c]] for c in range(n)):
                    yield ("lambda-cocycle", a, b)

    return _first_witness(witnesses())


def _ideal_criteria(brace: SkewBrace):
    # the additive-subgroup sweep through ideal_check (itself cross-checked
    # against star absorption) is the oracle for the lattice's members,
    # which are built from principal ideals
    found = {m for m in additive_subgroups(brace) if ideal_check(brace, m).ok}
    return [(found == set(ideal_lattice(brace).members), False, f"ideals={len(found)}")]


def _lattice_laws(brace: SkewBrace):
    rep = multiplicative_lattice_check(ideal_lattice(brace))
    detail = f"join_distributive={rep.join_distributive}"
    if not rep.ok:
        detail += f" witness={rep.counterexample}"
    return [(rep.ok, False, "; ".join(p for p in (detail, rep.scope) if p))]


def _generated_routes(brace: SkewBrace):
    lat = ideal_lattice(brace)
    seeds, scope = sample_cases(1 << brace.order, f"2^{brace.order}")
    return _first_witness(
        (f"seed={s}" for s in seeds if generated_ideal(brace, s) != lat.generated(s | 1)),
        scope,
    )


def _star_chain(brace: SkewBrace):
    # the lattice's generator route against the element route, inside i ∩ j
    lat = ideal_lattice(brace)
    members, k = lat.members, len(lat)
    cases, scope = sample_cases(k * k, f"{k}^2")

    def witnesses():
        for c in cases:
            i, j = members[c // k], members[c % k]
            product = star_ideal(brace, i, j)
            if product != lat.star(i, j) or not is_subset(product, i & j):
                yield (i, j)

    return _first_witness(witnesses(), scope)


def _principal_criterion(brace: SkewBrace):
    """Primality by pairs of principal ideals, by the element routes,
    against the spectrum's ideal-pair loop, for star and then huq.

    Both products are monotone, and an ideal outside P holds an element
    a outside P, so ideals I, J outside P with I·J in P give (a)·(b) in
    P: P is prime exactly when no two principal ideals outside it do.
    """
    proper = ideal_lattice(brace).proper_members()
    principal = sorted(set(principal_ideals(brace)) - {1})
    verdicts = []
    for kind, product in (("star", star_ideal), ("huq", huq_commutator)):
        products = [(x, y, product(brace, x, y)) for x in principal for y in principal]
        spec = spectrum(brace, kind)
        rejected = dict(spec.rejected)

        def witnesses():
            # an ideal the routes disagree on, with the rejecting side's pair
            for p in proper:
                pair = next(
                    (
                        ("principal", x, y)
                        for x, y, z in products
                        if not is_subset(x, p) and not is_subset(y, p) and is_subset(z, p)
                    ),
                    None,
                )
                if (pair is None) == (p in rejected):
                    yield p, pair or rejected[p]

        witness = next(witnesses(), None)
        counts = f"primes={len(spec.primes)} principal={len(principal)}"
        verdicts.append((witness is None, not proper, str(witness) if witness else counts))
    return verdicts


def _maximal_prime(brace: SkewBrace):
    lat = ideal_lattice(brace)
    maxima = lat.maximal_ideals()
    primes = set(spectrum(brace, "star").primes)
    # the lattice's star square against the element route's subgroup closure
    squares_agree = lat.star(lat.top, lat.top) == star_subgroup(brace, lat.top, lat.top)
    witness = next(
        (m for m in maxima if (m in primes) != maximal_prime_criterion(brace, m)), None
    )
    detail = f"maximal={len(maxima)} square_closures_agree={squares_agree}"
    if witness is not None:
        detail += f" witness={witness}"
    return [(witness is None, not maxima, detail)]


def _closed_axioms(brace: SkewBrace, kind: str):
    rep = closed_axioms_report(spec_topology(brace, kind))
    return [(rep.ok, False, str(rep.witness) if rep.witness else "")]


def _t0_specialization(brace: SkewBrace, kind: str):
    # cl{P} = H(P), and H(P) = H(Q) forces P = Q: every hull-kernel space
    # is T0 and its specialization order is reverse containment
    points = spec_topology(brace, kind).n_points
    return [(True, points < 2, f"points={points}")]


def _t1_iff_spec_equals_max(brace: SkewBrace, kind: str):
    rep = separation_report(spec_topology(brace, kind))
    if not rep.hypothesis_square_outside_max:
        return [(True, True, "square inside some maximal ideal")]
    detail = f"t1={rep.t1} spec_equals_max={rep.spec_equals_max}"
    return [(rep.t1_iff_spec_equals_max is True, False, detail)]


def _irreducibility(brace: SkewBrace, kind: str):
    rep = irreducibility_report(spec_topology(brace, kind))
    nil = f"irreducible={rep.whole_irreducible} nil_prime={rep.nil_is_prime}"
    return [
        (rep.irreducibles_are_point_hulls, False, str(rep.witness) if rep.witness else ""),
        (rep.generic_points_unique, rep.n_points == 0, ""),
        (rep.components_are_minimal_hulls, rep.n_points == 0, ""),
        (rep.whole_iff_nil_prime, False, nil),
    ]


def _noetherian(brace: SkewBrace, kind: str):
    rep = noetherian_report(spec_topology(brace, kind))
    return [(rep.ok, False, f"chain={rep.longest_closed_chain} points={rep.n_points}")]


def _spectral(brace: SkewBrace):
    # Spec(Idl A) is the star spectrum: the idl rows read the same space
    hk = spec_topology(brace, "star")
    rep = spectral_report(hk.space)
    # implies a topology: H(top) = ∅, H(bottom) = all, H(x)∪H(y) = H(x∧y), H(x)∩H(y) = H(x∨y)
    axioms_ok = closed_axioms_report(hk).ok
    return [
        (rep.spectral, False, f"t0={rep.t0} sober={rep.sober}"),
        (axioms_ok, False, ""),
        (rep.spectral, False, f"points={hk.n_points}"),
    ]


def _quotients(brace: SkewBrace):
    # quotient is cached per (brace, ideal) and an error is not, so
    # every row that reads a failing quotient becomes a fail row
    return tuple(quotient(brace, m) for m in ideal_lattice(brace).members)


def _corpus(brace: SkewBrace):
    """The projection onto every quotient, then every endomorphism at
    small orders."""
    homs = [q.projection for q in _quotients(brace)]
    if brace.order <= ENDOMORPHISM_BOUND:
        homs.extend(endomorphisms(brace))
    return homs


def _quotient_construction(brace: SkewBrace):
    def witnesses():
        for q in _quotients(brace):
            if q.brace.order * popcount(q.ideal) != brace.order:
                yield ("coset-count", q.ideal)
            if kernel(q.projection) != q.ideal:
                yield ("projection-kernel", q.ideal)

    return _first_witness(witnesses())


def _ideal_correspondence(brace: SkewBrace):
    reports = ((q.ideal, ideal_correspondence(q)) for q in _quotients(brace))
    return _first_witness((m, rep.witness) for m, rep in reports if not rep.bijective)


def _spec_maps(brace: SkewBrace):
    reports = [(f, induced_spec_map(f, "star")) for f in _corpus(brace)]
    # the certificates read only maps whose contractions are prime
    prime = [rep for _, rep in reports if rep.contractions_prime]

    def witnesses():
        for f, rep in reports:
            if not rep.contractions_prime:
                yield ("contraction-not-prime", f.mapping, rep.witness)
                continue
            if rep.continuity_exact is False:
                yield ("continuity", f.mapping, rep.witness)
            if rep.injectivity_certificate is False:
                yield ("injectivity", f.mapping)
            if rep.kernel_hull is False:
                yield ("kernel-hull", f.mapping, rep.witness)
            if rep.density_matches_kernel is False:
                yield ("density", f.mapping, rep.witness)

    detail = str(next(witnesses(), ""))
    return [
        (
            len(prime) == len(reports) and all(r.continuity_exact is not False for r in prime),
            all(r.points_vacuous for r in prime), detail,
        ),
        # f is onto Spec A exactly when every prime of A is a contraction:
        # one set test, so this row cannot fail; it keeps its vacuity rule
        (True, all(r.points_vacuous and r.density_vacuous for r in prime), detail),
        (
            all(r.injectivity_certificate is not False for r in prime),
            not any(r.injectivity_certificate is True and not r.points_vacuous for r in prime),
            detail,
        ),
        (
            all(r.kernel_hull is not False for r in prime),
            all(r.kernel_hull is None or r.points_vacuous and r.density_vacuous for r in prime),
            detail,
        ),
        (
            all(r.density_matches_kernel is not False for r in prime),
            all(r.density_vacuous for r in prime), detail,
        ),
    ]


def _nil_quotient(brace: SkewBrace):
    rep = nil_quotient_homeo(brace, "star")
    detail = str(rep.witness) if rep.witness and not rep.homeomorphic else ""
    return [(rep.homeomorphic, rep.vacuous, detail)]


def _restriction_square(brace: SkewBrace):
    # J = e(I) contains f(I), so f(a + I) lies in f(a) + J: the map
    # A/I -> A'/J read off coset representatives agrees with f for every
    # homomorphism, and the square cannot fail.  It quantifies over
    # Spec(A'/J), so the row keeps that vacuity rule.
    homs = _corpus(brace)
    members = ideal_lattice(brace).members
    vacuous = not any(
        quotient_has_primes(f.target, f.extensions[m]) for f in homs for m in members
    )
    return [(True, vacuous, f"squares={len(homs) * len(members)}")]


# The table, in row order: the brace checks before the per-kind block,
# the per-kind block once for each prime kind, then the rest.  Entries
# are (row names, check) and, per kind, the kinds an entry runs for.
_BRACE_HEAD = (
    (("brace-axioms",), _axioms),
    (("lambda-maps",), _lambda_maps),
    (("ideal-criteria",), _ideal_criteria),
    (("multiplicative-lattice",), _lattice_laws),
    (("generated-ideal-routes",), _generated_routes),
    (("star-chain",), _star_chain),
    # the primes of spectrum for star and huq, by principal ideal pairs
    (("principal-prime-criterion-star", "principal-prime-criterion-huq"), _principal_criterion),
)
_KIND_CHECKS = (
    # Rad I is the meet of the primes over I: an ideal containing I,
    # idempotent, with the hull of I, and Nil lies in every prime
    (("radical-laws-{kind}",), _holds(), PRIME_KINDS),
    (("closed-axioms-{kind}",), _closed_axioms, PRIME_KINDS),
    # s lies in K(T) exactly when T lies in H(s), by the definitions;
    # the closure laws and KH = radical follow from that pair
    (("galois-{kind}",), _holds("holds for every hull-kernel space"), PRIME_KINDS),
    (("t0-specialization-{kind}",), _t0_specialization, PRIME_KINDS),
    (("t1-iff-spec-equals-max",), _t1_iff_spec_equals_max, ("star",)),
    (
        (
            "irreducibles-are-hulls-{kind}",
            "generic-points-unique-{kind}",
            "components-minimal-primes-{kind}",
            "irreducible-iff-nil-prime-{kind}",
        ),
        _irreducibility,
        PRIME_KINDS,
    ),
    (("noetherian-compact-{kind}",), _noetherian, PRIME_KINDS),
)
_BRACE_TAIL = (
    (("maximal-prime-criterion",), _maximal_prime),
    (("spectral-space-spec", "closed-axioms-lattice", "spectral-space-idl"), _spectral),
    # kernels and contractions are preimages of ideals, hence ideals, and
    # images are subbraces, for every validated homomorphism
    (("hom-kernel-image",), lambda brace: [(True, False, f"homs={len(_corpus(brace))}")]),
    (("quotient-construction",), _quotient_construction),
    (("ideal-correspondence",), _ideal_correspondence),
    # f(i * j) = f(i) * f(j) for every map that preserves + and ∘
    (("star-image-exact",), _holds("holds for every homomorphism")),
    # e(I) is the least ideal over f(I), so for every ideal J,
    # e(I) ⊆ J ⇔ f(I) ⊆ J ⇔ I ⊆ c(J)
    (("extension-contraction-galois",), _holds("holds for every homomorphism")),
    (
        (
            "spec-map-continuity",
            "spec-map-surjectivity",
            "spec-map-injectivity",
            "spec-map-kernel-hull",
            "spec-map-density",
        ),
        _spec_maps,
    ),
    (("nil-quotient-homeomorphic",), _nil_quotient),
    (("restriction-square",), _restriction_square),
)


def run_brace_suite(brace_id: str, brace: SkewBrace) -> list[SuiteResult]:
    out: list[SuiteResult] = []
    for names, check in _BRACE_HEAD:
        _run(out, brace_id, names, lambda: check(brace))
    for kind in PRIME_KINDS:
        for names, check, kinds in _KIND_CHECKS:
            if kind in kinds:
                named = [name.format(kind=kind) for name in names]
                _run(out, brace_id, named, lambda: check(brace, kind))
    for names, check in _BRACE_TAIL:
        _run(out, brace_id, names, lambda: check(brace))
    return out


# ---------------------------------------------------------------------------
# catalog-level checks

_PAST_BOUND = (True, True, f"enumeration bounded to order {DEFAULT_BOUND}")


def _raw_agreement(n: int):
    if n > ENUMERATION_BOUND:
        return [(True, True, f"raw sweep bounded to order {ENUMERATION_BOUND}")]
    fast = enumerate_braces(n)
    slow = enumerate_braces_raw(n)
    same = len(fast) == len(slow) and all(
        x.add == y.add and x.mul == y.mul for x, y in zip(fast, slow)
    )
    return [(same, False, f"twist={len(fast)} raw={len(slow)}")]


def _isomorphism_free(n: int):
    if n > DEFAULT_BOUND:
        return [_PAST_BOUND]
    braces = enumerate_braces(n)
    pairs = combinations(range(len(braces)), 2)
    witness = next(
        ((i, j) for i, j in pairs if is_isomorphic(braces[i], braces[j]) is not None), None
    )
    detail = f"classes={len(braces)}" + (f" witness={witness}" if witness else "")
    return [(witness is None, False, detail)]


def _catalog_matches(records, orders):
    """The records against the enumeration, then against a fresh catalog."""
    if orders and orders[-1] > DEFAULT_BOUND:
        return [_PAST_BOUND] * 2
    expected = [
        (f"{n}-{i}", brace.add, brace.mul)
        for n in orders
        for i, brace in enumerate(enumerate_braces(n))
    ]
    actual = [(rec.brace_id, rec.add, rec.mul) for rec in records]
    fresh = generate_catalog(orders[-1]) if orders else ()
    return [
        (expected == actual, False, f"records={len(actual)}"),
        (catalog_lines(records) == catalog_lines(fresh), False, ""),
    ]


def run_catalog_checks(records) -> list[SuiteResult]:
    out: list[SuiteResult] = []
    orders = sorted({rec.order for rec in records})
    for n in orders:
        _run(out, f"order-{n}", ("enumeration-raw-agreement",), lambda: _raw_agreement(n))
    for n in orders:
        _run(out, f"order-{n}", ("catalog-isomorphism-free",), lambda: _isomorphism_free(n))
    names = ("catalog-matches-enumeration", "catalog-deterministic")
    _run(out, "catalog", names, lambda: _catalog_matches(records, orders))
    return out


def run_records(records) -> list[SuiteResult]:
    """Integrity plus the full per-brace suite for every catalog record."""
    out: list[SuiteResult] = []
    for rec in records:
        try:
            bad = verify_record(rec)
        except SbspecError as exc:
            ok, detail, brace = False, _error(exc), None
        else:
            ok, detail = not bad, f"stale fields: {bad}" if bad else ""
            brace = validate(rec.add, rec.mul)
        out.append(_row(rec.brace_id, "record-integrity", ok, detail=detail))
        if brace is not None:
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
