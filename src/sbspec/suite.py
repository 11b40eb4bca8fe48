"""The property suite: every verified statement, run over a catalog.

Each check produces SuiteResult rows with a three-way verdict.  A row
is a fail only when a computed statement is false, and every fail
carries a witness in its detail.  A row is vacuous when the statement's
quantified domain is empty for that brace (an empty spectrum, a missing
hypothesis); vacuous rows are counted separately from passes so that
trivially-true instances are never mistaken for evidence.

The per-brace checks form one table.  An entry holds its row names, a
per-kind name as a ``{kind}`` template, and one function, of the brace
or of a prime kind's space, that returns one ``(ok, vacuous, detail)``
verdict per name.  A space is passed as a zero-argument getter of its
HullKernelSpace, built on first read, so those entries run on the space
of any multiplicative lattice.  One runner, ``_run``, stamps the rows in
table order.  An entry that raises a library error fails every row it
owns, with the error as the detail, so a brace always gets every row by
name.  A new check is one entry.  The catalog-level rows (enumeration
cross-validation, isomorphism freeness, determinism) go through the
same runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import combinations

from .bitsets import bits, is_subset, mask_of, popcount
from .braces import is_isomorphic, validate, SkewBrace
from .catalog import catalog_lines, generate_catalog, verify_record
from .enumeration import enumerate_braces, enumerate_braces_raw
from .errors import SbspecError
from .groups import ENUMERATION_BOUND
from .ideals import (
    _set_sum,
    generated_ideal,
    huq_commutator,
    ideal_check,
    ideal_lattice,
    multiplicative_lattice_check,
    principal_ideals,
    star_ideal,
    star_set,
    star_subgroup,
)
from .morphisms import (
    endomorphisms,
    ideal_correspondence,
    induced_spec_map,
    kernel,
    nil_quotient_homeo,
    quotient,
    quotient_projections,
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


def _first_witness(witnesses, counts: str = ""):
    """One verdict: a fail carrying the first witness, or a pass; then the counts."""
    witness = next(iter(witnesses), None)
    ok = witness is None
    return [(ok, False, "; ".join(p for p in ("" if ok else str(witness), counts) if p))]


# ---------------------------------------------------------------------------
# per-brace checks


def _axioms(brace: SkewBrace):
    validate(brace.add, brace.mul)
    return [(True, False, "")]


def _closure_seeds(brace: SkewBrace, lat):
    """(M, a) for each member M: a = 0 for the seed M itself, then the
    lowest a of each class outside M, for the seed M ∪ {a}.

    The class of a is M + a's orbit (SkewBrace.ideal_orbit).  Each
    b = i + j in it, with i in M and j in the orbit of a, gives
    ⟨M ∪ {b}⟩ = ⟨M ∪ {a}⟩: the orbit's maps keep ideals and generate a
    group, so an ideal holds j exactly when it holds a, and j = -i + b.
    """
    add, orbit = brace.add, brace.ideal_orbit
    for m in lat.members:
        yield m, 0
        ms, todo = tuple(bits(m)), lat.top & ~m
        while todo:
            a = (todo & -todo).bit_length() - 1
            yield m, a
            todo &= ~_set_sum(add, m, ms, orbit[a])[0]


def _absorbs(brace: SkewBrace, m, add_gens, mul_gens) -> bool:
    """A·M ⊆ M and M·A ⊆ M on generator pairs: g·h for g over the
    ∘-generators of A and h over add_gens, and x·c for x over mul_gens and
    c over the +-generators of A.  M is an additively normal subgroup and
    a ∘-subgroup, with +-generators add_gens and ∘-generators mul_gens.

    The proof follows the IdealLattice star rule.  Fix a.  By
    a·(b + c) = a·b + b + a·c − b and M normal in (A, +), the c with
    a·c ∈ M are closed under + and hold 0, an additive subgroup; so a·M ⊆ M
    once a·h ∈ M for h in add_gens, and a·A ⊆ M once a·c ∈ M for the
    +-generators c of A.  By (a ∘ b)·c = a·(b·c) + b·c + a·c, the a with
    a·M ⊆ M, and likewise the a with a·A ⊆ M, are closed under ∘ and hold
    0, a ∘-subgroup: the first holds the ∘-generators of A, so it is A,
    and the second holds mul_gens, so it contains M.
    """
    left = star_set(brace, mask_of(brace.mul_generators), mask_of(add_gens))
    right = star_set(brace, mask_of(mul_gens), mask_of(brace.add_generators))
    return is_subset(left | right, m)


def _ideal_criteria(brace: SkewBrace):
    """Certify the member list: every member is an ideal that absorbs star
    products on both sides (_absorbs, on generator pairs), and for every
    member M and element a outside M, the ideal generated by M and a is a
    member.

    Then every ideal I is a member.  {0} is one, and from a member M ⊊ I
    and some a in I outside M, the ideal generated by M and a is a member
    inside I and larger than M.  One closure per class (_closure_seeds)
    serves all of its elements; the additive subgroup sweep this replaces
    was exponential and stays the oracle in tests/test_ideals.py.
    """
    lat = ideal_lattice(brace)

    def witnesses():
        for m, a in _closure_seeds(brace, lat):
            if a == 0:  # the member's own seed: the ideal test and absorption
                check = ideal_check(brace, m)
                i = lat.index[m]
                if not check.ok:
                    yield ("not-ideal", m, check.witness)
                elif not _absorbs(brace, m, lat.add_generators[i], lat.mul_generators[i]):
                    yield ("not-absorbing", m)
            elif generated_ideal(brace, m | 1 << a) not in lat.index:
                yield ("closure", m, a)

    return _first_witness(witnesses(), f"ideals={len(lat)}")


def _lattice_laws(brace: SkewBrace):
    rep = multiplicative_lattice_check(ideal_lattice(brace))
    detail = f"join_distributive={rep.join_distributive}"
    if not rep.ok:
        detail += f" witness={rep.counterexample}"
    return [(rep.ok, False, detail)]


def _generated_routes(brace: SkewBrace):
    """generated_ideal against lat.generated, the least member above the
    seed, on the seeds of _closure_seeds, which covers all 2^n seeds.

    Both routes are closure operators onto ideals, so each has
    ⟨S ∪ {a}⟩ = ⟨⟨S⟩ ∪ {a}⟩ (⊆ by monotonicity, ⊇ by monotonicity and
    idempotence).  Induct on |S| from ⟨{0}⟩ = bottom, the seed of {0}:
    with M = ⟨S⟩, both routes send S ∪ {a} where they send M ∪ {a}.  For
    a in M that is the seed M, and those seeds show every member closed;
    for a outside M, M ∪ {a} generates what the seed of a's class does.
    So the row is exhaustive at every order, at most k·n closures.
    """
    lat = ideal_lattice(brace)
    # a seed can come from two members of size at most 2: each is closed once
    seeds = dict.fromkeys(m | 1 << a for m, a in _closure_seeds(brace, lat))
    return _first_witness(
        f"seed={s & ~1}" for s in seeds if generated_ideal(brace, s) != lat.generated(s)
    )


def _principal_criterion(brace: SkewBrace):
    """The element routes on every pair of distinct nonzero principal
    ideals: star-chain, then primality for star and for huq.

    star-chain compares star_ideal with the lattice's star product on
    those pairs, and checks each product lies in x ∩ y.  That decides
    every pair of ideals: every ideal is the join of its principal ideals,
    the lattice's product distributes over joins (multiplicative-lattice
    checks it exactly), the element route distributes by the theorem in
    multiplicative_lattice_check, and a product with {0} is {0} on both
    routes (on the lattice, by that row's x·y ⊆ x ∩ y).

    Primality by the element routes is checked against spectrum.  P is
    prime exactly when no two principal ideals outside it multiply into
    it (the proof is on spectra.ideal_pair_witness, which decides on the
    same pairs with the lattice's products).  The principal ideals here
    come from principal_ideals, not from the lattice, so a lattice that
    loses one of its candidates fails these rows.
    """
    lat = ideal_lattice(brace)
    proper = lat.proper_members()
    principal = sorted(set(principal_ideals(brace)) - {1})
    star_products = [(x, y, star_ideal(brace, x, y)) for x in principal for y in principal]
    huq_products = [(x, y, huq_commutator(brace, x, y)) for x in principal for y in principal]
    verdicts = _first_witness(
        (x, y) for x, y, z in star_products if z != lat.star(x, y) or not is_subset(z, x & y)
    )
    for kind, products in (("star", star_products), ("huq", huq_products)):
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
    return [(witness is None and squares_agree, not maxima, detail)]


def _closed_axioms(space):
    rep = closed_axioms_report(space())
    return [(rep.ok, False, str(rep.witness) if rep.witness else "")]


def _t0_specialization(space):
    # cl{P} = H(P), and H(P) = H(Q) forces P = Q: every hull-kernel space
    # is T0 and its specialization order is reverse containment
    points = space().n_points
    return [(True, points < 2, f"points={points}")]


def _t1_iff_spec_equals_max(space):
    rep = separation_report(space())
    if not rep.hypothesis_square_outside_max:
        return [(True, True, "square inside some maximal ideal")]
    detail = f"t1={rep.t1} spec_equals_max={rep.spec_equals_max}"
    return [(rep.t1_iff_spec_equals_max is True, False, detail)]


def _irreducibility(space):
    rep = irreducibility_report(space())
    nil = f"irreducible={rep.whole_irreducible} nil_prime={rep.nil_is_prime}"
    return [
        (rep.irreducibles_are_point_hulls, False, str(rep.witness) if rep.witness else ""),
        (rep.generic_points_unique, rep.n_points == 0, ""),
        (rep.components_are_minimal_hulls, rep.n_points == 0, ""),
        (rep.whole_iff_nil_prime, False, nil),
    ]


def _noetherian(space):
    rep = noetherian_report(space())
    return [(rep.ok, False, f"chain={rep.longest_closed_chain} points={rep.n_points}")]


def _spectral(space):
    # Spec(Idl A) is the star spectrum: the idl rows read the same space
    hk = space()
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
    homs = list(quotient_projections(brace))
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
    # Spec(A'/J), the primes of A' over J, so the row keeps that vacuity
    # rule.  f(0) = 0 gives e({0}) = {0}, and every J holds {0}: some
    # A'/J has a prime exactly when A' has one.
    homs = _corpus(brace)
    vacuous = not any(spectrum(f.target, "star").primes for f in homs)
    return [(True, vacuous, f"squares={len(homs) * len(ideal_lattice(brace))}")]


# The table, in row order: the brace checks before the per-kind block,
# the per-kind block once for each prime kind, then the rest.  Entries
# are (row names, check) and, per kind, the kinds an entry runs for.
_BRACE_HEAD = (
    (("brace-axioms",), _axioms),
    # λ_0 = id and a ∘ b = a + λ_a(b) follow from λ_a(b) = -a + a ∘ b and
    # the group axioms, a*b = λ_a(b) - b is how braces.star_word is written,
    # and the cocycle λ_{a∘b} = λ_a λ_b follows from the skew law: the row
    # can fail only where brace-axioms fails
    (("lambda-maps",), _holds()),
    (("ideal-criteria",), _ideal_criteria),
    (("multiplicative-lattice",), _lattice_laws),
    (("generated-ideal-routes",), _generated_routes),
    # star_ideal against the lattice's star product, then the primes of spectrum for
    # star and huq, all by principal ideal pairs
    (
        ("star-chain", "principal-prime-criterion-star", "principal-prime-criterion-huq"),
        _principal_criterion,
    ),
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
    (
        ("spectral-space-spec", "closed-axioms-lattice", "spectral-space-idl"),
        lambda brace: _spectral(partial(spec_topology, brace, "star")),
    ),
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
        space = partial(spec_topology, brace, kind)
        for names, check, kinds in _KIND_CHECKS:
            if kind in kinds:
                named = [name.format(kind=kind) for name in names]
                _run(out, brace_id, named, lambda: check(space))
    for names, check in _BRACE_TAIL:
        _run(out, brace_id, names, lambda: check(brace))
    return out


# ---------------------------------------------------------------------------
# catalog-level checks

_PAST_BOUND = (True, True, f"enumeration bounded to order {ENUMERATION_BOUND}")


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
    if n > ENUMERATION_BOUND:
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
    if orders and orders[-1] > ENUMERATION_BOUND:
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
            # verify_record has validated the tables
            brace = SkewBrace(rec.add, rec.mul)
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
