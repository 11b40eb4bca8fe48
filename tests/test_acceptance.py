"""Acceptance gate: ten criteria over the full order <= 6 catalog.

Each test prints one [PASS]/[FAIL] line (visible under pytest -s); a
criterion passes only if its assertions all hold.  The whole file is
budgeted to run in well under two minutes.
"""

import time

from sbspec.bitsets import full_mask, is_subset
from sbspec.braces import is_isomorphic
from sbspec.catalog import generate_catalog
from sbspec.enumeration import enumerate_braces, enumerate_braces_raw
from sbspec.ideals import (
    all_ideals,
    generated_ideal,
    ideal_lattice,
    is_ideal,
    star_ideal,
    star_set,
    star_subgroup,
)
from sbspec.morphisms import (
    contraction,
    endomorphisms,
    ext_cont_report,
    ideal_correspondence,
    image,
    induced_spec_map,
    is_surjective,
    kernel,
    nil_quotient_homeo,
    quotient,
    quotient_projections,
)
from sbspec.spectra import is_prime_pointwise, is_prime_star_by_subsets, radical
from sbspec.suite import failures, run_records
from sbspec.topology import (
    closed_axioms_report,
    irreducibility_report,
    is_topology,
    lattice_spectrum,
    noetherian_report,
    separation_report,
    spec_topology,
    spectral_report,
)

T_START = time.monotonic()


def _corpus():
    out = []
    for n in range(1, 7):
        for i, b in enumerate(enumerate_braces(n)):
            out.append((f"{n}-{i}", b))
    return out


CORPUS = _corpus()


def _criterion(num: int, label: str, ok: bool, stats: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    tail = f" ({stats})" if stats else ""
    print(f"[{verdict}] criterion {num}: {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


def test_criterion_1_closed_set_axioms():
    ok = True
    braces = 0
    for _, brace in CORPUS:
        braces += 1
        for kind in ("star", "ksv", "huq"):
            rep = closed_axioms_report(spec_topology(brace, kind))
            ok = ok and rep.ok
    _criterion(
        1,
        "closed-set axioms of the hull family, exact, incl. families of size <= 3",
        ok,
        f"{braces} braces x 3 definitions",
    )


def test_criterion_2_star_primality_subset_oracle():
    ok = True
    checked = 0
    for _, brace in CORPUS:
        if brace.order > 5:
            continue
        for m in ideal_lattice(brace).proper_members():
            checked += 1
            lhs, _ = is_prime_pointwise(brace, m)
            rhs, _ = is_prime_star_by_subsets(brace, m)
            ok = ok and lhs == rhs
    _criterion(
        2,
        "elementwise star primality equals the 2^n x 2^n subset-pair oracle",
        ok,
        f"{checked} proper ideals at order <= 5",
    )


def test_criterion_3_star_closure_chain():
    ok = True
    pairs = 0
    for _, brace in CORPUS:
        members = ideal_lattice(brace).members
        for x in members:
            for y in members:
                pairs += 1
                raw = star_set(brace, x, y)
                sub = star_subgroup(brace, x, y)
                idl = star_ideal(brace, x, y)
                ok = ok and is_subset(raw, sub) and is_subset(sub, idl)
                ok = ok and is_subset(idl, x & y)
    _criterion(
        3,
        "star chain: subset product <= subgroup closure <= ideal closure <= meet",
        ok,
        f"{pairs} ideal pairs",
    )


def test_criterion_4_galois_connection():
    # the adjunction s <= K(T) <=> T <= H(s) holds by the definitions of
    # hull and kernel; what is checked is that KH is the radical, by an
    # independent route through generated_ideal
    ok = True
    singletons = 0
    for _, brace in CORPUS:
        hk = spec_topology(brace)
        # singleton element sets, checked directly and independently
        for a in range(brace.order):
            singletons += 1
            kh = hk.kern(hk.hull_of_elements(1 << a))
            ok = ok and kh == radical(brace, generated_ideal(brace, 1 << a))
        # hulls are blind to the radical: H(I) = H(Rad I)
        for m in hk.lat.members:
            r = radical(brace, m)
            ok = ok and hk.hull(m) == hk.hull_of_elements(r)
    _criterion(
        4,
        "KH = radical on singletons, H(I) = H(Rad I)",
        ok,
        f"{singletons} singleton element sets",
    )


def test_criterion_5_separation():
    ok = True
    hypothesis_instances = 0
    for _, brace in CORPUS:
        rep = separation_report(spec_topology(brace))
        ok = ok and rep.t0
        if rep.hypothesis_square_outside_max:
            hypothesis_instances += 1
            ok = ok and rep.t1_iff_spec_equals_max is True
        else:
            ok = ok and rep.t1_iff_spec_equals_max is None
    _criterion(
        5,
        "T0 everywhere; T1 <=> Spec = Max whenever A*A escapes every maximal ideal",
        ok,
        f"equivalence hypothesis held for {hypothesis_instances} brace(s)",
    )


def test_criterion_6_irreducibility():
    ok = True
    for _, brace in CORPUS:
        for kind in ("star", "ksv", "huq"):
            rep = irreducibility_report(spec_topology(brace, kind))
            ok = ok and rep.irreducibles_are_point_hulls
            ok = ok and rep.generic_points_unique
            ok = ok and rep.components_are_minimal_hulls
            ok = ok and rep.whole_iff_nil_prime
    _criterion(
        6,
        "irreducible closed sets are point hulls with unique generic points; "
        "components are minimal-prime hulls; irreducible <=> nil prime",
        ok,
        f"{len(CORPUS)} braces x 3 definitions, exhaustive",
    )


def test_criterion_7_morphisms():
    ok = True
    homs = 0
    vacuous = 0
    for _, brace in CORPUS:
        corpus = list(quotient_projections(brace))
        if brace.order <= 4:
            corpus.extend(endomorphisms(brace))
        target_ideals = {}
        for f in corpus:
            homs += 1
            ok = ok and is_ideal(f.source, kernel(f))
            img = image(f)
            if f.target not in target_ideals:
                target_ideals[f.target] = all_ideals(f.target)
            for j in target_ideals[f.target]:
                ok = ok and is_ideal(f.source, contraction(f, j))
            ok = ok and ext_cont_report(f).adjunction
            rep = induced_spec_map(f)
            ok = ok and rep.contractions_prime
            ok = ok and rep.continuity_exact is True
            if rep.points_vacuous:
                vacuous += 1
            if is_surjective(f):
                ok = ok and rep.kernel_hull is True
            ok = ok and rep.density_matches_kernel is True
            assert img == f.image_of(full_mask(f.source.order))
        for ideal in all_ideals(brace):
            q = quotient(brace, ideal)
            ok = ok and ideal_correspondence(q).bijective
        ok = ok and nil_quotient_homeo(brace).homeomorphic
    _criterion(
        7,
        "kernel/image/contraction ideals, quotient correspondence, "
        "extension/contraction adjunction, spec-map continuity, surjective image = hull of kernel, density <=> "
        "kernel nil, nil-quotient homeomorphism; zero fails",
        ok,
        f"{homs} homomorphisms, {vacuous} continuity checks vacuous (empty spectra)",
    )


def test_criterion_8_spectral_spaces():
    ok = True
    for _, brace in CORPUS:
        hk = spec_topology(brace)
        ok = ok and spectral_report(hk.space).spectral
        # Spec(Idl A) is the star space, on the primes of lattice_spectrum
        ok = ok and lattice_spectrum(brace).primes == hk.points
        ok = ok and closed_axioms_report(hk).ok and is_topology(hk.space)[0]
    _criterion(
        8,
        "Spec A and Spec(Idl A) are spectral spaces "
        "(finite-scale result: every spectrum here is empty)",
        ok,
        f"{len(CORPUS)} braces, both spaces",
    )


def test_criterion_9_enumeration_self_consistency():
    counts = []
    ok = True
    for n in range(1, 7):
        fast = enumerate_braces(n)
        slow = enumerate_braces_raw(n)
        counts.append(len(fast))
        ok = ok and len(fast) == len(slow)
        ok = ok and all(x == y for x, y in zip(fast, slow))
    six = enumerate_braces(6)
    enumerate_braces.cache_clear()
    ok = ok and enumerate_braces(6) == six
    for i in range(len(six)):
        for j in range(i + 1, len(six)):
            ok = ok and is_isomorphic(six[i], six[j]) is None
    _criterion(
        9,
        "twist enumeration matches the raw sweep at orders 1-6; order 6 is "
        "deterministic and isomorphism-free",
        ok,
        f"computed class counts for orders 1..6: {counts}",
    )


def test_criterion_10_noetherian_weights_and_runtime():
    ok = True
    for _, brace in CORPUS:
        for kind in ("star", "ksv", "huq"):
            rep = noetherian_report(spec_topology(brace, kind))
            ok = ok and rep.ok
    # the full property-suite run over the order <= 6 catalog, timed
    t0 = time.monotonic()
    records = generate_catalog(6)
    rows = run_records(records)
    suite_seconds = time.monotonic() - t0
    ok = ok and failures(rows) == []
    ok = ok and suite_seconds < 120
    total = time.monotonic() - T_START
    ok = ok and total < 120
    _criterion(
        10,
        "longest closed chain = points + 1 under every definition; "
        "full catalog check under two minutes",
        ok,
        f"suite: {len(rows)} rows in {suite_seconds:.2f}s, "
        f"acceptance wall time {total:.2f}s",
    )
