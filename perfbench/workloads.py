"""Inputs, timed bodies and correctness gates of the three workloads.

Every call into sbspec goes through a module attribute looked up at call
time (``catalog.generate_catalog``, never a name bound at import), so a
tracer that rebinds the library's public functions sees every call the
benchmark makes.

A workload is three functions:

  build_inputs(seed, workdir) -> inputs     outside the timed body, part of setup_s
  run_body(inputs)            -> outputs    the timed body of one pass
  check(inputs, outputs)      -> Verdict    the correctness gate, untimed

Ops are the unit of ``error_rate``: one suite row for ``catalog6`` and
``suite12``, one brace's layer sequence for ``lattice``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import random

from sbspec import braces, catalog, groups, ideals, spectra, suite, topology

WORKLOADS = ("catalog6", "lattice", "suite12")

# catalog6 gates, as computed at the commit that introduced the benchmark.
# The <=6 catalog bytes are a project invariant, so these never move.
CATALOG6_CLASSES = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 6}
CATALOG6_SHA256 = "5e7f57c0e357b0f3556ff1c515745cdc3f1bd05f78e62791202f0d490365cc32"
CATALOG6_ROWS = 756

# Ideal counts that follow from group theory, so any relabelling keeps them:
# the trivial and almost-trivial braces on G have the normal subgroups of G
# as ideals (every subgroup when G is abelian).
LATTICE_IDEALS = {
    "z2^4-trivial": 67,
    "s4-trivial": 4,
    "s4-almost": 4,
    "a5-trivial": 2,
    "a5-almost": 2,
}
SUITE12_IDEALS = {
    "z2^3-trivial": 16,
    "z12-trivial": 6,
    "a4-trivial": 3,
    "a4-almost": 3,
    "s3xz2-trivial": 7,
    "s3xz2-almost": 7,
}
SUITE_ROWS_PER_BRACE = 52


@dataclasses.dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]


# ---------------------------------------------------------------------------
# seeded inputs


def alternating_table(m: int) -> groups.Table:
    """Cayley table of the even permutations of m letters, identity first."""
    perms = sorted(
        p
        for p in itertools.permutations(range(m))
        if sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m)) % 2 == 0
    )
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[x]] for x in range(m))] for q in perms) for p in perms
    )


def elementary_abelian_table(k: int) -> groups.Table:
    table = groups.cyclic_table(1)
    for _ in range(k):
        table = groups.product_table(table, groups.cyclic_table(2))
    return table


def relabelled(table: groups.Table, rng: random.Random) -> groups.Table:
    """The table moved along a seeded permutation that keeps 0 in place."""
    rest = list(range(1, len(table)))
    rng.shuffle(rest)
    return groups.relabel_table(table, (0, *rest))


def _constructed_braces(spec, seed: int) -> list[tuple[str, braces.SkewBrace]]:
    """(name, brace) for each (name, table, kinds) in spec, on relabelled tables.

    Tables are relabelled in spec order from one generator, so the same
    seed gives the same braces.  Both kinds on one group share a relabel.
    """
    rng = random.Random(seed)
    out = []
    for name, table, kinds in spec:
        table = relabelled(table, rng)
        for kind in kinds:
            build = braces.trivial_brace if kind == "trivial" else braces.almost_trivial_brace
            out.append((f"{name}-{kind}", build(table)))
    return out


def lattice_inputs(seed: int, workdir: str):
    both = ("trivial", "almost")
    return _constructed_braces(
        (
            ("z2^4", elementary_abelian_table(4), ("trivial",)),
            ("s4", groups.symmetric_table(4), both),
            ("a5", alternating_table(5), both),
        ),
        seed,
    )


def suite12_inputs(seed: int, workdir: str):
    both = ("trivial", "almost")
    s3xz2 = groups.product_table(groups.symmetric_table(3), groups.cyclic_table(2))
    return _constructed_braces(
        (
            ("z2^3", elementary_abelian_table(3), ("trivial",)),
            ("z12", groups.cyclic_table(12), ("trivial",)),
            ("a4", alternating_table(4), both),
            ("s3xz2", s3xz2, both),
        ),
        seed,
    )


def catalog6_inputs(seed: int, workdir: str):
    # Enumeration output is canonical, so this workload ignores the seed.
    return os.path.join(workdir, f"catalog6-{os.getpid()}.jsonl")


# ---------------------------------------------------------------------------
# timed bodies


def catalog6_body(path: str):
    """`sbspec catalog --max-order 6` followed by `sbspec check` on the file."""
    records = catalog.generate_catalog(6)
    catalog.write_catalog(records, path)
    back = catalog.read_catalog(path)
    rows = suite.run_records(back)
    return records, back, rows


def lattice_body(named):
    out = []
    for name, brace in named:
        try:
            ideals.ideal_lattice(brace)
            for kind in spectra.PRIME_KINDS:
                spectra.spectrum(brace, kind)
            for kind in spectra.PRIME_KINDS:
                topology.spec_topology(brace, kind)
            topology.lattice_spectrum(brace)
            spectra.compare_definitions(brace)
        except Exception as exc:  # a crash is a failed op, not a crashed pass
            out.append((name, f"{type(exc).__name__}: {exc}"))
        else:
            out.append((name, None))
    return out


def suite12_body(named):
    out = []
    for name, brace in named:
        try:
            rows = suite.run_brace_suite(name, brace)
        except Exception as exc:
            out.append((name, None, f"{type(exc).__name__}: {exc}"))
        else:
            out.append((name, rows, None))
    return out


# ---------------------------------------------------------------------------
# correctness gates


def catalog6_check(path: str, outputs) -> Verdict:
    records, back, rows = outputs
    problems = []
    by_order: dict[int, int] = {}
    for rec in records:
        by_order[rec.order] = by_order.get(rec.order, 0) + 1
    if by_order != CATALOG6_CLASSES:
        problems.append(f"classes per order {by_order}, expected {CATALOG6_CLASSES}")
    digest = hashlib.sha256(catalog.catalog_lines(records).encode()).hexdigest()
    if digest != CATALOG6_SHA256:
        problems.append(f"catalog sha256 {digest}, expected {CATALOG6_SHA256}")
    if tuple(back) != tuple(records):
        problems.append("read_catalog does not round-trip the generated records")
    attempted = max(CATALOG6_ROWS, len(rows))
    if problems:
        return Verdict(attempted, attempted, problems)
    failed = [r for r in rows if r.verdict == "fail"]
    problems += [f"fail row {r.brace_id} {r.check}: {r.detail}" for r in failed]
    if len(rows) != CATALOG6_ROWS:
        problems.append(f"{len(rows)} suite rows, expected {CATALOG6_ROWS}")
    missing = max(0, CATALOG6_ROWS - len(rows))
    return Verdict(attempted, len(failed) + missing, problems)


def lattice_check(named, outputs) -> Verdict:
    braces_by_name = dict(named)
    missing = set(LATTICE_IDEALS) - {name for name, _ in outputs}
    problems = [f"{name}: never ran" for name in sorted(missing)]
    bad = set(missing)
    for name, error in outputs:
        if error is not None:
            problems.append(f"{name}: {error}")
            bad.add(name)
            continue
        brace = braces_by_name[name]
        lat = ideals.ideal_lattice(brace)
        if len(lat.members) != LATTICE_IDEALS[name]:
            problems.append(f"{name}: {len(lat.members)} ideals, expected {LATTICE_IDEALS[name]}")
            bad.add(name)
            continue
        proper = set(lat.proper_members())
        primes = [(k, spectra.spectrum(brace, k).primes) for k in spectra.PRIME_KINDS]
        primes.append(("lattice", topology.lattice_spectrum(brace).primes))
        for kind, found in primes:
            stray = [p for p in found if p not in proper]
            if stray:
                problems.append(f"{name}: {kind} prime {stray[0]:#x} is not a proper ideal")
                bad.add(name)
    return Verdict(max(len(LATTICE_IDEALS), len(outputs)), len(bad), problems)


def suite12_check(named, outputs) -> Verdict:
    braces_by_name = dict(named)
    expected = SUITE_ROWS_PER_BRACE * len(SUITE12_IDEALS)
    problems = []
    attempted = failed = 0
    for name, rows, error in outputs:
        if error is not None:
            problems.append(f"{name}: {error}")
            attempted += SUITE_ROWS_PER_BRACE
            failed += SUITE_ROWS_PER_BRACE
            continue
        attempted += max(SUITE_ROWS_PER_BRACE, len(rows))
        count = len(ideals.ideal_lattice(braces_by_name[name]).members)
        if count != SUITE12_IDEALS[name]:
            problems.append(f"{name}: {count} ideals, expected {SUITE12_IDEALS[name]}")
            failed += max(SUITE_ROWS_PER_BRACE, len(rows))
            continue
        bad = [r for r in rows if r.verdict == "fail"]
        problems += [f"fail row {r.brace_id} {r.check}: {r.detail}" for r in bad]
        failed += len(bad) + max(0, SUITE_ROWS_PER_BRACE - len(rows))
        if len(rows) != SUITE_ROWS_PER_BRACE:
            problems.append(f"{name}: {len(rows)} suite rows, expected {SUITE_ROWS_PER_BRACE}")
    missing = expected - attempted
    if missing > 0:
        problems.append(f"{missing} expected rows never ran")
        attempted += missing
        failed += missing
    return Verdict(attempted, failed, problems)


INPUTS = {"catalog6": catalog6_inputs, "lattice": lattice_inputs, "suite12": suite12_inputs}
BODIES = {"catalog6": catalog6_body, "lattice": lattice_body, "suite12": suite12_body}
CHECKS = {"catalog6": catalog6_check, "lattice": lattice_check, "suite12": suite12_check}
