"""Command line surface.

Subcommands: validate, catalog, check, search, report, spec, quotient,
hom.  Exit codes: 0 success, 1 a property or axiom failed, 2 malformed
input or an input past a search bound.  All outputs are deterministic for
fixed inputs.
"""

from __future__ import annotations

import argparse
import sys

from .bitsets import mask_of
from .braces import validate as validate_tables
from .catalog import generate_catalog, read_catalog, write_catalog
from .errors import OrderBoundError, ParseError, SbspecError
from .groups import ENUMERATION_BOUND
from .morphisms import (
    ideal_correspondence,
    image,
    induced_spec_map,
    is_injective,
    is_surjective,
    kernel,
    quotient,
)
from .serialize import (
    brace_to_dict,
    dot_closed_sets,
    dot_ideal_lattice,
    dot_specialization,
    dumps,
    full_report_dict,
    load_brace,
    load_hom,
    member_list,
    spectrum_to_dict,
    topology_to_dict,
)
from .spectra import PRIME_KINDS, compare_definitions, spectrum
from .suite import failures, run_records, summarize
from .topology import connected_component_count, separation_report, spec_topology

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out_path}: {exc}") from exc


def cmd_validate(args) -> int:
    brace = load_brace(args.file)
    print(f"valid skew brace of order {brace.order}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    if not 1 <= args.max_order <= ENUMERATION_BOUND:
        raise ParseError(f"--max-order must lie in 1..{ENUMERATION_BOUND}, got {args.max_order}")
    records = generate_catalog(args.max_order)
    write_catalog(records, args.out)
    print(f"wrote {len(records)} records for orders 1..{args.max_order} to {args.out}")
    return EXIT_OK


def cmd_check(args) -> int:
    records = read_catalog(args.catalog)
    results = run_records(records)
    bad = failures(results)
    shown = results if args.verbose else bad
    for r in shown:
        line = f"{r.verdict.upper():8s} {r.brace_id:12s} {r.check}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
    print()
    print(f"{'check':36s} {'pass':>6s} {'fail':>6s} {'vacuous':>8s}")
    for check, p, f, v in summarize(results):
        print(f"{check:36s} {p:6d} {f:6d} {v:8d}")
    total_p = sum(1 for r in results if r.verdict == "pass")
    total_v = sum(1 for r in results if r.verdict == "vacuous")
    print(
        f"\n{len(records)} records: {total_p} pass, {len(bad)} fail, "
        f"{total_v} vacuous"
    )
    return EXIT_PROPERTY if bad else EXIT_OK


PREDICATES = (
    *(f"nonempty-spec:{kind}" for kind in PRIME_KINDS),
    *("defs-disagree", "spec-connected", "spec-disconnected", "t1"),
)


def _match_predicate(predicate: str, brace):
    """Return (matched, evidence) for one of PREDICATES."""
    if predicate.startswith("nonempty-spec:"):
        kind = predicate.split(":", 1)[1]
        primes = spectrum(brace, kind).primes
        return bool(primes), f"{kind} primes: {[member_list(p) for p in primes]}"
    if predicate == "defs-disagree":
        cmp = compare_definitions(brace)
        rows = [
            (member_list(m), dict(zip(PRIME_KINDS, flags)))
            for m, flags in cmp.membership
            if len(set(flags)) > 1
        ]
        return not cmp.all_agree, f"disagreeing ideals: {rows}"
    if predicate in ("spec-connected", "spec-disconnected"):
        count = connected_component_count(spec_topology(brace, "star").space)
        matched = count <= 1 if predicate == "spec-connected" else count >= 2
        return matched, f"components={count}"
    # t1, the last of PREDICATES
    rep = separation_report(spec_topology(brace, "star"))
    note = " (vacuous: empty spectrum)" if rep.n_points == 0 else ""
    return rep.t1, f"points={rep.n_points}{note}"


def cmd_search(args) -> int:
    if args.where not in PREDICATES:
        print(f"unknown predicate: {args.where}", file=sys.stderr)
        return EXIT_INPUT
    records = read_catalog(args.catalog)
    matches = 0
    for rec in records:
        brace = validate_tables(rec.add, rec.mul)
        matched, evidence = _match_predicate(args.where, brace)
        if matched:
            matches += 1
            print(f"{rec.brace_id}: {evidence}")
    print(f"{matches} of {len(records)} records match {args.where}")
    return EXIT_OK


def cmd_report(args) -> int:
    brace = load_brace(args.file)
    if args.kind == "ideal-lattice":
        _emit(dot_ideal_lattice(brace), args.out)
    elif args.kind == "closed-sets":
        _emit(dot_closed_sets(brace, args.definition), args.out)
    elif args.kind == "specialization":
        _emit(dot_specialization(brace, args.definition), args.out)
    else:
        _emit(dumps(full_report_dict(brace)) + "\n", args.out)
    return EXIT_OK


def cmd_spec(args) -> int:
    brace = load_brace(args.file)
    payload = {
        "spectrum": spectrum_to_dict(brace, args.definition),
        "topology": topology_to_dict(brace, args.definition),
    }
    print(dumps(payload))
    return EXIT_OK


def _parse_elements(text: str, order: int) -> int:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"ideal must be a comma-separated element list: {text!r}") from exc
    for v in values:
        if not 0 <= v < order:
            raise ParseError(f"element {v} out of range for order {order}")
    return mask_of(values)


def cmd_quotient(args) -> int:
    brace = load_brace(args.file)
    ideal = _parse_elements(args.ideal, brace.order) | 1
    q = quotient(brace, ideal)
    rep = ideal_correspondence(q)
    payload = {
        "ideal": member_list(ideal),
        "quotient": brace_to_dict(q.brace),
        "projection": list(q.projection.mapping),
        "ideal_correspondence_bijective": rep.bijective,
    }
    print(dumps(payload))
    return EXIT_OK


def cmd_hom(args) -> int:
    f = load_hom(args.file)
    rep = induced_spec_map(f, args.definition)
    payload = {
        "kernel": member_list(kernel(f)),
        "image": member_list(image(f)),
        "surjective": is_surjective(f),
        "injective": is_injective(f),
        "spec_map": {
            "kind": rep.kind,
            "points": len(rep.point_map),
            "contractions_prime": rep.contractions_prime,
            "continuity_exact": rep.continuity_exact,
            "continuity_vacuous": rep.points_vacuous,
            "density_matches_kernel": rep.density_matches_kernel,
        },
    }
    print(dumps(payload))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbspec",
        description="Ideal lattices, prime spectra and spectral topology "
        "of finite skew braces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a brace file against every axiom")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("catalog", help="enumerate braces and write a JSONL catalog")
    p.add_argument("--max-order", type=int, default=ENUMERATION_BOUND)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("check", help="run the full property suite on a catalog")
    p.add_argument("catalog")
    p.add_argument("--verbose", action="store_true", help="print every row")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("search", help="filter catalog records by a predicate")
    p.add_argument("catalog")
    p.add_argument(
        "--where",
        required=True,
        help=", ".join(PREDICATES),
    )
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("report", help="export DOT graphs or a JSON report")
    p.add_argument("file")
    p.add_argument(
        "--kind",
        required=True,
        choices=["ideal-lattice", "closed-sets", "specialization", "json"],
    )
    p.add_argument("--definition", default="star", choices=list(PRIME_KINDS))
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("spec", help="compute the prime spectrum of a brace file")
    p.add_argument("file")
    p.add_argument("--definition", default="star", choices=list(PRIME_KINDS))
    p.set_defaults(fn=cmd_spec)

    p = sub.add_parser("quotient", help="quotient a brace by an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True, help="comma-separated element list")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("hom", help="analyze a homomorphism file")
    p.add_argument("file")
    p.add_argument("--definition", default="star", choices=list(PRIME_KINDS))
    p.set_defaults(fn=cmd_hom)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, OrderBoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SbspecError as exc:
        print(f"property failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
