"""JSON round-trips and DOT graph exports.

Braces travel as {"order": n, "add": [[...]], "mul": [[...]]} with the
shared identity at index 0; homomorphisms as {"source": <brace>,
"target": <brace>, "map": [...]}.  Loading validates every axiom, so a
parsed object is always a usable brace or hom.  All dumps are
deterministic: sorted keys, fixed separators, and DOT bodies iterate in
a canonical order, which makes reruns byte-identical.
"""

from __future__ import annotations

import json

from .bitsets import elements, hasse_edges
from .braces import SkewBrace, validate
from .errors import ParseError
from .ideals import ideal_lattice
from .morphisms import Hom, validate_hom
from .spectra import PRIME_KINDS, nil_radical, spectrum
from .topology import (
    closed_axioms_report,
    connected_component_count,
    separation_report,
    spec_topology,
    spectral_report,
)

Mask = int


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def member_list(mask: Mask) -> list[int]:
    return list(elements(mask))


def _plain(witness) -> str | None:
    # witnesses can hold frozensets and nested tuples; reports stay JSON-safe
    return None if witness is None else str(witness)


# ---------------------------------------------------------------------------
# braces


def brace_to_dict(brace: SkewBrace) -> dict:
    return {
        "order": brace.order,
        "add": [list(row) for row in brace.add],
        "mul": [list(row) for row in brace.mul],
    }


def _int_table(obj, key: str):
    rows = obj.get(key)
    if not isinstance(rows, list) or not rows:
        raise ParseError(f"field {key!r} must be a non-empty list of rows")
    for row in rows:
        if not isinstance(row, list):
            raise ParseError(f"field {key!r} must contain rows (lists)")
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ParseError(f"field {key!r} holds a non-integer entry {v!r}")
    return rows


def brace_from_dict(obj) -> SkewBrace:
    if not isinstance(obj, dict):
        raise ParseError("brace document must be a JSON object")
    missing = {"order", "add", "mul"} - set(obj)
    if missing:
        raise ParseError(f"brace document lacks fields: {sorted(missing)}")
    order = obj["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ParseError(f"order must be a positive integer, got {order!r}")
    add = _int_table(obj, "add")
    mul = _int_table(obj, "mul")
    if len(add) != order or len(mul) != order:
        raise ParseError(
            f"declared order {order} does not match table sizes "
            f"{len(add)} and {len(mul)}"
        )
    return validate(add, mul)


def load_brace(path: str) -> SkewBrace:
    return brace_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# homomorphisms


def hom_to_dict(f: Hom) -> dict:
    return {
        "source": brace_to_dict(f.source),
        "target": brace_to_dict(f.target),
        "map": list(f.mapping),
    }


def hom_from_dict(obj) -> Hom:
    if not isinstance(obj, dict):
        raise ParseError("hom document must be a JSON object")
    missing = {"source", "target", "map"} - set(obj)
    if missing:
        raise ParseError(f"hom document lacks fields: {sorted(missing)}")
    source = brace_from_dict(obj["source"])
    target = brace_from_dict(obj["target"])
    mapping = obj["map"]
    if not isinstance(mapping, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in mapping
    ):
        raise ParseError("field 'map' must be a list of integers")
    return validate_hom(source, target, mapping)


def load_hom(path: str) -> Hom:
    return hom_from_dict(load_json(path))


# ---------------------------------------------------------------------------
# structure reports


def spectrum_to_dict(brace: SkewBrace, kind: str) -> dict:
    spec = spectrum(brace, kind)
    return {
        "kind": kind,
        "primes": [member_list(p) for p in spec.primes],
        "minimal": [member_list(p) for p in spec.minimal],
        "nil": member_list(nil_radical(brace, kind)),
    }


def lattice_to_dict(brace: SkewBrace) -> dict:
    lat = ideal_lattice(brace)
    k = len(lat.members)
    return {
        "ideals": [member_list(m) for m in lat.members],
        "weights": list(lat.weights),
        "meet": [[lat.meet_table[i][j] for j in range(k)] for i in range(k)],
        "join": [[lat.join_table[i][j] for j in range(k)] for i in range(k)],
        "star": [[lat.star_table[i][j] for j in range(k)] for i in range(k)],
    }


def topology_to_dict(brace: SkewBrace, kind: str) -> dict:
    hk = spec_topology(brace, kind)
    sep = separation_report(hk)
    spc = spectral_report(hk.space)
    point_index = {p: i for i, p in enumerate(hk.points)}
    closed = [
        sorted(point_index[p] for p in hk.points if c >> point_index[p] & 1)
        for c in hk.space.closed
    ]
    return {
        "kind": kind,
        "points": [member_list(p) for p in hk.points],
        "closed_sets": closed,
        "t0": sep.t0,
        "t1": sep.t1,
        "components": connected_component_count(hk.space),
        # every finite space is quasi-compact
        "quasi_compact": True,
        "sober": spc.sober,
        "spectral": spc.spectral,
    }


def lattice_spectrum_to_dict(brace: SkewBrace) -> dict:
    """Spec(Idl A), which is the star spectrum."""
    hk = spec_topology(brace, "star")
    spc = spectral_report(hk.space)
    return {
        "primes": [member_list(p) for p in hk.points],
        # implies a topology: H(top) = ∅, H(bottom) = all, H(x)∪H(y) = H(x∧y), H(x)∩H(y) = H(x∨y)
        "closed_axioms": closed_axioms_report(hk).ok,
        "spectral": spc.spectral,
    }


def full_report_dict(brace: SkewBrace) -> dict:
    return {
        "brace": brace_to_dict(brace),
        "ideal_lattice": lattice_to_dict(brace),
        "spectra": {kind: spectrum_to_dict(brace, kind) for kind in PRIME_KINDS},
        "topology": {kind: topology_to_dict(brace, kind) for kind in PRIME_KINDS},
        "lattice_spectrum": lattice_spectrum_to_dict(brace),
    }


# ---------------------------------------------------------------------------
# DOT exports


def _set_label(mask: Mask) -> str:
    return "{" + ",".join(str(e) for e in elements(mask)) + "}"


def dot_ideal_lattice(brace: SkewBrace) -> str:
    """Hasse diagram of the ideal lattice, bottom at the bottom."""
    lat = ideal_lattice(brace)
    index = {m: i for i, m in enumerate(lat.members)}
    lines = ["digraph ideal_lattice {", "  rankdir=BT;", "  node [shape=box];"]
    for i, m in enumerate(lat.members):
        lines.append(f'  I{i} [label="{_set_label(m)}"];')
    for low, high in hasse_edges(lat.members):
        lines.append(f"  I{index[low]} -> I{index[high]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_closed_sets(brace: SkewBrace, kind: str = "star") -> str:
    """Hasse diagram of the closed-set family of the spectrum."""
    hk = spec_topology(brace, kind)
    point_index = {p: i for i, p in enumerate(hk.points)}
    closed = list(hk.space.closed)
    index = {c: i for i, c in enumerate(closed)}
    lines = ["digraph closed_sets {", "  rankdir=BT;", "  node [shape=box];"]
    for p, i in sorted(point_index.items(), key=lambda kv: kv[1]):
        lines.append(f"  // P{i} = {_set_label(p)}")
    for i, c in enumerate(closed):
        label = "{" + ",".join(f"P{b}" for b in range(len(point_index)) if c >> b & 1) + "}"
        lines.append(f'  C{i} [label="{label}"];')
    for low, high in hasse_edges(closed):
        lines.append(f"  C{index[low]} -> C{index[high]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_specialization(brace: SkewBrace, kind: str = "star") -> str:
    """Hasse diagram of the specialization order on spectrum points.

    An edge runs upward from a point to the points it specializes to;
    with hull-kernel closures that is reverse ideal containment, so the
    drawn order is containment turned upside down.
    """
    point_index = {p: i for i, p in enumerate(spec_topology(brace, kind).points)}
    lines = ["digraph specialization {", "  rankdir=BT;", "  node [shape=box];"]
    for p, i in sorted(point_index.items(), key=lambda kv: kv[1]):
        lines.append(f'  P{i} [label="{_set_label(p)}"];')
    # containment edge (low, high) means high lies below low when specializing
    for low, high in hasse_edges(list(point_index)):
        lines.append(f"  P{point_index[high]} -> P{point_index[low]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
