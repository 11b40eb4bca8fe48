"""JSON round-trips and DOT graph exports.

Braces travel as {"order": n, "add": [[...]], "mul": [[...]]} with the
shared identity at index 0; homomorphisms as {"source": <brace>,
"target": <brace>, "map": [...]}.  The readers check only the document's
structure (its keys, "order" against the row count, that tables are
lists) and leave rows, entries, maps and axioms to braces.validate and
morphisms.validate_hom, so a parsed object is always a usable brace or
hom, and anything validate accepts round-trips.  All dumps are
deterministic: sorted keys, fixed separators, and DOT bodies iterate in
a canonical order, which makes reruns byte-identical.
"""

from __future__ import annotations

import json

from .bitsets import bits, elements, hasse_edges
from .braces import SkewBrace, validate
from .errors import ParseError
from .ideals import ideal_lattice
from .morphisms import Hom, validate_hom
from .spectra import PRIME_KINDS, nil_radical, spectrum
from .topology import (
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
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def member_list(mask: Mask) -> list[int]:
    return list(elements(mask))


# ---------------------------------------------------------------------------
# braces


def brace_to_dict(brace: SkewBrace) -> dict:
    return {
        "order": brace.order,
        "add": [list(row) for row in brace.add],
        "mul": [list(row) for row in brace.mul],
    }


def brace_from_dict(obj) -> SkewBrace:
    if not isinstance(obj, dict):
        raise ParseError("brace document must be a JSON object")
    missing = {"order", "add", "mul"} - set(obj)
    if missing:
        raise ParseError(f"brace document lacks fields: {sorted(missing)}")
    order = obj["order"]
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ParseError(f"order must be a positive integer, got {order!r}")
    add, mul = obj["add"], obj["mul"]
    if not isinstance(add, list) or not isinstance(mul, list):
        raise ParseError("fields 'add' and 'mul' must be lists of rows")
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
    return validate_hom(source, target, obj["map"])


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
    """The members, their weights and the meet, join and star tables by
    position, rows by the left factor, read off the lattice's full
    columns (a column holds the products with one right factor)."""
    lat = ideal_lattice(brace)
    doc = {"ideals": [member_list(m) for m in lat.members], "weights": list(lat.weights)}
    rows = range(len(lat.members))
    for kind in ("meet", "join", "star"):
        doc[kind] = list(map(list, zip(*[lat._column(kind, j, rows) for j in rows])))
    return doc


def topology_to_dict(brace: SkewBrace, kind: str) -> dict:
    hk = spec_topology(brace, kind)
    sep = separation_report(hk)
    spc = spectral_report(hk.space)
    return {
        "kind": kind,
        "points": [member_list(p) for p in hk.points],
        "closed_sets": [list(bits(c)) for c in hk.space.closed],
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
        "closed_axioms": hk.closed_axioms.ok,
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
    closed = list(hk.space.closed)
    index = {c: i for i, c in enumerate(closed)}
    lines = ["digraph closed_sets {", "  rankdir=BT;", "  node [shape=box];"]
    for i, p in enumerate(hk.points):
        lines.append(f"  // P{i} = {_set_label(p)}")
    for i, c in enumerate(closed):
        label = "{" + ",".join(f"P{b}" for b in bits(c)) + "}"
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
    points = spec_topology(brace, kind).points
    lines = ["digraph specialization {", "  rankdir=BT;", "  node [shape=box];"]
    for i, p in enumerate(points):
        lines.append(f'  P{i} [label="{_set_label(p)}"];')
    # containment edge (low, high) means high lies below low when specializing
    for low, high in hasse_edges(points):
        lines.append(f"  P{points.index(high)} -> P{points.index(low)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
