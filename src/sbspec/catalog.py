"""Catalog of all braces up to a bound, persisted as deterministic JSONL.

One record per isomorphism class, keyed "order-index" in enumeration
order.  Every derived field is recomputable from the stored tables
alone, and verify_record does exactly that recomputation, so a catalog
file can always be audited against the code that wrote it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .braces import SkewBrace, validate
from .enumeration import DEFAULT_BOUND, enumerate_braces
from .errors import ParseError
from .groups import group_fingerprint
from .ideals import ideal_lattice
from .serialize import dumps
from .spectra import PRIME_KINDS, spectrum
from .topology import (
    connected_component_count,
    separation_report,
    spec_topology,
    spectral_report,
)

Table = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CatalogRecord:
    brace_id: str
    order: int
    add: Table
    mul: Table
    add_group: str
    mul_group: str
    ideal_count: int
    weights: tuple[int, ...]
    spec_sizes: tuple[tuple[str, int], ...]
    lattice_spec_size: int
    t0: bool
    t1: bool
    components: int
    spec_spectral: bool
    idl_spectral: bool


def build_record(brace_id: str, brace: SkewBrace) -> CatalogRecord:
    lat = ideal_lattice(brace)
    hk = spec_topology(brace, "star")
    sep = separation_report(hk)
    spectral = spectral_report(hk.space).spectral
    return CatalogRecord(
        brace_id=brace_id,
        order=brace.order,
        add=brace.add,
        mul=brace.mul,
        add_group=group_fingerprint(brace.add),
        mul_group=group_fingerprint(brace.mul),
        ideal_count=len(lat.members),
        weights=lat.weights,
        spec_sizes=tuple(
            (kind, len(spectrum(brace, kind).primes)) for kind in PRIME_KINDS
        ),
        lattice_spec_size=hk.n_points,
        t0=sep.t0,
        t1=sep.t1,
        components=connected_component_count(hk.space),
        spec_spectral=spectral,
        idl_spectral=spectral,
    )


def generate_catalog(max_order: int = DEFAULT_BOUND) -> tuple[CatalogRecord, ...]:
    records = []
    for n in range(1, max_order + 1):
        for i, brace in enumerate(enumerate_braces(n)):
            records.append(build_record(f"{n}-{i}", brace))
    return tuple(records)


def record_to_dict(rec: CatalogRecord) -> dict:
    return {
        "id": rec.brace_id,
        "order": rec.order,
        "add": [list(row) for row in rec.add],
        "mul": [list(row) for row in rec.mul],
        "add_group": rec.add_group,
        "mul_group": rec.mul_group,
        "ideal_count": rec.ideal_count,
        "weights": list(rec.weights),
        "spec_sizes": dict(rec.spec_sizes),
        "lattice_spec_size": rec.lattice_spec_size,
        "t0": rec.t0,
        "t1": rec.t1,
        "components": rec.components,
        "spec_spectral": rec.spec_spectral,
        "idl_spectral": rec.idl_spectral,
    }


def _require(obj: dict, key: str, kinds) -> object:
    if key not in obj:
        raise ParseError(f"catalog record lacks field {key!r}")
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool) and kinds is int:
        raise ParseError(f"catalog field {key!r} has wrong type: {value!r}")
    return value


def record_from_dict(obj) -> CatalogRecord:
    """Parse a record structurally; brace axioms are left to the checker.

    A record whose tables are shaped correctly but violate an axiom
    parses fine here and fails during verification, which is where a
    tampered entry should surface.
    """
    if not isinstance(obj, dict):
        raise ParseError("catalog record must be a JSON object")
    order = _require(obj, "order", int)
    add = _require(obj, "add", list)
    mul = _require(obj, "mul", list)
    for name, rows in (("add", add), ("mul", mul)):
        if len(rows) != order or any(
            not isinstance(r, list) or len(r) != order for r in rows
        ):
            raise ParseError(f"catalog field {name!r} is not an {order}x{order} table")
        for r in rows:
            for v in r:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(f"catalog field {name!r} has entry {v!r}")
    sizes = _require(obj, "spec_sizes", dict)
    if sorted(sizes) != sorted(PRIME_KINDS):
        raise ParseError(f"spec_sizes must cover {PRIME_KINDS}, got {sorted(sizes)}")
    weights = _require(obj, "weights", list)
    if any(not isinstance(w, int) or isinstance(w, bool) for w in weights):
        raise ParseError("catalog field 'weights' must be a list of integers")
    return CatalogRecord(
        brace_id=str(_require(obj, "id", str)),
        order=order,
        add=tuple(tuple(r) for r in add),
        mul=tuple(tuple(r) for r in mul),
        add_group=str(_require(obj, "add_group", str)),
        mul_group=str(_require(obj, "mul_group", str)),
        ideal_count=int(_require(obj, "ideal_count", int)),
        weights=tuple(int(w) for w in weights),
        spec_sizes=tuple((kind, int(sizes[kind])) for kind in PRIME_KINDS),
        lattice_spec_size=int(_require(obj, "lattice_spec_size", int)),
        t0=bool(_require(obj, "t0", bool)),
        t1=bool(_require(obj, "t1", bool)),
        components=int(_require(obj, "components", int)),
        spec_spectral=bool(_require(obj, "spec_spectral", bool)),
        idl_spectral=bool(_require(obj, "idl_spectral", bool)),
    )


def verify_record(rec: CatalogRecord) -> list[str]:
    """Recompute every derived field; return the names that disagree.

    Raises the underlying validation error when the stored tables are
    not a brace at all.
    """
    brace = validate(rec.add, rec.mul)
    fresh = build_record(rec.brace_id, brace)
    bad = []
    for field in (
        "add_group",
        "mul_group",
        "ideal_count",
        "weights",
        "spec_sizes",
        "lattice_spec_size",
        "t0",
        "t1",
        "components",
        "spec_spectral",
        "idl_spectral",
    ):
        if getattr(fresh, field) != getattr(rec, field):
            bad.append(field)
    return bad


def catalog_lines(records) -> str:
    return "".join(dumps(record_to_dict(rec)) + "\n" for rec in records)


def write_catalog(records, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(catalog_lines(records))


def read_catalog(path: str) -> tuple[CatalogRecord, ...]:
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read catalog {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            records.append(record_from_dict(obj))
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return tuple(records)
