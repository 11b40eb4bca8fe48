"""Catalog of all braces up to a bound, persisted as deterministic JSONL.

One record per isomorphism class, keyed "order-index" in enumeration
order.  Every derived field is recomputable from the stored tables
alone, and verify_record does exactly that recomputation, so a catalog
file can always be audited against the code that wrote it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .braces import SkewBrace, validate
from .enumeration import enumerate_braces
from .errors import ParseError
from .groups import CANONICAL_BOUND, ENUMERATION_BOUND, group_fingerprint, table_shape_error
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


def generate_catalog(max_order: int = ENUMERATION_BOUND) -> tuple[CatalogRecord, ...]:
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
    """Parse a record structurally, its order within the bound of the canonical
    forms that verify_record recomputes; brace axioms are left to the checker.

    A malformed table fails groups.table_shape_error here; one that is
    well formed but violates an axiom fails during verification, which is
    where a tampered entry should surface.
    """
    if not isinstance(obj, dict):
        raise ParseError("catalog record must be a JSON object")
    order = _require(obj, "order", int)
    if not 1 <= order <= CANONICAL_BOUND:
        raise ParseError(f"catalog field 'order' must lie in 1..{CANONICAL_BOUND}, got {order}")
    add = _require(obj, "add", list)
    mul = _require(obj, "mul", list)
    for name, rows in (("add", add), ("mul", mul)):
        msg = table_shape_error(rows)
        if msg is None and len(rows) != order:
            msg = f"{len(rows)} rows for order {order}"
        if msg is not None:
            raise ParseError(f"catalog field {name!r}: {msg}")
    sizes = _require(obj, "spec_sizes", dict)
    if sorted(sizes) != sorted(PRIME_KINDS):
        raise ParseError(f"spec_sizes must cover {PRIME_KINDS}, got {sorted(sizes)}")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in sizes.values()):
        raise ParseError("catalog field 'spec_sizes' must map each kind to an integer")
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
        spec_sizes=tuple((kind, sizes[kind]) for kind in PRIME_KINDS),
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
    stored = ("brace_id", "order", "add", "mul")
    return [
        f.name for f in fields(CatalogRecord)
        if f.name not in stored and getattr(fresh, f.name) != getattr(rec, f.name)
    ]


def catalog_lines(records) -> str:
    return "".join(dumps(record_to_dict(rec)) + "\n" for rec in records)


def write_catalog(records, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(catalog_lines(records))
    except OSError as exc:
        raise ParseError(f"cannot write catalog {path}: {exc}") from exc


def read_catalog(path: str) -> tuple[CatalogRecord, ...]:
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise ParseError(f"cannot read catalog {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        try:
            records.append(record_from_dict(obj))
        except ParseError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    return tuple(records)
