"""Prime ideals of a skew brace under three inequivalent definitions.

Kinds:
  star  pointwise: no two elements outside P star-multiply into P.
        Equivalent to the quantification over arbitrary subsets, which
        is kept as is_prime_star_by_subsets for use as a test oracle.
  ksv   over ideal pairs, with the star product closed into an additive
        subgroup before comparing against P.
  huq   over ideal pairs, with the commutator ideal in place of the
        star product.

A spectrum may well be empty; emptiness is a result, not an error.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .bitsets import full_mask, is_subset
from .braces import SkewBrace
from .errors import NotMaximalError, NotProperError
from .ideals import (
    IdealLattice,
    huq_commutator,
    ideal_lattice,
    star_ideal,
    star_set,
    star_subgroup,
)

Mask = int

PRIME_KINDS = ("star", "ksv", "huq")


def _check_kind(kind: str) -> None:
    if kind not in PRIME_KINDS:
        raise ValueError(f"unknown prime kind {kind!r}, expected one of {PRIME_KINDS}")


def is_prime(brace: SkewBrace, mask: Mask, kind: str) -> tuple[bool, tuple | None]:
    """Primality of a proper ideal, with a witness for failures.

    Witnesses: ("elements", a, b) for the star kind, ("ideals", x, y)
    for the other two.
    """
    _check_kind(kind)
    n = brace.order
    if mask == full_mask(n):
        raise NotProperError("primality is only defined for proper ideals")
    if kind == "star":
        star = brace.star
        outside = [a for a in range(n) if not mask >> a & 1]
        for a in outside:
            row = star[a]
            for b in outside:
                if mask >> row[b] & 1:
                    return False, ("elements", a, b)
        return True, None
    op = star_subgroup if kind == "ksv" else huq_commutator
    pair = ideal_pair_witness(
        ideal_lattice(brace), mask, lambda x, y: op(brace, x, y)
    )
    if pair is None:
        return True, None
    return False, ("ideals", *pair)


def ideal_pair_witness(
    lat: IdealLattice, mask: Mask, product: Callable[[Mask, Mask], Mask]
) -> tuple[Mask, Mask] | None:
    """The first pair of members outside mask whose product lies in mask.

    None means mask is prime for that product.  This is the one
    ideal-pair primality loop: is_prime runs it for ksv and huq, and the
    lattice spectrum runs it with the lattice's star multiplication.
    """
    for x in lat.members:
        if is_subset(x, mask):
            continue
        for y in lat.members:
            if is_subset(y, mask):
                continue
            if is_subset(product(x, y), mask):
                return x, y
    return None


def is_prime_star_by_subsets(brace: SkewBrace, mask: Mask) -> tuple[bool, tuple | None]:
    """Oracle for the star kind: quantify over all subset pairs directly."""
    n = brace.order
    if mask == full_mask(n):
        raise NotProperError("primality is only defined for proper ideals")
    whole = 1 << n
    for x in range(whole):
        if is_subset(x, mask):
            continue
        for y in range(whole):
            if is_subset(y, mask):
                continue
            if is_subset(star_set(brace, x, y), mask):
                return False, ("subsets", x, y)
    return True, None


@dataclass(frozen=True)
class Spectrum:
    kind: str
    primes: tuple[Mask, ...]
    minimal: tuple[Mask, ...]
    rejected: tuple[tuple[Mask, tuple], ...]

    @property
    def empty(self) -> bool:
        return not self.primes


@lru_cache(maxsize=None)
def spectrum(brace: SkewBrace, kind: str) -> Spectrum:
    """All primes of one kind among the proper ideals, plus the minimal ones."""
    _check_kind(kind)
    lat = ideal_lattice(brace)
    primes = []
    rejected = []
    for m in lat.proper_members():
        ok, witness = is_prime(brace, m, kind)
        if ok:
            primes.append(m)
        else:
            rejected.append((m, witness))
    minimal = tuple(
        p for p in primes if not any(q != p and is_subset(q, p) for q in primes)
    )
    return Spectrum(kind, tuple(primes), minimal, tuple(rejected))


def radical(brace: SkewBrace, mask: Mask, kind: str = "star") -> Mask:
    """Intersection of the primes containing the ideal; the whole brace
    when no prime contains it."""
    spec = spectrum(brace, kind)
    out = full_mask(brace.order)
    for p in spec.primes:
        if is_subset(mask, p):
            out &= p
    return out


def nil_radical(brace: SkewBrace, kind: str = "star") -> Mask:
    return radical(brace, 1, kind)


def maximal_prime_criterion(brace: SkewBrace, mask: Mask) -> bool:
    """Whether the whole-brace star square lies outside the maximal ideal.

    True must coincide with star-primality of the ideal; the caller is
    expected to assert that.  Raises unless the ideal is maximal.
    """
    lat = ideal_lattice(brace)
    if mask not in lat.maximal_ideals():
        raise NotMaximalError(f"mask {mask:#x} is not a maximal ideal")
    whole = full_mask(brace.order)
    return not is_subset(star_ideal(brace, whole, whole), mask)


def brace_square(brace: SkewBrace, closure: str = "ideal") -> Mask:
    """Star product of the brace with itself under the named closure."""
    whole = full_mask(brace.order)
    if closure == "ideal":
        return star_ideal(brace, whole, whole)
    if closure == "subgroup":
        return star_subgroup(brace, whole, whole)
    raise ValueError(f"unknown closure {closure!r}")


@dataclass(frozen=True)
class DefinitionComparison:
    """The three spectra side by side over one ideal lattice."""

    spectra: tuple[Spectrum, ...]
    membership: tuple[tuple[Mask, tuple[bool, bool, bool]], ...]
    all_agree: bool


def compare_definitions(brace: SkewBrace) -> DefinitionComparison:
    lat = ideal_lattice(brace)
    specs = tuple(spectrum(brace, kind) for kind in PRIME_KINDS)
    prime_sets = [set(s.primes) for s in specs]
    rows = tuple(
        (m, tuple(m in ps for ps in prime_sets))
        for m in lat.proper_members()
        if any(m in ps for ps in prime_sets)
    )
    agree = prime_sets[0] == prime_sets[1] == prime_sets[2]
    return DefinitionComparison(specs, rows, agree)
