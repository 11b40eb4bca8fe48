"""Prime ideals of a skew brace under three definitions.

A proper ideal P is prime for an ideal product when no two ideals
outside P have their product in P.  One loop, ideal_pair_witness,
decides this for every kind, with the lattice product kind_product
names: star, the ideal generated by the products i*j (the paper's
primes, so Spec(Idl A) is this spectrum); ksv, the additive subgroup
they generate, which decides every pair as star does, so spectrum
returns the star spectrum under kind ksv and runs the loop for star and
huq only; huq, the commutator ideal.  Both products are monotone, so the
loop tries pairs of principal ideals only, at most n - 1 of them rather
than every member (the proof is on ideal_pair_witness), and reads their
products off the lattice's block of principal pairs: a spectrum builds
no k × k table.  The element-pair routes in ideals are oracles.

The pointwise notion, no two elements outside P star-multiplying into
P, is empty on every finite skew brace, so it has no routine here.
Suppose P is pointwise prime, and let Q = A/P, of order m >= 2.  Then
a*b = λ_a(b) - b is nonzero for all nonzero a, b of Q, so λ_a fixes no
nonzero b.  So (Q, ∘) acts through λ on the m - 1 nonzero elements
with trivial stabilisers.  Every orbit then has size m, so m divides m - 1,
which is impossible.

A spectrum may well be empty; emptiness is a result, not an error.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache

from .bitsets import bits, full_mask, is_subset
from .braces import SkewBrace
from .errors import NotAnIdealError, NotMaximalError, NotProperError
from .ideals import IdealLattice, ideal_lattice

Mask = int

PRIME_KINDS = ("star", "ksv", "huq")


def _check_kind(kind: str) -> None:
    if kind not in PRIME_KINDS:
        raise ValueError(f"unknown prime kind {kind!r}, expected one of {PRIME_KINDS}")


def product_kind(kind: str) -> str:
    """The name of the lattice product that decides primality of one kind.

    star and ksv get the lattice's star product.  For ksv that is a
    theorem: an ideal P contains the products i*j exactly when it contains
    the additive subgroup they generate (P is a subgroup), and exactly
    when it contains the ideal they generate (P is an ideal).  So both
    tests agree on every pair, witnesses included.  huq gets the lattice's
    commutator ideal product.
    """
    _check_kind(kind)
    return "huq" if kind == "huq" else "star"


def kind_product(lat: IdealLattice, kind: str) -> Callable[[Mask, Mask], Mask]:
    """The ideal product that decides primality of one kind: the lattice
    product product_kind names."""
    return getattr(lat, product_kind(kind))


def is_prime(brace: SkewBrace, mask: Mask, kind: str) -> tuple[bool, tuple | None]:
    """Primality of a proper ideal, with a witness ("ideals", x, y) for
    failures: principal members outside mask whose product lies in it.

    A mask that is no member of the ideal lattice is refused with
    NotAnIdealError naming its elements, and the whole brace with
    NotProperError: the pair loop decides primality for proper ideals
    only.
    """
    lat = ideal_lattice(brace)
    product = kind_product(lat, kind)
    if mask not in lat.index:
        raise NotAnIdealError("prime-input", list(bits(mask)))
    if mask == lat.top:
        raise NotProperError("primality is only defined for proper ideals")
    pair = ideal_pair_witness(lat, mask, product)
    return (True, None) if pair is None else (False, ("ideals", *pair))


def ideal_pair_witness(
    lat: IdealLattice, mask: Mask, product: Callable[[Mask, Mask], Mask]
) -> tuple[Mask, Mask] | None:
    """The first pair of the lattice's principal members outside mask
    whose product lies in mask.

    None means mask is prime for that product.  This is the one primality
    loop: is_prime runs it for every kind, with kind_product.  The
    candidates are lat.principal, the distinct nonzero principal ideals in
    member order: at most n - 1 of them, not the k members.

    Proof.  Both products are monotone: each is generated by words in
    the elements of the two ideals, so larger ideals give more generators.
    Ideals I, J outside P hold elements a, b outside P, and then (a) ⊆ I
    and (b) ⊆ J are principal ideals outside P with (a)(b) ⊆ IJ.  So if
    IJ lies in P, so does (a)(b): P is prime exactly when no two principal
    ideals outside it multiply into it.  The witness is also the first
    pair that the loop over every pair of members finds
    (tests/brace_oracles.py).  Of the pairs that multiply into P, take
    the first in member order, (I, J).  If I is not principal, the (a)
    above is strictly smaller, so it comes earlier, and (a)·J lies in P:
    a contradiction.  So I is principal, and J is principal by the same
    step.
    """
    principal = lat.principal
    for x in principal:
        if x & ~mask:
            for y in principal:
                if y & ~mask and not product(x, y) & ~mask:
                    return x, y
    return None


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
    """All primes of one kind among the proper ideals, plus the minimal ones.

    The ksv spectrum is the star spectrum under kind ksv: kind_product
    proves that the two decide every pair alike, witnesses included, so
    the pair loop is not run again for ksv."""
    _check_kind(kind)
    if kind == "ksv":
        return replace(spectrum(brace, "star"), kind=kind)
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
    return not is_subset(lat.star(lat.top, lat.top), mask)


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
