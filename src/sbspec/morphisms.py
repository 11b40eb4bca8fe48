"""Brace homomorphisms, quotients, and the induced maps between spectra.

A homomorphism preserves both operations, so its kernel and the
contraction of any ideal are ideals and its image is a subbrace; these
follow from validate_hom and are not re-checked.  Extension moves ideals
the other way.  Quotients are taken by additive cosets.  That the
multiplicative cosets agree, that the induced operations are well
defined and that the quotient is a skew brace is checked rather than
assumed: by validate_hom on the projection, over every element pair.  A
homomorphism f pulls primes of the target back to the source, and the
reports below certify, by direct computation, how that point map
interacts with the hull-kernel topology: continuity, the injectivity
criterion, image = hull of the kernel for surjections, and density.
Each report keeps only the certificates that no other field of it
implies.  Certificates over empty spectra are reported as vacuous, never
silently folded into a pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .bitsets import bits, full_mask, is_subset
from .braces import SkewBrace
from .errors import NotAHomomorphismError, NotAnIdealError, ParseError
from .ideals import generated_ideal, ideal_lattice, is_ideal
from .spectra import is_prime, nil_radical, spectrum
from .topology import spec_topology

Mask = int


@dataclass(frozen=True)
class Hom:
    """A validated homomorphism between two braces."""

    source: SkewBrace
    target: SkewBrace
    mapping: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def image_of(self, mask: Mask) -> Mask:
        out = 0
        for a in bits(mask):
            out |= 1 << self.mapping[a]
        return out

    def preimage_of(self, mask: Mask) -> Mask:
        out = 0
        for a in range(self.source.order):
            if mask >> self.mapping[a] & 1:
                out |= 1 << a
        return out


def validate_hom(source: SkewBrace, target: SkewBrace, mapping) -> Hom:
    """Check both preservation laws exhaustively and return the hom."""
    m = tuple(mapping)
    if len(m) != source.order:
        raise ParseError(
            f"mapping has {len(m)} entries for a source of order {source.order}"
        )
    for v in m:
        if not isinstance(v, int) or not 0 <= v < target.order:
            raise ParseError(f"mapping value {v!r} is not a target element")
    for a in range(source.order):
        for b in range(source.order):
            if m[source.add[a][b]] != target.add[m[a]][m[b]]:
                raise NotAHomomorphismError("add", a, b)
            if m[source.mul[a][b]] != target.mul[m[a]][m[b]]:
                raise NotAHomomorphismError("mul", a, b)
    return Hom(source, target, m)


def identity_hom(brace: SkewBrace) -> Hom:
    return Hom(brace, brace, tuple(range(brace.order)))


def zero_hom(source: SkewBrace, target: SkewBrace) -> Hom:
    """The constant map onto the identity; a homomorphism for any pair."""
    return Hom(source, target, (0,) * source.order)


def compose(g: Hom, f: Hom) -> Hom:
    """g after f."""
    if f.target is not g.source and f.target != g.source:
        raise ParseError("composition mismatch: target of f is not source of g")
    return Hom(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


def kernel(f: Hom) -> Mask:
    """Preimage of the identity; an ideal, as the contraction of {0}."""
    return f.preimage_of(1)


def image(f: Hom) -> Mask:
    """Image element set; a subbrace, since f preserves + and ∘."""
    return f.image_of(full_mask(f.source.order))


def is_surjective(f: Hom) -> bool:
    return image(f) == full_mask(f.target.order)


def is_injective(f: Hom) -> bool:
    return len(set(f.mapping)) == f.source.order


def contraction(f: Hom, target_ideal: Mask) -> Mask:
    """Preimage of a target ideal; an ideal of the source, since f
    commutes with the lambda maps and with conjugation in both groups."""
    return f.preimage_of(target_ideal)


def extension(f: Hom, source_ideal: Mask) -> Mask:
    """The target ideal generated by the image of a source ideal."""
    return generated_ideal(f.target, f.image_of(source_ideal))


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class Quotient:
    """A brace modulo an ideal, with its coset data and projection map."""

    base: SkewBrace
    ideal: Mask
    reps: tuple[int, ...]
    coset_of: tuple[int, ...]
    brace: SkewBrace
    projection: Hom


@lru_cache(maxsize=None)
def quotient(brace: SkewBrace, ideal: Mask) -> Quotient:
    """Quotient by additive cosets, cached per (brace, ideal).

    Cosets are found in element order, so each representative is the
    minimal element of its coset and the identity coset sits at index 0.
    The tables are read off the representatives.  validate_hom on the
    projection then compares them with every element pair: that proves
    both induced operations well defined (so the multiplicative cosets
    agree with the additive ones) and, the projection being onto, the
    tables a skew brace.
    """
    if not is_ideal(brace, ideal):
        raise NotAnIdealError("quotient-input", ideal)
    coset_of = [-1] * brace.order
    reps = []
    for a in range(brace.order):
        if coset_of[a] < 0:
            for i in bits(ideal):
                coset_of[brace.add[a][i]] = len(reps)
            reps.append(a)
    qadd = tuple(tuple(coset_of[brace.add[x][y]] for y in reps) for x in reps)
    qmul = tuple(tuple(coset_of[brace.mul[x][y]] for y in reps) for x in reps)
    qbrace = SkewBrace(qadd, qmul)
    projection = validate_hom(brace, qbrace, coset_of)
    return Quotient(brace, ideal, tuple(reps), tuple(coset_of), qbrace, projection)


def quotient_has_primes(brace: SkewBrace, ideal: Mask, kind: str = "star") -> bool:
    """Whether Spec(A/J) is non-empty, read off Spec A without building A/J.

    The primes of A/J are the P/J for the primes P of A containing J:
    pi maps ideals onto ideals with pi(I K) = pi(I) pi(K) for the star and
    commutator products, and pi(I) lies in pi(P) exactly when I lies in
    P + J = P, so the ideal pairs that witness against P and P/J match.
    """
    return any(is_subset(ideal, p) for p in spectrum(brace, kind).primes)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Ideals of A/I versus ideals of A containing I."""

    over_count: int
    quotient_count: int
    down_images_are_ideals: bool
    up_preimages_contain: bool
    mutually_inverse: bool
    witness: tuple | None

    @property
    def bijective(self) -> bool:
        # mutually inverse maps between the two families force equal counts
        return (
            self.down_images_are_ideals
            and self.up_preimages_contain
            and self.mutually_inverse
        )


def ideal_correspondence(q: Quotient) -> CorrespondenceReport:
    """Certify the bijection J <-> pi(J) between the two ideal families."""
    pi = q.projection
    over = [m for m in ideal_lattice(q.base).members if is_subset(q.ideal, m)]
    over_set = set(over)
    below = set(ideal_lattice(q.brace).members)
    witness = None

    down_ok = True
    up_ok = True
    inverse_ok = True
    for m in over:
        img = pi.image_of(m)
        if img not in below:
            down_ok = False
            witness = witness or ("down-not-ideal", m)
        if pi.preimage_of(img) != m:
            inverse_ok = False
            witness = witness or ("down-up", m)
    for j in below:
        pre = pi.preimage_of(j)
        if pre not in over_set:
            up_ok = False
            witness = witness or ("up-not-over", j)
        if pi.image_of(pre) != j:
            inverse_ok = False
            witness = witness or ("up-down", j)
    return CorrespondenceReport(
        len(over), len(below), down_ok, up_ok, inverse_ok, witness
    )


@dataclass(frozen=True)
class ExtContReport:
    """Extension/contraction as a Galois pair on ideal lattices.

    Only the adjunction e(I) ⊆ J ⇔ I ⊆ c(J) is checked, over every pair
    of ideals: monotonicity of both maps, the unit I ⊆ c(e(I)), the
    counit e(c(J)) ⊆ J and e∘c∘e = e all follow from it.
    """

    adjunction: bool
    witness: tuple | None


def ext_cont_report(f: Hom) -> ExtContReport:
    tgt = ideal_lattice(f.target).members
    con = {j: contraction(f, j) for j in tgt}
    for i in ideal_lattice(f.source).members:
        e = extension(f, i)
        for j in tgt:
            if is_subset(e, j) != is_subset(i, con[j]):
                return ExtContReport(False, ("adjunction", i, j))
    return ExtContReport(True, None)


# ---------------------------------------------------------------------------
# induced maps between spectra


@dataclass(frozen=True)
class SpecMapReport:
    """Pullback of target primes along a hom, with topology certificates.

    point_map lists (target prime, its contraction) pairs.  points_vacuous
    (empty target spectrum) and density_vacuous (empty source spectrum)
    mark certificates that quantify over nothing.  Certificates that need
    the contractions to be prime are None when some contraction fails
    primality under the chosen definition; kernel_hull, the image = hull
    of the kernel test, is also None when f is not onto.  For a
    surjection c(J) determines J, so the point map is injective, and the
    closed images match once kernel_hull holds.
    """

    kind: str
    point_map: tuple[tuple[Mask, Mask], ...]
    contractions_prime: bool
    points_vacuous: bool
    continuity_exact: bool | None
    injectivity_certificate: bool | None
    kernel_hull: bool | None
    density: bool | None
    kernel_in_nil: bool
    density_matches_kernel: bool | None
    density_vacuous: bool
    witness: tuple | None


def induced_spec_map(f: Hom, kind: str = "star") -> SpecMapReport:
    source_primes = spectrum(f.source, kind).primes
    target_primes = spectrum(f.target, kind).primes
    witness = None

    point_map = tuple((p, f.preimage_of(p)) for p in target_primes)
    contractions_prime = True
    for p, c in point_map:
        ok, why = is_prime(f.source, c, kind)
        if not ok:
            contractions_prime = False
            witness = witness or ("contraction-not-prime", p, c, why)

    ext = {i: extension(f, i) for i in ideal_lattice(f.source).members}
    continuity = None
    if contractions_prime:
        continuity = True
        for i, e in ext.items():
            lhs = frozenset(p for p, c in point_map if is_subset(i, c))
            rhs = frozenset(p for p in target_primes if is_subset(e, p))
            if lhs != rhs:
                continuity = False
                witness = witness or ("continuity", i, lhs, rhs)

    contracted = {c for _, c in point_map}
    extensions = set(ext.values())
    injectivity = None
    if contractions_prime and all(q in extensions for q in target_primes):
        injectivity = len(contracted) == len(point_map)
        if not injectivity:
            witness = witness or ("injectivity",)

    ker = kernel(f)
    kernel_hull = None
    if contractions_prime and is_surjective(f):
        hull = {p for p in source_primes if is_subset(ker, p)}
        kernel_hull = contracted == hull
        if not kernel_hull:
            witness = witness or ("kernel-hull", contracted, hull)

    kernel_in_nil = is_subset(ker, nil_radical(f.source, kind))
    density = None
    density_match = None
    if contractions_prime:
        hk = spec_topology(f.source, kind)
        index = {p: i for i, p in enumerate(hk.points)}
        im_mask = 0
        for c in contracted:
            im_mask |= 1 << index[c]
        density = hk.closure(im_mask) == full_mask(hk.n_points)
        density_match = density == kernel_in_nil
        if not density_match:
            witness = witness or ("density", density, kernel_in_nil)

    return SpecMapReport(
        kind=kind,
        point_map=point_map,
        contractions_prime=contractions_prime,
        points_vacuous=not target_primes,
        continuity_exact=continuity,
        injectivity_certificate=injectivity,
        kernel_hull=kernel_hull,
        density=density,
        kernel_in_nil=kernel_in_nil,
        density_matches_kernel=density_match,
        density_vacuous=not source_primes,
        witness=witness,
    )


@dataclass(frozen=True)
class NilQuotientReport:
    """Spectrum of A against the spectrum of A modulo its nil radical.

    Every prime contains the nil radical, so the hull of the projection's
    kernel is all of Spec A.  The projection is onto, so its point map
    is injective and bi-closed once its image is that hull: homeomorphic
    needs only the kernel-hull and continuity certificates.
    """

    kind: str
    nil: Mask
    homeomorphic: bool
    vacuous: bool
    witness: tuple | None


def nil_quotient_homeo(brace: SkewBrace, kind: str = "star") -> NilQuotientReport:
    """Projection onto A/nil induces a one-to-one, bi-closed point map."""
    nil = nil_radical(brace, kind)
    rep = induced_spec_map(quotient(brace, nil).projection, kind)
    return NilQuotientReport(
        kind=kind,
        nil=nil,
        homeomorphic=rep.kernel_hull is True and rep.continuity_exact is True,
        vacuous=rep.points_vacuous and rep.density_vacuous,
        witness=rep.witness,
    )


# ---------------------------------------------------------------------------
# corpus helpers


def quotient_projections(brace: SkewBrace) -> tuple[Hom, ...]:
    """Projections onto the quotient by every ideal, zero and full included."""
    return tuple(
        quotient(brace, m).projection for m in ideal_lattice(brace).members
    )


@lru_cache(maxsize=None)
def endomorphisms(brace: SkewBrace) -> tuple[Hom, ...]:
    """Every self-map preserving both operations, found by brute force."""
    n = brace.order
    add, mul = brace.add, brace.mul
    out = []
    for tail in itertools.product(range(n), repeat=n - 1):
        m = (0,) + tail
        if all(
            m[add[a][b]] == add[m[a]][m[b]] and m[mul[a][b]] == mul[m[a]][m[b]]
            for a in range(n)
            for b in range(n)
        ):
            out.append(Hom(brace, brace, m))
    return tuple(out)
