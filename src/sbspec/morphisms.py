"""Brace homomorphisms, quotients, and the induced maps between spectra.

A homomorphism preserves both operations, so its kernel and the
contraction of any ideal are ideals and its image is a subbrace; these
follow from validate_hom and are not re-checked.  Extension moves ideals
the other way.  Quotients are taken by the additive cosets of a member
of the ideal lattice, and the projection is a homomorphism by theory.
A homomorphism f pulls primes of the target back to the source, and the
reports below certify, by direct computation, how that point map
interacts with the hull-kernel topology: continuity, the injectivity
criterion, image = hull of the kernel for surjections, and density, read
off the two hull-kernel spaces (spec_topology).  The certificates are
computed at the target's points, so a target with no prime costs no
extension.  Each report keeps only the certificates that no other field
of it implies.  Certificates over empty spectra are reported as vacuous,
never silently folded into a pass.  A prime that contracts to the whole
source is reported as a failed contraction, not raised as an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bitsets import bits, full_mask, is_subset, mask_of
from .braces import SkewBrace
from .errors import NotAHomomorphismError, NotAnIdealError, ParseError
from .groups import _law_witness, homomorphisms
from .ideals import generated_ideal, ideal_lattice
from .spectra import is_prime
from .topology import spec_topology

Mask = int


@dataclass(frozen=True)
class Hom:
    """A validated homomorphism between two braces: the two braces and the
    image of each source element.  It holds no table of extensions or
    contractions; each is computed where a report reads it."""

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
    """Check both preservation laws on the source's generators; return the hom."""
    if not isinstance(mapping, (list, tuple)):
        raise ParseError(f"mapping is a {type(mapping).__name__}, not a list")
    m = tuple(mapping)
    if len(m) != source.order:
        raise ParseError(
            f"mapping has {len(m)} entries for a source of order {source.order}"
        )
    for v in m:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < target.order:
            raise ParseError(f"mapping value {v!r} is not a target element")
    for law, table, onto, gens in (
        ("add", source.add, target.add, source.add_generators),
        ("mul", source.mul, target.mul, source.mul_generators),
    ):
        bad = _law_witness(m, table, onto, gens)
        if bad is not None:
            raise NotAHomomorphismError(law, *bad)
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
    The tables are read off the representatives: an ideal is normal in
    both groups and a ∘ I = a + λ_a(I) = a + I, so they are the quotient
    groups and the coset map is a homomorphism onto them; the tests run
    validate_hom on every projection of catalog <= 6 and of six larger braces.
    The input must be a member of the ideal lattice, which every caller
    has built; past MEMBER_BOUND members that lattice refuses.
    """
    if ideal not in ideal_lattice(brace).index:
        raise NotAnIdealError("quotient-input", list(bits(ideal)))
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
    coset_of = tuple(coset_of)
    return Quotient(brace, ideal, tuple(reps), coset_of, qbrace, Hom(brace, qbrace, coset_of))


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
    """Pull the points of the target's space back along f and certify the map.

    Every certificate quantifies over the target's points q, so an
    extension e(I) is closed only where a point reads it.  Continuity
    compares, for each source ideal I, the points whose contraction holds
    I with the points that hold e(I); with no points both sides are empty
    for every I, so it holds and the loop over I does not run.

    The injectivity premise, every point is an extension, is tested as
    e(c(q)) = q, one closure per point.  Proof: if q = e(I) for a source
    ideal I, then f(I) ⊆ q gives I ⊆ c(q), and f(c(q)) ⊆ q gives
    e(c(q)) ⊆ q, so q = e(I) ⊆ e(c(q)) ⊆ q.  The converse is the case
    I = c(q).
    """
    source = spec_topology(f.source, kind)
    target = spec_topology(f.target, kind)
    witness = None

    point_map = tuple((p, f.preimage_of(p)) for p in target.points)
    # a contraction is prime exactly when it is a point of the source
    # space; is_prime runs only to name the failing pair.  A prime that
    # holds the image of f contracts to the whole source, which is not
    # proper, so is_prime has no pair to name.
    source_points = set(source.points)
    top = full_mask(f.source.order)
    contractions_prime = True
    for p, c in point_map:
        if c not in source_points:
            contractions_prime = False
            witness = witness or (
                "contraction-not-prime", p, c,
                "not proper" if c == top else is_prime(f.source, c, kind)[1],
            )

    continuity = None
    if contractions_prime:
        continuity = True
        for i in ideal_lattice(f.source).members if point_map else ():
            e = extension(f, i)
            lhs = frozenset(p for p, c in point_map if is_subset(i, c))
            rhs = frozenset(p for p in target.points if is_subset(e, p))
            if lhs != rhs:
                continuity = False
                witness = witness or ("continuity", i, lhs, rhs)

    contracted = {c for _, c in point_map}
    injectivity = None
    if contractions_prime and all(extension(f, c) == q for q, c in point_map):
        injectivity = len(contracted) == len(point_map)
        if not injectivity:
            witness = witness or ("injectivity",)

    ker = kernel(f)
    kernel_hull = None
    if contractions_prime and is_surjective(f):
        hull = {source.points[i] for i in bits(source.hull_of_elements(ker))}
        kernel_hull = contracted == hull
        if not kernel_hull:
            witness = witness or ("kernel-hull", contracted, hull)

    kernel_in_nil = is_subset(ker, source.kern(source.space.everything))
    density = None
    density_match = None
    if contractions_prime:
        im = mask_of(i for i, p in enumerate(source.points) if p in contracted)
        density = source.closure(im) == source.space.everything
        density_match = density == kernel_in_nil
        if not density_match:
            witness = witness or ("density", density, kernel_in_nil)

    return SpecMapReport(
        kind=kind,
        point_map=point_map,
        contractions_prime=contractions_prime,
        points_vacuous=not target.points,
        continuity_exact=continuity,
        injectivity_certificate=injectivity,
        kernel_hull=kernel_hull,
        density=density,
        kernel_in_nil=kernel_in_nil,
        density_matches_kernel=density_match,
        density_vacuous=not source.points,
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
    hk = spec_topology(brace, kind)
    nil = hk.kern(hk.space.everything)
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
    """Every self-map preserving both operations, in lex order of mappings:
    the additive endomorphisms (groups.homomorphisms) that also carry mul."""
    mul = brace.mul
    return tuple(
        Hom(brace, brace, m)
        for m in homomorphisms(brace.add, brace.add)
        if _law_witness(m, mul, mul, brace.mul_generators) is None
    )
