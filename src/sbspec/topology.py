"""Hull-kernel topology on prime spectra, plus generic finite-space checks.

A HullKernelSpace takes a finite multiplicative lattice, a choice of
points and the product the points are meant to be prime for; it never
reads the brace.  The closed sets are the hulls H(I) = {P : I <= P};
the kernel of a point set is the meet of its members, with the empty
meet read as the top.  Hull and kernel form an antitone Galois pair by
their definitions, for any choice of points: s <= K(T) exactly when T
lies in H(s).  The closure laws and KH = radical follow from that pair,
and T0 from the points being distinct members, so none of them is
recomputed as a check.  What is checked is what depends on the points
being prime: the closed-set axioms of the hull family, with the union
law H(I) | H(J) = H(I J) on the space's product, T1 against Spec = Max,
irreducibility and the closed-chain length.

The intersection law H(x) & H(y) = H(x ∨ y) is checked on member pairs.
That gives every finite family: the empty one is H(bottom) = everything,
one member m is the pair (bottom, m), and since x ∨ y is a member, the
law at (x ∨ y, z) adds one more, associated as reduce(lat.join, ...) is.

FiniteSpace is a plain finite topological space given by its closed
sets; the separation and soberness checks live at that level so they
apply to a spectrum, to the prime spectrum of the ideal lattice, and to
synthetic spaces used in tests alike.  Every finite space is
quasi-compact and Noetherian, so neither is checked as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bitsets import bits, full_mask, is_subset, popcount
from .braces import SkewBrace
from .errors import ConsistencyError
from .ideals import ideal_lattice
from .spectra import ideal_pair_witness, kind_product, spectrum

Mask = int


# ---------------------------------------------------------------------------
# generic finite spaces


@dataclass(frozen=True)
class FiniteSpace:
    """A finite topological space: point count plus closed-set masks."""

    n_points: int
    closed: tuple[int, ...]

    @property
    def everything(self) -> int:
        return full_mask(self.n_points)


def finite_space(n_points: int, closed) -> FiniteSpace:
    family = tuple(sorted(set(closed), key=lambda m: (popcount(m), m)))
    return FiniteSpace(n_points, family)


def is_topology(fs: FiniteSpace) -> tuple[bool, str | None]:
    family = set(fs.closed)
    if 0 not in family:
        return False, "empty set is not closed"
    if fs.everything not in family:
        return False, "whole space is not closed"
    for x in fs.closed:
        for y in fs.closed:
            if x | y not in family:
                return False, f"union of {x:#x} and {y:#x} is not closed"
            if x & y not in family:
                return False, f"intersection of {x:#x} and {y:#x} is not closed"
    return True, None


def closure_in(fs: FiniteSpace, pts: int) -> int:
    out = fs.everything
    for c in fs.closed:
        if is_subset(pts, c):
            out &= c
    return out


def point_closure(fs: FiniteSpace, i: int) -> int:
    return closure_in(fs, 1 << i)


def is_t0(fs: FiniteSpace) -> tuple[bool, tuple | None]:
    for i in range(fs.n_points):
        for j in range(i + 1, fs.n_points):
            if point_closure(fs, i) == point_closure(fs, j):
                return False, (i, j)
    return True, None


def is_t1(fs: FiniteSpace) -> tuple[bool, tuple | None]:
    family = set(fs.closed)
    for i in range(fs.n_points):
        if 1 << i not in family:
            return False, (i,)
    return True, None


def irreducible_closed_sets(fs: FiniteSpace) -> tuple[int, ...]:
    """Nonempty closed sets that are not unions of two smaller closed sets."""
    out = []
    for c in fs.closed:
        if c == 0:
            continue
        reducible = False
        smaller = [d for d in fs.closed if d != c and is_subset(d, c)]
        for x in smaller:
            for y in smaller:
                if x | y == c:
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            out.append(c)
    return tuple(out)


def generic_points(fs: FiniteSpace, c: int) -> tuple[int, ...]:
    return tuple(i for i in bits(c) if point_closure(fs, i) == c)


def is_sober(fs: FiniteSpace) -> tuple[bool, tuple | None]:
    for c in irreducible_closed_sets(fs):
        gps = generic_points(fs, c)
        if len(gps) != 1:
            return False, (c, gps)
    return True, None


def space_components(fs: FiniteSpace) -> tuple[int, ...]:
    """Maximal irreducible closed sets."""
    irr = irreducible_closed_sets(fs)
    return tuple(
        c for c in irr if not any(d != c and is_subset(c, d) for d in irr)
    )


def is_space_irreducible(fs: FiniteSpace) -> bool:
    """The empty space does not count as irreducible."""
    return fs.n_points > 0 and fs.everything in irreducible_closed_sets(fs)


def connected_component_count(fs: FiniteSpace) -> int:
    """The number of components: the minimal nonempty clopen sets of the
    closed family.

    Exact on any finite topology: each component is closed, and there
    are finitely many, so each is also open; every clopen set is a union
    of components.  The family is sorted by size, so a clopen set that is
    not minimal holds one met before it.
    """
    closed, minimal = set(fs.closed), []
    for c in fs.closed:
        if c and fs.everything & ~c in closed and not any(is_subset(d, c) for d in minimal):
            minimal.append(c)
    return len(minimal)


def is_connected(fs: FiniteSpace) -> bool:
    return connected_component_count(fs) == 1


@dataclass(frozen=True)
class SpectralReport:
    t0: bool
    sober: bool

    @property
    def spectral(self) -> bool:
        return self.t0 and self.sober


def spectral_report(fs: FiniteSpace) -> SpectralReport:
    """Check the finite-space reading of the spectral-space conditions.

    Every open of a finite space is quasi-compact, and once is_topology
    holds the opens form a basis closed under finite intersections; so a
    finite topology is spectral exactly when it is T0 and sober.
    """
    ok_top, why = is_topology(fs)
    if not ok_top:
        raise ConsistencyError(f"not a topology: {why}")
    return SpectralReport(is_t0(fs)[0], is_sober(fs)[0])


# ---------------------------------------------------------------------------
# hull-kernel spaces over an ideal lattice


class HullKernelSpace:
    """Points are chosen lattice members; closed sets are hulls of members.

    The lattice is any finite multiplicative lattice of masks under
    inclusion, meets being intersections; the space and its reports read
    only its members, top, bottom, meet, join, maximal_ideals and star.
    No topology axiom is asserted at construction: the axioms are theorems
    about points prime for product and are verified by the report
    functions, which also lets tests exercise them on other choices.
    """

    def __init__(self, lat, points, product):
        self.lat = lat
        self.product = product
        self.points: tuple[Mask, ...] = tuple(
            sorted(points, key=lambda m: (popcount(m), m))
        )
        self.n_points = len(self.points)
        self.hull_by_member: dict[Mask, int] = {
            m: self.hull_of_elements(m) for m in lat.members
        }
        self.space = finite_space(self.n_points, self.hull_by_member.values())

    def hull_of_elements(self, elem_mask: Mask) -> int:
        """Point set of primes containing every masked element."""
        out = 0
        for i, p in enumerate(self.points):
            if is_subset(elem_mask, p):
                out |= 1 << i
        return out

    def hull(self, member: Mask) -> int:
        return self.hull_by_member[member]

    def kern(self, point_set: int) -> Mask:
        """Intersection of the points; the top for no points."""
        out = self.lat.top
        for i in bits(point_set):
            out &= self.points[i]
        return out

    def closure(self, point_set: int) -> int:
        return self.hull_of_elements(self.kern(point_set))


@lru_cache(maxsize=None)
def spec_topology(brace: SkewBrace, kind: str = "star") -> HullKernelSpace:
    """The hull-kernel space on Spec of one kind, over the ideal lattice."""
    lat = ideal_lattice(brace)
    return HullKernelSpace(lat, spectrum(brace, kind).primes, kind_product(lat, kind))


@lru_cache(maxsize=None)
def lattice_spectrum(brace: SkewBrace):
    """Spec(Idl A): the prime elements of the ideal lattice under its star
    multiplication, which are the star primes."""
    return spectrum(brace, "star")


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ClosedAxiomsReport:
    """Closed-set axioms of the hull family, checked exactly."""

    whole_hull_empty: bool
    zero_hull_all: bool
    union_is_meet_hull: bool
    union_is_product_hull: bool
    family_intersections: bool
    witness: tuple | None

    @property
    def ok(self) -> bool:
        return (
            self.whole_hull_empty
            and self.zero_hull_all
            and self.union_is_meet_hull
            and self.union_is_product_hull
            and self.family_intersections
        )


def closed_axioms_report(hk: HullKernelSpace) -> ClosedAxiomsReport:
    """The hull laws of any hull-kernel space, over every lattice member.

    Hulls of the top and bottom; at each member pair, H(I) | H(J) against
    the hulls of the meet and of the space's product, and H(I) & H(J)
    against the hull of the join (the first failing law is the witness).
    The product law holds for points prime for a product that lies in the
    meet, as the star product and the commutator ideal do.
    """
    lat = hk.lat
    witness = None
    whole_empty = hk.hull(lat.top) == 0
    zero_all = hk.hull(lat.bottom) == full_mask(hk.n_points)

    union_meet = union_product = family_ok = True
    for x in lat.members:
        hx = hk.hull(x)
        for y in lat.members:
            hy = hk.hull(y)
            if hx | hy != hk.hull(lat.meet(x, y)):
                union_meet = False
                witness = witness or ("union-meet", x, y)
            if hx | hy != hk.hull(hk.product(x, y)):
                union_product = False
                witness = witness or ("union-product", x, y)
            if hx & hy != hk.hull(lat.join(x, y)):
                family_ok = False
                witness = witness or ("family", x, y)

    return ClosedAxiomsReport(
        whole_empty, zero_all, union_meet, union_product, family_ok, witness
    )


@dataclass(frozen=True)
class SeparationReport:
    n_points: int
    t0: bool
    t1: bool
    spec_equals_max: bool
    hypothesis_square_outside_max: bool
    t1_iff_spec_equals_max: bool | None


def separation_report(hk: HullKernelSpace) -> SeparationReport:
    """T0 and T1, and the conditional equivalence of T1 with Spec = Max.

    The closure of a point P is H(P), and H(P) = H(Q) forces P = Q, so a
    hull-kernel space is T0 and i lies in the closure of j exactly when
    P_j is contained in P_i.  t0 is still computed, for the catalog and
    the JSON report; t1 can differ from Spec = Max.  The hypothesis reads
    the star square of the top, not the space's product.
    """
    lat = hk.lat
    fs = hk.space
    t1 = is_t1(fs)[0]
    maxima = set(lat.maximal_ideals())
    spec_eq_max = set(hk.points) == maxima
    square = lat.star(lat.top, lat.top)
    hypothesis = all(not is_subset(square, m) for m in maxima)
    t1_iff = (t1 == spec_eq_max) if hypothesis else None
    return SeparationReport(
        hk.n_points, is_t0(fs)[0], t1, spec_eq_max, hypothesis, t1_iff
    )


@dataclass(frozen=True)
class IrreducibilityReport:
    n_points: int
    irreducibles_are_point_hulls: bool
    generic_points_unique: bool
    components_are_minimal_hulls: bool
    whole_irreducible: bool
    nil_is_prime: bool
    whole_iff_nil_prime: bool
    witness: tuple | None


def irreducibility_report(hk: HullKernelSpace) -> IrreducibilityReport:
    """Irreducibles against point hulls, components against minimal-point
    hulls, and irreducibility against the nil radical being prime."""
    lat = hk.lat
    fs = hk.space
    witness = None

    irr = set(irreducible_closed_sets(fs))
    hulls = {hk.hull_of_elements(p) for p in hk.points}
    irr_ok = irr == hulls
    if not irr_ok:
        witness = ("irreducibles", tuple(sorted(irr ^ hulls)))

    unique = True
    for c in sorted(irr):
        if len(generic_points(fs, c)) != 1:
            unique = False
            witness = witness or ("generic", c)

    points = hk.points
    minimal = [p for p in points if not any(q != p and is_subset(q, p) for q in points)]
    minimal_hulls = {hk.hull_of_elements(p) for p in minimal}
    comp_ok = set(space_components(fs)) == minimal_hulls
    if not comp_ok:
        witness = witness or ("components",)

    whole_irr = is_space_irreducible(fs)
    nil = hk.kern(fs.everything)
    nil_prime = nil != lat.top and ideal_pair_witness(lat, nil, hk.product) is None
    return IrreducibilityReport(
        hk.n_points, irr_ok, unique, comp_ok, whole_irr, nil_prime,
        whole_irr == nil_prime, witness,
    )


@dataclass(frozen=True)
class NoetherianReport:
    n_points: int
    longest_closed_chain: int

    @property
    def ok(self) -> bool:
        return self.longest_closed_chain == self.n_points + 1


def noetherian_report(hk: HullKernelSpace) -> NoetherianReport:
    """Longest strictly increasing chain of closed sets, empty set included.

    Every finite space is Noetherian, so what is checked instead is that
    the chain has n_points + 1 members: each step adds at least one point,
    and in a T0 space whose closed sets are closed under finite unions the
    closures of the first k points of a linear extension of the
    specialization order reach that length.  A shorter chain means the
    hull family fails one of those two conditions.
    """
    family = hk.space.closed  # sorted by size, so subsets come first
    depth = {}
    for c in family:
        depth[c] = 1 + max((depth[d] for d in depth if is_subset(d, c)), default=0)
    return NoetherianReport(hk.n_points, max(depth.values(), default=0))
