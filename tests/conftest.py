"""Shared fixtures: small seed braces with hand-checkable structure.

The fixture braces are chosen so that every interesting quantity
(ideals, star products, spectra) can be computed by hand:

- z4_radical: Z4 addition with a ∘ b = a + b + 2ab (mod 4).  Its star
  product is a*b = 2ab, the ideals form the chain 0 < {0,2} < A, and
  A*A = {0,2}.
- s3_almost: S3 addition with a ∘ b = b + a.  Star products are
  commutators, the proper nonzero ideal is the alternating subgroup
  (elements {0, 3, 4} in the table labelling), and A*A is that ideal.
- v4_trivial: Klein four group with a ∘ b = a + b.  Star is constantly
  zero, so every additive subgroup is an ideal (five in total).
- a5_trivial, a5_almost: the trivial and almost-trivial braces on the
  alternating group A5 (order 60).  A5 is simple, so the ideals are {0}
  and A5, and {0} is prime for huq on both and for star and ksv on the
  almost-trivial one, so their spectra are not empty.
- s4_trivial, s4_almost, a4_almost: braces on S4 and A4 whose ideals
  are the normal subgroups.  All their spectra are empty, so they are
  negative controls for the A5 spectra.
- groups8, groups12: the five groups of order 8 and the five of order
  12, by name.  The abelian ones are direct products of cyclic tables;
  D4, Q8, A4, D6 and Dic3 = Z3 ⋊ Z4 are generated by permutations.
- suite12_braces: the six braces of order 8-12 that the suite12
  benchmark workload runs.
- b_brace, b_prime_brace: B and B', the two classes of braces on A4
  (the twist enumeration on the A4 table) with only the ideals {0} and
  A.  Each has {0} as its one prime of every kind, so B x B and B x B'
  have four ideals and two points per kind.
"""

import pytest

from sbspec.braces import SkewBrace, almost_trivial_brace, trivial_brace, validate
from sbspec.catalog import generate_catalog
from sbspec.groups import (
    cyclic_table,
    klein_table,
    permutation_table,
    product_table,
    symmetric_table,
)


@pytest.fixture(scope="session")
def zero_brace() -> SkewBrace:
    return trivial_brace(((0,),))


@pytest.fixture(scope="session")
def z2_trivial() -> SkewBrace:
    return trivial_brace(cyclic_table(2))


@pytest.fixture(scope="session")
def z3_trivial() -> SkewBrace:
    return trivial_brace(cyclic_table(3))


@pytest.fixture(scope="session")
def z4_trivial() -> SkewBrace:
    return trivial_brace(cyclic_table(4))


@pytest.fixture(scope="session")
def z4_radical() -> SkewBrace:
    add = cyclic_table(4)
    mul = tuple(tuple((a + b + 2 * a * b) % 4 for b in range(4)) for a in range(4))
    return validate(add, mul)


@pytest.fixture(scope="session")
def v4_trivial() -> SkewBrace:
    return trivial_brace(klein_table())


@pytest.fixture(scope="session")
def s3_trivial() -> SkewBrace:
    return trivial_brace(symmetric_table(3))


@pytest.fixture(scope="session")
def s3_almost() -> SkewBrace:
    return almost_trivial_brace(symmetric_table(3))


def _alternating_table(m: int):
    """Cayley table of the even permutations of m letters, identity first:
    `permutation_table` on the 3-cycles (0 1 k), which generate A_m."""
    cycles = []
    for k in range(2, m):
        p = list(range(m))
        p[0], p[1], p[k] = 1, k, 0
        cycles.append(tuple(p))
    return permutation_table(cycles)


@pytest.fixture(scope="session")
def groups8():
    z2, z4 = cyclic_table(2), cyclic_table(4)
    return {
        "Z8": cyclic_table(8),
        "Z4xZ2": product_table(z4, z2),
        "Z2^3": product_table(klein_table(), z2),
        # the symmetries of a square: rotation, reflection
        "D4": permutation_table(((1, 2, 3, 0), (0, 3, 2, 1))),
        # the regular action of i and j on the eight unit quaternions
        "Q8": permutation_table(((2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3))),
    }


@pytest.fixture(scope="session")
def groups12():
    return {
        "Z12": cyclic_table(12),
        "Z2xZ6": product_table(cyclic_table(2), cyclic_table(6)),
        "A4": permutation_table(((1, 2, 0, 3), (0, 2, 3, 1))),
        # the symmetries of a hexagon: rotation, reflection
        "D6": permutation_table(((1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1))),
        # a 3-cycle, and an element of order 4 that inverts it by conjugation
        "Dic3": permutation_table(((1, 2, 0, 3, 4, 5, 6), (0, 2, 1, 4, 5, 6, 3))),
    }


@pytest.fixture(scope="session")
def suite12_braces(groups12):
    """The six order 8-12 braces of the suite12 benchmark workload."""
    s3xz2 = product_table(symmetric_table(3), cyclic_table(2))
    return [
        trivial_brace(product_table(klein_table(), cyclic_table(2))),
        trivial_brace(cyclic_table(12)),
        trivial_brace(groups12["A4"]),
        almost_trivial_brace(groups12["A4"]),
        trivial_brace(s3xz2),
        almost_trivial_brace(s3xz2),
    ]


# The A4 table of permutation_table(((1, 2, 0, 3), (0, 2, 3, 1))), and the
# ∘-tables of B and B', the first twist map of each class in enumeration order.
_A4_ADD = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
    (1, 2, 0, 6, 8, 7, 9, 11, 10, 3, 4, 5),
    (2, 0, 1, 9, 10, 11, 3, 5, 4, 6, 8, 7),
    (3, 5, 4, 0, 2, 1, 10, 9, 11, 7, 6, 8),
    (4, 3, 5, 7, 6, 8, 0, 1, 2, 10, 11, 9),
    (5, 4, 3, 10, 11, 9, 7, 8, 6, 0, 2, 1),
    (6, 7, 8, 1, 0, 2, 4, 3, 5, 11, 9, 10),
    (7, 8, 6, 4, 5, 3, 11, 10, 9, 1, 0, 2),
    (8, 6, 7, 11, 9, 10, 1, 2, 0, 4, 5, 3),
    (9, 11, 10, 2, 1, 0, 8, 6, 7, 5, 3, 4),
    (10, 9, 11, 5, 3, 4, 2, 0, 1, 8, 7, 6),
    (11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
)
_B_MUL = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
    (1, 2, 0, 6, 8, 7, 9, 11, 10, 3, 4, 5),
    (2, 0, 1, 9, 10, 11, 3, 5, 4, 6, 8, 7),
    (3, 9, 6, 11, 1, 4, 7, 10, 0, 5, 2, 8),
    (4, 10, 8, 2, 11, 6, 1, 3, 7, 0, 5, 9),
    (5, 7, 11, 10, 3, 2, 4, 0, 6, 8, 9, 1),
    (6, 3, 9, 5, 2, 8, 11, 4, 1, 7, 0, 10),
    (7, 11, 5, 4, 6, 0, 8, 1, 9, 10, 3, 2),
    (8, 4, 10, 0, 5, 9, 2, 6, 11, 1, 7, 3),
    (9, 6, 3, 7, 0, 10, 5, 8, 2, 11, 1, 4),
    (10, 8, 4, 1, 7, 3, 0, 9, 5, 2, 11, 6),
    (11, 5, 7, 8, 9, 1, 10, 2, 3, 4, 6, 0),
)
_B_PRIME_MUL = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11),
    (1, 2, 0, 5, 3, 4, 7, 8, 6, 11, 9, 10),
    (2, 0, 1, 4, 5, 3, 8, 6, 7, 10, 11, 9),
    (3, 5, 4, 0, 2, 1, 10, 9, 11, 7, 6, 8),
    (4, 3, 5, 2, 1, 0, 11, 10, 9, 6, 8, 7),
    (5, 4, 3, 1, 0, 2, 9, 11, 10, 8, 7, 6),
    (6, 8, 7, 10, 9, 11, 3, 4, 5, 2, 0, 1),
    (7, 6, 8, 9, 11, 10, 5, 3, 4, 0, 1, 2),
    (8, 7, 6, 11, 10, 9, 4, 5, 3, 1, 2, 0),
    (9, 10, 11, 7, 8, 6, 1, 0, 2, 3, 5, 4),
    (10, 11, 9, 6, 7, 8, 0, 2, 1, 4, 3, 5),
    (11, 9, 10, 8, 6, 7, 2, 1, 0, 5, 4, 3),
)


@pytest.fixture(scope="session")
def b_brace() -> SkewBrace:
    return validate(_A4_ADD, _B_MUL)


@pytest.fixture(scope="session")
def b_prime_brace() -> SkewBrace:
    return validate(_A4_ADD, _B_PRIME_MUL)


@pytest.fixture(scope="session")
def a5_trivial() -> SkewBrace:
    return trivial_brace(_alternating_table(5))


@pytest.fixture(scope="session")
def a5_almost() -> SkewBrace:
    return almost_trivial_brace(_alternating_table(5))


@pytest.fixture(scope="session")
def s4_trivial() -> SkewBrace:
    return trivial_brace(symmetric_table(4))


@pytest.fixture(scope="session")
def s4_almost() -> SkewBrace:
    return almost_trivial_brace(symmetric_table(4))


@pytest.fixture(scope="session")
def a4_almost() -> SkewBrace:
    return almost_trivial_brace(_alternating_table(4))


@pytest.fixture(scope="session")
def catalog4():
    return generate_catalog(4)


@pytest.fixture(scope="session")
def catalog6():
    return generate_catalog(6)
