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
"""

import itertools

import pytest

from sbspec.braces import SkewBrace, almost_trivial_brace, trivial_brace, validate
from sbspec.catalog import generate_catalog
from sbspec.groups import cyclic_table, klein_table, symmetric_table


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
    """Cayley table of the even permutations of m letters, identity first."""
    perms = sorted(
        p
        for p in itertools.permutations(range(m))
        if sum(p[i] > p[j] for i in range(m) for j in range(i + 1, m)) % 2 == 0
    )
    index = {p: i for i, p in enumerate(perms)}
    return tuple(
        tuple(index[tuple(p[q[x]] for x in range(m))] for q in perms) for p in perms
    )


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
