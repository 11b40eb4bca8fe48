"""Small helpers for subsets of {0, ..., n-1} stored as int bitmasks."""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(items: Iterable[int]) -> int:
    m = 0
    for i in items:
        m |= 1 << i
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def elements(mask: int) -> tuple[int, ...]:
    return tuple(bits(mask))


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def full_mask(n: int) -> int:
    return (1 << n) - 1


def popcount(mask: int) -> int:
    return mask.bit_count()


def hasse_edges(masks) -> list[tuple[int, int]]:
    """Covering pairs (x, y) with x strictly below y in the subset order:
    taken in size order, y covers x when no earlier cover of x lies in y."""
    items = sorted(set(masks), key=lambda m: (popcount(m), m))
    edges = []
    for i, x in enumerate(items):
        covers: list[int] = []
        for y in items[i + 1:]:
            if is_subset(x, y) and not any(is_subset(c, y) for c in covers):
                covers.append(y)
        edges.extend((x, y) for y in covers)
    return edges
