"""Moment-curve line families in F_q^k.

Lines come in q parallel classes, one per direction parameter z, with
direction vector (1, z, z^2, ..., z^{k-1}). Because that vector always
starts with 1, the shift along a line that zeroes the first coordinate
of a base point is unique; the shifted base is the canonical
representative, which makes line equality plain tuple equality.
"""

from __future__ import annotations

from typing import NamedTuple

from girthforge.errors import SizeLimitError
from girthforge.gf import Field

Point = tuple[int, ...]

K_MIN = 2
K_MAX = 8
LINE_CAP = 1 << 22


class MomentLine(NamedTuple):
    """Canonical line {base + y * (1, z, ..., z^(k-1))}; base[0] is 0."""

    z: int
    base: Point


def base_q_digits(v: int, q: int, n: int) -> Point:
    """The n base-q digits of v, least significant first."""
    digits = []
    for _ in range(n):
        v, d = divmod(v, q)
        digits.append(d)
    return tuple(digits)


def check_k(k: int) -> None:
    if not K_MIN <= k <= K_MAX:
        raise ValueError(f"ambient dimension k must be in [{K_MIN}, {K_MAX}], got {k}")


def moment_vector(field: Field, z: int, k: int) -> Point:
    """Direction vector (1, z, z^2, ..., z^(k-1)) in GF(q)^k."""
    check_k(k)
    v = [1]
    cur = 1
    for _ in range(k - 1):
        cur = field.mul(cur, z)
        v.append(cur)
    return tuple(v)


def line_through(field: Field, x: Point, z: int) -> MomentLine:
    """Canonical representative of the direction-z line through x."""
    if not all(0 <= c < field.q for c in (*x, z)):
        raise ValueError(f"point {x} or direction {z} lies outside GF({field.q})")
    mv = moment_vector(field, z, len(x))
    y = x[0]
    base = tuple(field.sub(xi, field.mul(y, mi)) for xi, mi in zip(x, mv))
    return MomentLine(z, base)


def points_on(field: Field, line: MomentLine) -> list[Point]:
    """The q distinct points of the line, in order of the parameter y."""
    mv = moment_vector(field, line.z, len(line.base))
    return [
        tuple(field.add(b, field.mul(y, mi)) for b, mi in zip(line.base, mv))
        for y in field.elements()
    ]


def check_lines(field: Field, k: int) -> None:
    """Raise unless k is in range and the q^k lines fit under LINE_CAP."""
    check_k(k)
    if field.q**k > LINE_CAP:
        raise SizeLimitError(f"q^k = {field.q**k} exceeds line cap {LINE_CAP}")


def enumerate_lines(field: Field, k: int) -> list[MomentLine]:
    """All q^k canonical lines, ordered by (z, base-q encoding of base)."""
    check_lines(field, k)
    q = field.q
    return [
        MomentLine(z, (0, *base_q_digits(b, q, k - 1)))
        for z in range(q)
        for b in range(q ** (k - 1))
    ]
