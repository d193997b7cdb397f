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


def parallel(l1: MomentLine, l2: MomentLine) -> bool:
    return l1.z == l2.z


def vandermonde_rank(field: Field, zs: tuple[int, ...], k: int) -> int:
    """Rank over GF(q) of the matrix whose rows are moment vectors of zs.

    Gaussian elimination with first-nonzero pivoting. Distinct zs are
    required; a repeat is rejected rather than silently dropping rank.
    """
    check_k(k)
    zs = tuple(zs)
    if len(set(zs)) != len(zs):
        raise ValueError(f"direction parameters must be distinct, got {zs}")
    if len(zs) > k:
        raise ValueError(f"at most {k} rows fit an ambient dimension of {k}")
    rows = [list(moment_vector(field, z, k)) for z in zs]
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = field.mul(rows[r][col], inv)
                rows[r] = [
                    field.sub(a, field.mul(f, b)) for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
        if rank == len(rows):
            break
    return rank


def enumerate_lines(field: Field, k: int) -> list[MomentLine]:
    """All q^k canonical lines, ordered by (z, base-q encoding of base)."""
    check_k(k)
    q = field.q
    if q**k > LINE_CAP:
        raise SizeLimitError(f"q^k = {q**k} exceeds line cap {LINE_CAP}")
    return [
        MomentLine(z, (0, *base_q_digits(b, q, k - 1)))
        for z in range(q)
        for b in range(q ** (k - 1))
    ]
