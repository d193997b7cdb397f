"""Moment-curve line families in F_q^k.

Lines come in q parallel classes, one per direction parameter z, with
direction vector (1, z, z^2, ..., z^{k-1}). Because that vector always
starts with 1, the shift along a line that zeroes the first coordinate
of a base point is unique; the shifted base is the canonical
representative, which makes line equality plain tuple equality.

``line_blocks`` and ``point_blocks`` list every incidence by id, each
row already sorted. A point's id is its coordinates read base q with
x_(k-1) as the top digit; a line's is z * q^(k-1) plus its base digits
b_1, ..., b_(k-1) read the same way. So:

- for z = 0 the line is {(y, b_1, ..., b_(k-1))}: listing y lists its
  points in id order, and the direction's rows are 0, 1, ..., q^k - 1;
- for z != 0, x_(k-1) takes each value c once on the line, so listing
  c = 0..q-1 lists its points in id order; with w = z^-1 and
  t = b_(k-1) the c-th point has x_i = b_i + (c - t) * w^(k-1-i);
- the lines through a point x, listed by z, come in id order, since z
  is the top digit of a line id; the direction-z line through x has
  base b_i = x_i - x_0 * z^i.

Each coordinate adds its own term to an id. The kernel packs the q ids
of a row into the 32-bit fields of one Python int, so a row is a sum of
one packed term per coordinate, read from a table of q packed terms per
coordinate, and ``int.to_bytes`` lays it out as the bytes of an
``array('i')``. The point side packs the q rows of x_0 = 0..q-1 into
one int, which makes its terms independent of x_0.

The term tables are read from the field's ``add_rows`` and ``mul_rows``
a whole row at a time, with ``map(row.__getitem__, ...)``: a difference
b - s is entry b of the row of -s. Each term is packed once from field
elements and then scaled to its digit, so the kernels make a few field
calls per direction and coordinate, not one per table entry.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from girthforge.errors import SizeLimitError
from girthforge.gf import Field

Point = tuple[int, ...]

K_MIN = 2
K_MAX = 8
# The q^(k+1) edges of a graph set its memory: 8 bytes an edge, its two
# sides as int32 arrays, or 256 MiB at the cap.
EDGE_CAP = 1 << 25


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
        for y in range(field.q)
    ]


def check_lines(field: Field, k: int) -> None:
    """Raise unless k is in range and the graph's q^(k+1) edges fit under EDGE_CAP."""
    check_k(k)
    e = field.q ** (k + 1)
    if e > EDGE_CAP:
        raise SizeLimitError(f"q^(k+1) = {e} edges exceeds edge cap {EDGE_CAP}")


def enumerate_lines(field: Field, k: int) -> list[MomentLine]:
    """All q^k canonical lines, ordered by (z, base-q encoding of base)."""
    check_lines(field, k)
    q = field.q
    return [
        MomentLine(z, (0, *base_q_digits(b, q, k - 1)))
        for z in range(q)
        for b in range(q ** (k - 1))
    ]


def _pack(values: Iterable[int]) -> int:
    """The int whose 32-bit fields, lowest first, hold values: adding two
    packed ints adds them field by field while every sum stays below 2^31."""
    return int.from_bytes(array("i", values), sys.byteorder)


def _sums(start: int, tables: list[list[int]]) -> list[int]:
    """start plus one entry of each table, for every choice of entries,
    the first table's choice varying fastest, like the lowest digit."""
    sums = [start]
    for table in reversed(tables):
        sums = [s + v for s in sums for v in table]
    return sums


def line_blocks(field: Field, k: int) -> Iterator[bytes]:
    """Each line's q point ids, ascending, in line-id order, as the bytes
    of an array('i'): one block per direction z and top base digit t, so
    a block holds 1/q^2 of the side."""
    q = field.q
    add_rows, mul_rows = field.add_rows, field.mul_rows
    step = q ** (k - 1)
    for t in range(q):
        yield array("i", range(t * step, (t + 1) * step)).tobytes()
    top = _pack(c * step for c in range(q))
    width = 4 * q
    for z in range(1, q):
        w = field.inv(z)
        u = [w]
        while len(u) < k - 1:
            u.append(field.mul(u[-1], w))
        u.reverse()  # u[i] = w^(k-1-i), the step of x_i as c steps by 1
        nu = [field.neg(ui) for ui in u]
        # terms[i][e] packs e + c u_i for c = 0..q-1, scaled to digit i.
        terms = [
            [_pack(map(row.__getitem__, mul_rows[ui])) * q**i for row in add_rows]
            for i, ui in enumerate(u)
        ]
        for t in range(q):
            # x_i = b_i + (c - t) u_i = (b_i - t u_i) + c u_i, and b_0 = 0;
            # b_i - t u_i is entry b_i of the row of s_i = t (-u_i).
            s = list(map(mul_rows[t].__getitem__, nu))
            tables = [list(map(terms[i].__getitem__, add_rows[s[i]])) for i in range(1, k - 1)]
            rows = _sums(top + terms[0][s[0]], tables)
            yield b"".join([row.to_bytes(width, sys.byteorder) for row in rows])


def point_blocks(field: Field, k: int) -> Iterator[bytes]:
    """Each point's q line ids plus q^k, ascending, in point-id order, as
    the bytes of an array('i'): one block per top coordinate x_(k-1).

    One packed int holds the q rows of x_0 = 0..q-1, y then z in its
    fields; the field for (y, z) of coordinate i's term for x_i = c is
    (c - y z^i) q^(i-1), the base digit b_i of that line's id.
    """
    q, n = field.q, field.q**k
    add_rows, mul_rows = field.add_rows, field.mul_rows
    base = _pack(list(range(n, 2 * n, q ** (k - 1))) * q)
    ny = [field.neg(y) for y in range(q)]
    zpow, prods = list(range(q)), []  # zpow[z] = z^i for i = 1, 2, ...
    for _ in range(1, k):
        # -y z^i for each (y, z): c - y z^i is its entry in the row of c.
        prods.append(list(chain.from_iterable(map(mul_rows[y].__getitem__, zpow) for y in ny)))
        zpow = [mul_rows[a][z] for z, a in enumerate(zpow)]

    def term(i: int, c: int) -> int:
        return _pack(map(add_rows[c].__getitem__, prods[i - 1])) * q ** (i - 1)

    tables = [[term(i, c) for c in range(q)] for i in range(1, k - 1)]
    width = 4 * q * q
    for t in range(q):
        rows = _sums(base + term(k - 1, t), tables)
        yield b"".join([row.to_bytes(width, sys.byteorder) for row in rows])
