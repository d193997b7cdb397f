"""Moment-curve line families in F_q^k.

Lines come in q parallel classes, one per direction parameter z, with
direction vector (1, z, z^2, ..., z^{k-1}). Because that vector always
starts with 1, the shift along a line that zeroes the first coordinate
of a base point is unique; the shifted base is the canonical
representative, which makes line equality plain tuple equality.

``point_blocks`` lists every point's lines by id, and ``line_kernel``
gives one line's points by id, each row already sorted. A point's id is
its coordinates read base q with x_(k-1) as the top digit; a line's is
z * q^(k-1) plus its base digits b_1, ..., b_(k-1) read the same way.
So:

- for z = 0 the line is {(y, b_1, ..., b_(k-1))}: listing y lists its
  points in id order, and line b's row is q b, ..., q b + q - 1;
- for z != 0, x_(k-1) takes each value c once on the line, so listing
  c = 0..q-1 lists its points in id order; with w = z^-1 and
  t = b_(k-1) the c-th point has x_i = b_i + (c - t) * w^(k-1-i);
- the lines through a point x, listed by z, come in id order, since z
  is the top digit of a line id; the direction-z line through x has
  base b_i = x_i - x_0 * z^i.

Each coordinate adds its own term to an id. The kernels pack the q ids
of a row into the 32-bit fields of one Python int, so a row is a sum of
one packed term per coordinate, and ``int.to_bytes`` lays it out as the
bytes of an ``array('i')``. The point side packs the q rows of
x_0 = 0..q-1 into one int, which makes its terms independent of x_0,
and reads them from a table of q packed terms per coordinate. A line's
term for coordinate i depends on its direction and on one field
element, so the line kernel makes each term on the first row that
needs it and keeps it: a search that reads a few rows makes a few
terms, and no table of all q^2 terms per coordinate is made.

Terms are read from the field's ``add_rows`` and ``mul_rows`` a whole
row at a time, with ``map(row.__getitem__, ...)``: a difference b - s
is entry b of the row of -s. Each term is packed once from field
elements and then scaled to its digit, so the kernels make a few field
calls per direction and coordinate, not one per table entry.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain
from typing import Callable, Iterable, Iterator, NamedTuple

from girthforge.errors import SizeLimitError
from girthforge.gf import Field, base_q_digits

Point = tuple[int, ...]

K_MIN = 2
K_MAX = 8
# The q^(k+1) edges of a graph set its memory: its P side is an int32
# array, 4 bytes an edge, or 128 MiB at the cap.
EDGE_CAP = 1 << 25


class MomentLine(NamedTuple):
    """Canonical line {base + y * (1, z, ..., z^(k-1))}; base[0] is 0."""

    z: int
    base: Point


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


def line_kernel(field: Field, k: int) -> Callable[[int], array]:
    """The function that maps a local line id to its row: the line's q
    point ids, ascending, as a fresh array('i'), computed from the
    algebra alone.

    A z = 0 line's row is a range. A z != 0 line's is one packed int,
    top + the sum over i < k-1 of the term packing s_i + c u_i scaled
    to digit i, where s_i = b_i - t u_i is entry b_i of the row of
    t (-u_i). A direction's steps u_i are made on its first line, and
    each (z, i, s) term on the first row that reads it, so a row costs
    k - 1 table reads once its terms are made, and no table holds a
    term no row has read.
    """
    q = field.q
    add_rows, mul_rows = field.add_rows, field.mul_rows
    step, inner = q ** (k - 1), q ** (k - 2)
    top = _pack(c * step for c in range(q))
    width, order = 4 * q, sys.byteorder
    # dirs[z] holds, for each coordinate i < k-1 of direction z: -u_i,
    # the column c u_i, the scale q^i and the terms made so far by s.
    dirs: list[list[tuple] | None] = [None] * q

    def direction(z: int) -> list[tuple]:
        # u[i] = w^(k-1-i) for w = 1/z, the step of x_i as c steps by 1
        u = moment_vector(field, field.inv(z), k)[:0:-1]
        coords = dirs[z] = [
            (field.neg(ui), mul_rows[ui], q**i, [None] * q) for i, ui in enumerate(u)
        ]
        return coords

    def row(l: int) -> array:
        z, b = divmod(l, step)
        if not z:
            return array("i", range(q * b, q * b + q))
        t, rest = divmod(b, inner)
        rest *= q  # base digits (b_0, ..., b_(k-2)) with b_0 = 0
        mt = mul_rows[t]
        packed = top
        for nu, col, scale, terms in dirs[z] or direction(z):
            rest, bi = divmod(rest, q)
            s = add_rows[bi][mt[nu]]
            term = terms[s]
            if term is None:
                term = terms[s] = _pack(map(add_rows[s].__getitem__, col)) * scale
            packed += term
        return array("i", packed.to_bytes(width, order))

    return row


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
    # powers[i][z] = z^i; c - y z^i is entry -y z^i of the row of c.
    powers = list(zip(*(moment_vector(field, z, k) for z in range(q))))
    prods = [
        list(chain.from_iterable(map(mul_rows[y].__getitem__, zpow) for y in ny))
        for zpow in powers[1:]
    ]

    def term(i: int, c: int) -> int:
        return _pack(map(add_rows[c].__getitem__, prods[i - 1])) * q ** (i - 1)

    tables = [[term(i, c) for c in range(q)] for i in range(1, k - 1)]
    width = 4 * q * q
    for t in range(q):
        rows = _sums(base + term(k - 1, t), tables)
        yield b"".join([row.to_bytes(width, sys.byteorder) for row in rows])
