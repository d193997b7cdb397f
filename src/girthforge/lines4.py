"""General lines in GF(q)^4 and quadrilateral-free families of them.

A line {x + y*d} is stored projectively canonical: the direction is
scaled so its first nonzero coordinate (the pivot) is 1, and the base
point is shifted along the line so its pivot coordinate is 0. Equal
point sets then compare equal as tuples.

Both searches treat a line as the set of its q points and name a point
by its integer id, the base-q number whose digits are the coordinates
with x_0 the most significant, so ascending ids are ascending point
tuples. Two distinct lines meet exactly when they share a point, so one
index from each point to the lines through it gives every intersection
of a family without solving a system per pair.

A "C4 of lines" is four distinct lines whose consecutive pairs meet in
four pairwise distinct points; equivalently an 8-cycle in the incidence
graph between the lines and their multi-line points. The detector
reads those points and the point side of that graph off the index,
takes the line side as its ``rows.transpose`` and the first 8-cycle
there from ``verify.first_cycle``, which meets half-paths to find the
least point that is the minimum of an 8-cycle and runs the cycle DFS
from that point alone; ``gf.base_q_digits`` decodes its points. The
greedy search keeps, as int bitsets over its members, the members
through each point and the members meeting each member; a candidate
closes a C4 when one AND of those bitsets per (hit, neighbour) pair
is nonzero.
"""

from __future__ import annotations

import random
from collections import defaultdict
from itertools import product
from operator import add
from typing import IO, Callable, Iterable, NamedTuple

from girthforge.errors import SizeLimitError
from girthforge.gf import Field, base_q_digits, field_order
from girthforge.graph import BiGraph, check_body, read_header
from girthforge.moment import Point, enumerate_lines, moment_vector
from girthforge.rows import Rows, transpose
from girthforge.verify import first_cycle

DIM = 4
FAMILY_CAP = 1 << 16
# The line searches index every point of GF(q)^4: a field whose q^4
# points pass this cap is refused, by _point_ids and by a family header.
LINE_CAP = 1 << 22
GREEDY_Q_CAP = 8
FAMILY_FORMAT = "girthforge-lines4"


class GenLine(NamedTuple):
    """Canonical line in GF(q)^4: dir pivot is 1, base pivot is 0."""

    dir: Point
    base: Point


class LineC4Witness(NamedTuple):
    """Four distinct lines meeting consecutively in four distinct points."""

    lines: tuple[GenLine, GenLine, GenLine, GenLine]
    points: tuple[Point, Point, Point, Point]


def _pivot(q: int, x: Point, d: Point) -> int:
    """The index of d's first nonzero coordinate, after checking that x
    and d are points of GF(q)^4 and d is nonzero."""
    if len(x) != DIM or len(d) != DIM:
        raise ValueError(f"points must have dimension {DIM}")
    if not all(0 <= c < q for c in x + d):
        raise ValueError(f"coordinate of {x} or {d} lies outside GF({q})")
    piv = next((i for i, di in enumerate(d) if di), None)
    if piv is None:
        raise ValueError("direction must be nonzero")
    return piv


def canonical_genline(field: Field, x: Point, d: Point) -> GenLine:
    """Canonicalize the line through x with direction d."""
    piv = _pivot(field.q, x, d)
    scale = field.inv(d[piv])
    direction = tuple(field.mul(scale, di) for di in d)
    y = x[piv]
    base = tuple(field.sub(xi, field.mul(y, di)) for xi, di in zip(x, direction))
    return GenLine(direction, base)


def _check_points(q: int) -> None:
    """Refuse a field whose q^4 points would pass LINE_CAP."""
    if q**DIM > LINE_CAP:
        raise SizeLimitError(f"q^{DIM} = {q**DIM} exceeds line cap {LINE_CAP}")


def _point_ids(field: Field) -> Callable[[GenLine], list[int]]:
    """The function giving a line's q point ids, in order of y.

    terms[i][b][d] is the tuple over y of (b + y*d) * q^(3 - i), the part
    of the id of point base + y*dir that coordinate i contributes when
    base_i = b and dir_i = d; a point's id is the sum of four such parts.
    The tables hold 4 q^3 entries, so a field past LINE_CAP is refused
    before they are made.
    """
    q = field.q
    _check_points(q)
    terms = []
    for i in range(DIM):
        w = q ** (DIM - 1 - i)
        # Entry y of mul_rows[d] is y * d, which indexes the scaled row of b.
        scaled = [[w * v for v in row].__getitem__ for row in field.add_rows]
        terms.append([[tuple(map(row, by_y)) for by_y in field.mul_rows] for row in scaled])
    t0, t1, t2, t3 = terms

    def ids(line: GenLine) -> list[int]:
        (d0, d1, d2, d3), (b0, b1, b2, b3) = line
        return list(map(add, map(add, t0[b0][d0], t1[b1][d1]), map(add, t2[b2][d2], t3[b3][d3])))

    return ids


def genline_count(field: Field) -> int:
    """q^3 * (q^4 - 1) / (q - 1): one canonical direction per projective
    point and q^3 bases per direction."""
    q = field.q
    return q ** (DIM - 1) * (q**DIM - 1) // (q - 1)


def all_genlines(field: Field) -> list[GenLine]:
    """Every distinct line of GF(q)^4, canonically sorted.

    There are genline_count(field) of them. They are made in order: a
    later pivot sorts first, and within a pivot the direction tails and
    then the bases, each with 0 at the pivot, come from product in
    lexicographic order.
    """
    q = field.q
    lines = []
    for piv in reversed(range(DIM)):
        bases = [b[:piv] + (0,) + b[piv:] for b in product(range(q), repeat=DIM - 1)]
        for tail in product(range(q), repeat=DIM - 1 - piv):
            direction = (0,) * piv + (1, *tail)
            lines += [GenLine(direction, b) for b in bases]
    return lines


def _check_family_size(n: int) -> None:
    if n > FAMILY_CAP:
        raise SizeLimitError(f"family of {n} exceeds cap {FAMILY_CAP}")


def moment_seed(field: Field) -> list[GenLine]:
    """The q^4 moment-curve lines of GF(q)^4 re-expressed as GenLines.

    A seed that has_line_c4 would refuse is refused before it is built.
    """
    _check_family_size(field.q**DIM)
    dirs = [moment_vector(field, z, DIM) for z in range(field.q)]
    return [GenLine(dirs[line.z], line.base) for line in enumerate_lines(field, DIM)]


def validate_line_c4(field: Field, w: LineC4Witness) -> LineC4Witness:
    if len(set(w.lines)) != 4:
        raise ValueError("witness lines not pairwise distinct")
    if len(set(w.points)) != 4:
        raise ValueError("witness points not pairwise distinct")
    # Distinct lines through the same point meet there alone.
    for i in range(4):
        pair = (w.lines[i], w.lines[(i + 1) % 4])
        if any(canonical_genline(field, w.points[i], line.dir) != line for line in pair):
            raise ValueError(f"lines {pair} do not meet at {w.points[i]}")
    return w


def has_line_c4(field: Field, family: Iterable[GenLine]) -> LineC4Witness | None:
    """Find a C4 of lines in the family, or None.

    Builds the incidence graph between the family and every point on at
    least two of its lines, the point side from the index of the lines
    through each point and the line side as its rows.transpose; a C4 of
    lines is exactly an 8-cycle there, its points read by gf.base_q_digits.
    """
    fam = sorted(set(family))
    _check_family_size(len(fam))
    ids = _point_ids(field)
    through: defaultdict[int, list[int]] = defaultdict(list)
    for i, line in enumerate(fam):
        for pt in ids(line):
            through[pt].append(i)
    pts = sorted(pt for pt, idxs in through.items() if len(idxs) > 1)
    n = len(pts)
    # through[pt] lists the lines through pt in ascending order.
    adj_p = Rows.of([n + li for li in through[pt]] for pt in pts)
    g = BiGraph(n, len(fam), adj_p, transpose(adj_p, len(fam), n))
    cycle = first_cycle(g, 8)
    if cycle is None:
        return None
    # Cycle alternates point, line, point, line, ... starting on the
    # point side (point IDs sort below line IDs).
    cyc_lines = tuple(fam[cycle[i] - g.nP] for i in (1, 3, 5, 7))
    # A point id's base-q digits, least significant first, are x_3 .. x_0.
    cyc_points = tuple(base_q_digits(pts[cycle[i]], field.q, DIM)[::-1] for i in (2, 4, 6, 0))
    return validate_line_c4(field, LineC4Witness(cyc_lines, cyc_points))


class C4FreeFamily:
    """Incrementally grown family with no C4 of lines.

    Members are numbered in order of addition, and a set of members is
    an int with bit i set for member i. For each point id pt,
    _through[pt] lists the members through pt and _at[pt] is their set;
    for each member i, _adj[i] lists (member, meeting point id) of the
    members meeting it and _meets[i] is their set. A candidate costs q
    index lookups plus one AND per (hit, neighbour) pair.
    """

    def __init__(self, field: Field):
        # The index below holds one list and one int per point: q^4 each.
        if field.q > GREEDY_Q_CAP:
            raise SizeLimitError(f"greedy search capped at q <= {GREEDY_Q_CAP}")
        self.field = field
        self.lines: list[GenLine] = []
        self._ids = _point_ids(field)
        n = field.q**DIM
        self._through: list[list[int]] = [[] for _ in range(n)]
        self._at = [0] * n
        self._adj: list[list[tuple[int, int]]] = []
        self._meets: list[int] = []

    def _intersections(self, cand: GenLine, pts: list[int]) -> list[tuple[int, int]]:
        """(member index, meeting point id) of each member that cand, a
        non-member with point ids pts, meets."""
        through = self._through
        return [(idx, pt) for pt in pts for idx in through[pt]]

    def _closes_c4(self, hits: list[tuple[int, int]], hit: int) -> bool:
        """Would a line meeting the members as in hits, whose set is hit,
        close a C4 of lines?

        Such a C4 runs from the line to a hit a at pa, to a neighbour c
        of a at x != pa, to a hit b at y and back to the line at pb, with
        b != a and pb, pa, x, y distinct. Two distinct lines share at
        most one point, so b not through pa means b != a and pb != pa, b
        not through x means y != x, and when c meets the line at pc, b
        not through pc means pb != y; y = pa or pb = x would put b
        through pa or x. So the candidates b for a given (a, c) are
        meets[c] & hit minus the members through pa, x and pc.
        """
        at, meets, adj = self._at, self._meets, self._adj
        # point_of[c], where a hit c meets the line, is made on first need.
        point_of: dict[int, int] = {}
        for a, pa in hits:
            rest = hit & ~at[pa]
            if not rest:
                continue
            for c, x in adj[a]:
                if x == pa:
                    continue
                b = meets[c] & rest & ~at[x]
                if b and hit >> c & 1:
                    point_of = point_of or dict(hits)
                    b &= ~at[point_of[c]]
                if b:
                    return True
        return False

    def try_add(self, cand: GenLine) -> bool:
        """Add cand if the family stays C4-of-lines-free."""
        pts = self._ids(cand)
        at = self._at
        # Two points fix a line: a member through both of cand's first
        # two points is cand.
        if at[pts[0]] & at[pts[1]]:
            return False
        hits = self._intersections(cand, pts)
        # cand is no member, so each member meets it in one point at most:
        # these sets are disjoint and their sum is their union.
        hit = sum(map(at.__getitem__, pts))
        if self._closes_c4(hits, hit):
            return False
        new_idx = len(self.lines)
        bit = 1 << new_idx
        self.lines.append(cand)
        through = self._through
        for pt in pts:
            through[pt].append(new_idx)
            at[pt] |= bit
        self._adj.append(hits)
        self._meets.append(hit)
        adj, meets = self._adj, self._meets
        for idx, pt in hits:
            adj[idx].append((new_idx, pt))
            meets[idx] |= bit
        return True


def greedy_c4free(field: Field, seed: int) -> list[GenLine]:
    """Greedily grow a maximal C4-of-lines-free family over GF(q)^4.

    Candidates are all lines of the space in a seeded pseudorandom
    order. The result is
    maximal: any skipped line would close a C4 against the members
    accepted before it, and members only accumulate.
    """
    fam = C4FreeFamily(field)
    order = all_genlines(field)
    random.Random(seed).shuffle(order)
    for cand in order:
        fam.try_add(cand)
    return fam.lines


def genline_text(line: GenLine) -> str:
    """The line as family files and witness reports spell it."""
    return f"dir={','.join(map(str, line.dir))} base={','.join(map(str, line.base))}"


def write_family(field: Field, family: Iterable[GenLine], sink: IO[str]) -> None:
    fam = list(family)
    sink.write(f"{FAMILY_FORMAT} p={field.p} m={field.m} n={len(fam)}\n")
    for line in fam:
        sink.write(genline_text(line) + "\n")


def parse_family(text: str) -> tuple[int, int, list[GenLine]]:
    """Read a family file back as (p, m, lines); every line must be canonical.

    A line is canonical exactly when its direction's pivot is 1 and its
    base's pivot coordinate is 0, so the check reads the coordinates and
    does no field arithmetic; the field is never made.
    """
    kv, start = read_header(text, FAMILY_FORMAT, ("p", "m", "n"))
    check_body(text, start, "n", kv["n"])
    p, m = kv["p"], kv["m"]
    q = field_order(p, m)
    _check_points(q)
    fam = []
    for ln in text[start:].split("\n")[:-1]:
        dpart, _, bpart = ln.partition(" base=")
        try:
            line = GenLine(
                tuple(map(int, dpart.removeprefix("dir=").split(","))),
                tuple(map(int, bpart.split(","))),
            )
        except ValueError:
            line = None
        # Only genline_text's spelling is accepted: both keys, each number
        # written one way.
        if line is None or genline_text(line) != ln:
            raise ValueError(f"line {ln!r}: expected dir=<ints> base=<ints>")
        try:
            piv = _pivot(q, line.base, line.dir)
            if line.dir[piv] != 1 or line.base[piv]:
                raise ValueError("not in canonical form")
        except ValueError as exc:
            raise ValueError(f"line {ln!r}: {exc}") from None
        fam.append(line)
    return p, m, fam
