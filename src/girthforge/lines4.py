"""General lines in GF(q)^4 and quadrilateral-free families of them.

A line {x + y*d} is stored projectively canonical: the direction is
scaled so its first nonzero coordinate (the pivot) is 1, and the base
point is shifted along the line so its pivot coordinate is 0. Equal
point sets then compare equal as tuples.

Both searches treat a line as the set of its q points. Two distinct
lines meet exactly when they share a point, so one index from each
point to the lines through it gives every intersection of a family
without solving a system per pair.

A "C4 of lines" is four distinct lines whose consecutive pairs meet in
four pairwise distinct points; equivalently an 8-cycle in the incidence
graph between the lines and their multi-line points. The detector
reads those points off the index and takes the first 8-cycle there from
``verify.first_cycle``, which meets half-paths to find the least point
that is the minimum of an 8-cycle and runs the cycle DFS from that
point alone. The greedy search keeps the index of its members, looks up
a candidate's q points in it, and only ever inspects the three-step
alternating walks through the candidate line.
"""

from __future__ import annotations

import random
from typing import IO, Iterable, NamedTuple

from girthforge.errors import SizeLimitError
from girthforge.gf import Field, field_order, make_field
from girthforge.graph import from_rows, read_headed_text
from girthforge.moment import (
    Point,
    base_q_digits,
    enumerate_lines,
    moment_vector,
)
from girthforge.verify import first_cycle

DIM = 4
FAMILY_CAP = 1 << 16
# A family file names a field whose q^4 moment lines fit under this cap.
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


def canonical_genline(field: Field, x: Point, d: Point) -> GenLine:
    """Canonicalize the line through x with direction d."""
    if len(x) != DIM or len(d) != DIM:
        raise ValueError(f"points must have dimension {DIM}")
    if not all(0 <= c < field.q for c in x + d):
        raise ValueError(f"coordinate of {x} or {d} lies outside GF({field.q})")
    piv = next((i for i, di in enumerate(d) if di), None)
    if piv is None:
        raise ValueError("direction must be nonzero")
    scale = field.inv(d[piv])
    direction = tuple(field.mul(scale, di) for di in d)
    y = x[piv]
    base = tuple(field.sub(xi, field.mul(y, di)) for xi, di in zip(x, direction))
    return GenLine(direction, base)


def points_of(field: Field, line: GenLine) -> list[Point]:
    """The q distinct points base + y*dir of the line, in order of y."""
    add_rows, mul_rows = field.add_rows, field.mul_rows
    # Coordinate i of the y-th point is entry y * dir_i of the row of base_i.
    coords = [map(add_rows[b].__getitem__, mul_rows[d]) for b, d in zip(line.base, line.dir)]
    return list(zip(*coords))


def genline_count(field: Field) -> int:
    """q^3 * (q^4 - 1) / (q - 1): one canonical direction per projective
    point and q^3 bases per direction."""
    q = field.q
    return q ** (DIM - 1) * (q**DIM - 1) // (q - 1)


def all_genlines(field: Field) -> list[GenLine]:
    """Every distinct line of GF(q)^4, canonically sorted.

    There are genline_count(field) of them.
    """
    q = field.q
    bases = [base_q_digits(bcode, q, DIM - 1) for bcode in range(q ** (DIM - 1))]
    lines = []
    for piv in range(DIM):
        free = DIM - piv - 1
        for dcode in range(q**free):
            direction = (0,) * piv + (1, *base_q_digits(dcode, q, free))
            lines += [GenLine(direction, b[:piv] + (0,) + b[piv:]) for b in bases]
    lines.sort()
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

    Builds the incidence graph between the family and every point lying
    on at least two of its lines; a C4 of lines is exactly an 8-cycle
    there.
    """
    fam = sorted(set(family))
    _check_family_size(len(fam))
    through: dict[Point, list[int]] = {}
    for i, line in enumerate(fam):
        for pt in points_of(field, line):
            through.setdefault(pt, []).append(i)
    pts = sorted(pt for pt, idxs in through.items() if len(idxs) > 1)
    # Points in ascending order keep each line's row of point ids sorted.
    rows: list[list[int]] = [[] for _ in fam]
    for pi, pt in enumerate(pts):
        for li in through[pt]:
            rows[li].append(pi)
    g = from_rows(len(pts), rows)
    cycle = first_cycle(g, 8)
    if cycle is None:
        return None
    # Cycle alternates point, line, point, line, ... starting on the
    # point side (point IDs sort below line IDs).
    cyc_lines = tuple(fam[cycle[i] - g.nP] for i in (1, 3, 5, 7))
    cyc_points = tuple(pts[cycle[i]] for i in (2, 4, 6, 0))
    return validate_line_c4(field, LineC4Witness(cyc_lines, cyc_points))


class C4FreeFamily:
    """Incrementally grown family with no C4 of lines.

    Keeps the members' point-to-lines index and their intersection
    adjacency, so that a candidate only costs q index lookups plus the
    three-step alternating walks it would open up.
    """

    def __init__(self, field: Field):
        self.field = field
        self.lines: list[GenLine] = []
        self._members: set[GenLine] = set()
        self._through: dict[Point, list[int]] = {}
        self._adj: list[list[tuple[int, Point]]] = []

    def _intersections(self, cand: GenLine) -> list[tuple[int, Point]]:
        """(member index, meeting point) of each member that cand, a
        non-member, meets."""
        through = self._through
        hits = [
            (idx, pt)
            for pt in points_of(self.field, cand)
            for idx in through.get(pt, ())
        ]
        # A member shares at most one point with cand: member order.
        hits.sort()
        return hits

    def _walk_closes_c4(self, hits: list[tuple[int, Point]]) -> bool:
        by_line = dict(hits)
        for a, pa in hits:
            for c, x in self._adj[a]:
                if x == pa:
                    continue
                for b, y in self._adj[c]:
                    if b == a or y == x or y == pa:
                        continue
                    pb = by_line.get(b)
                    if pb is not None and pb not in (pa, x, y):
                        return True
        return False

    def try_add(self, cand: GenLine) -> bool:
        """Add cand if the family stays C4-of-lines-free."""
        if cand in self._members:
            return False
        hits = self._intersections(cand)
        if self._walk_closes_c4(hits):
            return False
        new_idx = len(self.lines)
        self.lines.append(cand)
        self._members.add(cand)
        for pt in points_of(self.field, cand):
            self._through.setdefault(pt, []).append(new_idx)
        self._adj.append(hits)
        for idx, pt in hits:
            self._adj[idx].append((new_idx, pt))
        return True


def greedy_c4free(field: Field, seed: int) -> list[GenLine]:
    """Greedily grow a maximal C4-of-lines-free family over GF(q)^4.

    Candidates are all lines of the space in a seeded pseudorandom
    order. The result is
    maximal: any skipped line would close a C4 against the members
    accepted before it, and members only accumulate.
    """
    if field.q > GREEDY_Q_CAP:
        raise SizeLimitError(f"greedy search capped at q <= {GREEDY_Q_CAP}")
    order = all_genlines(field)
    random.Random(seed).shuffle(order)
    fam = C4FreeFamily(field)
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
    """Read a family file back as (p, m, lines); every line must be canonical."""
    kv, start = read_headed_text(text, FAMILY_FORMAT, ("p", "m", "n"), "n")
    # Refused before make_field scans for a modulus of a field no family
    # search could cover.
    q = field_order(kv["p"], kv["m"])
    if q**DIM > LINE_CAP:
        raise SizeLimitError(f"q^{DIM} = {q**DIM} exceeds line cap {LINE_CAP}")
    field = make_field(kv["p"], kv["m"])
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
            if canonical_genline(field, line.base, line.dir) != line:
                raise ValueError("not in canonical form")
        except ValueError as exc:
            raise ValueError(f"line {ln!r}: {exc}") from None
        fam.append(line)
    return field.p, field.m, fam
