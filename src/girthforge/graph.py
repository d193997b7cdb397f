"""The bipartite point-line incidence graph and its on-disk format.

P-side vertices are the q^k points of GF(q)^k, numbered base-q by their
coordinates. L-side vertices are the q^k canonical moment lines,
numbered by (direction, base) and offset by nP into a shared ID space,
so any int >= nP names a line. Adjacency is kept sorted on both sides,
which makes traversals cheap from either side and every exported
artifact byte-reproducible.

The L rows come from integer id tables. A line of direction z is the
line through the origin, {y * (1, z, ..., z^(k-1))}, translated by its
base (0, b_1, ..., b_(k-1)), so its y-th point has id
y + sum over i >= 1 of (b_i + y * z^i) * q^i. For each z and each
coordinate i >= 1 the q lists [(c + y * z^i) * q^i for y], one for
each c, are made once from the origin line's points; a line's ids are
then y plus the element-wise sum of the lists its base digits pick.
The same rows certify a graph: one that carries (field, k) is the
moment graph exactly when its L rows equal them, row by row. The
searches in ``verify`` rest every symmetry they use on that one check.

Edge-list file format ``girthforge-v1``::

    girthforge-v1 p=<p> m=<m> k=<k> nP=<nP> nL=<nL> e=<E>
    <P-id> <L-global-id>

one edge per line, ascending lexicographic, LF only, trailing newline.
A bare variant drops the header for third-party tools. ``parse`` reads
back only what ``to_text`` writes: each edge line is two plain ASCII
decimals (no sign, underscore or leading zero) one space apart, and
every line ends in LF, the last one included. Neither direction holds
the body twice: ``export`` writes one P row at a time to its sink, and
``parse`` reads one P row at a time out of the text it is given.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import IO, Iterable, Iterator

from girthforge.gf import Field, make_field
from girthforge.moment import (
    K_MAX,
    K_MIN,
    LINE_CAP,
    MomentLine,
    Point,
    check_lines,
    points_on,
)

FORMAT_V1 = "girthforge-v1"


@dataclass(frozen=True)
class BiGraph:
    """Immutable bipartite graph with sorted dual adjacency.

    adjP[p] holds global L ids (>= nP); adjL[l] holds P ids. meta is
    (field, k) for built incidence graphs and None for ad-hoc fixtures.
    """

    nP: int
    nL: int
    adjP: tuple[tuple[int, ...], ...]
    adjL: tuple[tuple[int, ...], ...]
    meta: tuple[Field, int] | None = None

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjP)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjP[v] if v < self.nP else self.adjL[v - self.nP]

    @cached_property
    def is_moment_graph(self) -> bool:
        """True if this is the moment graph of its (field, k) metadata.

        That holds exactly when nP = nL = q^k and every L row equals the
        row moment_rows makes for it; the rows are streamed, not stored.
        Every symmetry the searches use follows from the construction's
        algebra: translations x -> x + t map each line to a parallel
        line and act regularly on P, so on the moment graph P vertex 0
        stands for every P vertex. Metadata no moment graph can have,
        or a size past the line cap, gives False; the check never
        raises. The answer is computed once per graph and dies with it.
        """
        if self.meta is None:
            return False
        field, k = self.meta
        if not (K_MIN <= k <= K_MAX and self.nP == self.nL == field.q**k <= LINE_CAP):
            return False
        return all(map(operator.eq, self.adjL, moment_rows(field, k)))


@dataclass(frozen=True)
class GraphStats:
    nP: int
    nL: int
    edges: int
    min_deg: int
    max_deg: int
    is_regular: bool


def point_id(field: Field, pt: Point) -> int:
    v = 0
    for c in reversed(pt):
        v = v * field.q + c
    return v


def line_id(field: Field, line: MomentLine) -> int:
    """Local L id in [0, q^k); the global vertex id adds nP = q^k."""
    if line.base[0] != 0:
        raise ValueError(f"non-canonical line base {line.base}")
    return line.z * field.q ** (len(line.base) - 1) + point_id(field, line.base[1:])


def moment_rows(field: Field, k: int) -> Iterator[tuple[int, ...]]:
    """Each L row's sorted point ids, in L-id order (see the module docstring)."""
    check_lines(field, k)
    q = field.q
    ys = range(q)
    for z in field.elements():
        origin = points_on(field, MomentLine(z, (0,) * k))
        tables = [
            [[field.add(c, pt[i]) * q**i for pt in origin] for c in ys]
            for i in range(1, k)
        ]
        # The last digit varies slowest, matching the L-id order.
        for picks in product(*reversed(tables)):
            yield tuple(sorted(map(sum, zip(ys, *picks))))


def build(field: Field, k: int) -> BiGraph:
    """Assemble the incidence graph between GF(q)^k and its moment lines."""
    adj_l = tuple(moment_rows(field, k))
    return from_rows(len(adj_l), adj_l, (field, k))


def from_rows(
    nP: int, adj_l: Iterable[Iterable[int]], meta: tuple[Field, int] | None = None
) -> BiGraph:
    """The BiGraph whose L rows are adj_l, each strictly ascending P ids in
    [0, nP); filling the P rows in ascending L-id order leaves them sorted."""
    adj_l = tuple(map(tuple, adj_l))
    adj_p: list[list[int]] = [[] for _ in range(nP)]
    for lid, row in enumerate(adj_l, nP):
        for pid in row:
            adj_p[pid].append(lid)
    return BiGraph(nP, len(adj_l), tuple(map(tuple, adj_p)), adj_l, meta)


def stats(g: BiGraph) -> GraphStats:
    degs = [len(a) for a in g.adjP] + [len(a) for a in g.adjL]
    lo = min(degs) if degs else 0
    hi = max(degs) if degs else 0
    return GraphStats(
        nP=g.nP,
        nL=g.nL,
        edges=g.edge_count(),
        min_deg=lo,
        max_deg=hi,
        is_regular=lo == hi,
    )


def _render(g: BiGraph, fmt: str) -> Iterator[str]:
    """The export text in chunks: the v1 header line, then one chunk for
    each P row with an edge, every line ending in LF. A bad fmt, or v1
    without metadata, raises before the first chunk."""
    if fmt not in ("v1", "bare"):
        raise ValueError(f"unknown format {fmt!r}")
    e = g.edge_count()
    if fmt == "v1":
        if g.meta is None:
            raise ValueError("v1 export needs (field, k) metadata; use bare")
        field, k = g.meta
        yield f"{FORMAT_V1} p={field.p} m={field.m} k={k} nP={g.nP} nL={g.nL} e={e}\n"
    elif not e:
        yield "\n"  # a bare export is never empty: an edgeless one is one blank line
    # adjP order is the file's order: a row's chunk is str(p), made once
    # per row, before each of its L vertices' suffixes, made once each.
    nP = g.nP
    suffixes = [f" {l}\n" for l in range(nP, nP + g.nL)]
    for p, row in enumerate(g.adjP):
        if row:
            ps = str(p)
            yield ps + ps.join([suffixes[l - nP] for l in row])


def to_text(g: BiGraph, fmt: str = "v1") -> str:
    return "".join(_render(g, fmt))


def export(g: BiGraph, sink: IO[str], fmt: str = "v1") -> None:
    """Write the edge list to an open text sink one P row at a time, so
    the whole text is never held; I/O errors propagate."""
    for chunk in _render(g, fmt):
        sink.write(chunk)


def read_headed_text(
    text: str, magic: str, keys: tuple[str, ...], count_key: str
) -> tuple[dict[str, int], int]:
    """Check a text file's header and line structure; return the header
    values and the offset of the first body line.

    The first line is the magic word followed by one ``key=int`` token
    for each of keys, spelled as the writers spell it: the keys in the
    order given, one space before each, plain decimal values. Every line
    ends in LF, the last one included, no body line may be empty, and
    the body must hold as many lines as the header's count_key promises.
    So every text that is read back is the one its parsed value writes.
    The checks copy no part of the body; callers read it from the offset.
    """
    if not text:
        raise ValueError("empty input")
    start = text.find("\n") + 1
    first = text[: start - 1] if start else text
    head = first.split()
    if not head or head[0] != magic:
        raise ValueError(f"not a {magic} file")
    kv: dict[str, int] = {}
    for part in head[1:]:
        key, _, val = part.partition("=")
        if key not in keys:
            raise ValueError(f"unknown header field {part!r}")
        if key in kv:
            raise ValueError(f"repeated header key {key!r}")
        if not val:
            raise ValueError(f"header key {key!r} has no value")
        try:
            kv[key] = int(val)
        except ValueError:
            raise ValueError(f"header field {part!r}: expected an integer value") from None
    missing = [key for key in keys if key not in kv]
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)}")
    spelled = " ".join([magic, *(f"{key}={kv[key]}" for key in keys)])
    if first != spelled:
        raise ValueError(f"header {first!r}: expected {spelled!r}")
    if not text.endswith("\n"):
        n, last = text.count("\n") + 1, text[text.rfind("\n") + 1 :]
        raise ValueError(f"line {n} {last!r} does not end in a newline")
    blank = text.find("\n\n", start - 1)
    if blank >= 0:
        n = text.count("\n", 0, blank + 1) + 1
        raise ValueError(f"line {n} is blank")
    lines = text.count("\n", start)
    if lines != kv[count_key]:
        raise ValueError(f"header says {count_key}={kv[count_key]}, body has {lines} lines")
    return kv, start


def _fault(text: str, pos: int, nP: int, nL: int, prev: tuple[int, int]) -> ValueError:
    """The error that names the first edge line at or after pos which is
    not the next edge after prev, spelled as to_text writes it; parse
    calls it only where such a line exists."""
    end = nP + nL
    while True:
        stop = text.index("\n", pos)
        ln = text[pos:stop]
        try:
            ps, ls = ln.split()
            edge = int(ps), int(ls)
        except ValueError:
            return ValueError(f"edge {ln!r}: expected two integer ids")
        pid, lid = edge
        if not 0 <= pid < nP <= lid < end:
            bad = ps if not 0 <= pid < nP else ls
            return ValueError(
                f"edge {ln!r}: id {bad} out of range (P ids 0..{nP - 1}, L ids {nP}..{end - 1})"
            )
        if ln != f"{pid} {lid}":
            return ValueError(f"edge {ln!r}: expected '{pid} {lid}'")
        if edge <= prev:
            return ValueError(f"edge {ln!r} is not strictly after the edge before it")
        prev, pos = edge, stop + 1


def parse(text: str) -> BiGraph:
    """Re-import a v1 export; the result round-trips through to_text.

    Each body line must be spelled as to_text writes it: two plain
    decimal ids, one space apart. The edges must come in strictly
    ascending (P id, L id) order, so appending each edge to its L row as
    it is read leaves every L row sorted and free of duplicates;
    from_rows makes the P rows. The body is read one P row at a time out
    of the text itself, and a row's edges share one int for its P id.
    """
    kv, pos = read_headed_text(
        text, FORMAT_V1, ("p", "m", "k", "nP", "nL", "e"), "e"
    )
    p, m, k, nP, nL = kv["p"], kv["m"], kv["k"], kv["nP"], kv["nL"]
    field = make_field(p, m)
    check_lines(field, k)
    if not nP == nL == field.q**k:
        raise ValueError(f"nP={nP} nL={nL} do not match (p^m)^k for p={p} m={m} k={k}")
    end = nP + nL
    adj_l: list[list[int]] = [[] for _ in range(nL)]
    # One P row as to_text writes it: lines "<P id> <L id>", plain decimals
    # one space apart, with the same P id (L ids are >= nP >= 1). A row
    # passes the checks below exactly when each of its lines passes those
    # of _fault, which otherwise names the first line that fails.
    row = re.compile(r"(0|[1-9][0-9]*) [1-9][0-9]*\n(?:\1 [1-9][0-9]*\n)*")
    last_p = last_l = -1
    while pos < len(text) and (match := row.match(text, pos)):
        ids = match[0].split()
        try:
            pid, lids = int(ids[0]), [*map(int, ids[1::2])]
        except ValueError:  # an id past int()'s digit limit
            break
        if not (
            last_p < pid < nP <= lids[0]
            and lids[-1] < end
            and all(map(operator.lt, lids, lids[1:]))
        ):
            break
        for lid in lids:
            adj_l[lid - nP].append(pid)
        last_p, last_l, pos = pid, lids[-1], match.end()
    if pos < len(text):
        raise _fault(text, pos, nP, nL, (last_p, last_l))
    return from_rows(nP, adj_l, (field, k))
