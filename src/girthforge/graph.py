"""The bipartite point-line incidence graph and its on-disk format.

P-side vertices are the q^k points of GF(q)^k, numbered base-q by their
coordinates. L-side vertices are the q^k canonical moment lines,
numbered by (direction z, base) with z as the top digit, and offset by
nP into a shared ID space, so any int >= nP names a line. Adjacency is
kept sorted on both sides, which makes traversals cheap from either
side and every exported artifact byte-reproducible.

A side laid out is a ``rows.Rows``: one flat ``array('i')`` of its rows
laid end to end, plus the row starts, a range on every built or parsed
moment graph. ``build`` fills the P side from ``moment.point_blocks``,
which writes the rows already sorted, one block at a time into an
array allocated once. Its L side is a ``rows.LazyRows`` over
``moment.line_kernel``: each L row is computed from the algebra each
time it is read and held by nothing but its reader, so a search holds
no L side, and the side is laid out whole only for ``flat``, iteration,
equality and ``repr``. Its degrees are known without a row, so
``stats`` computes none. The export reads the P side alone, so a graph
that is built and exported computes no L row.
Given a text whose header names the moment graph's edge count,
``parse`` builds that graph and keeps it if the text is its export; any
other text it reads row by row and fills the L side with one counting
transpose.
``build`` marks its graphs as the moment graph (``is_moment_graph``):
their rows are the algebra's by construction, and the searches in
``verify`` rest every symmetry they use on that mark. Any other graph,
however its rows compare with the algebra's, is unmarked.

Edge-list file format ``girthforge-v1``::

    girthforge-v1 p=<p> m=<m> k=<k> nP=<nP> nL=<nL> e=<E>
    <P-id> <L-global-id>

one edge per line, ascending lexicographic, LF only, trailing newline.
A bare variant drops the header for third-party tools. ``parse`` reads
back only what ``to_text`` writes: each edge line is two plain ASCII
decimals (no sign, underscore or leading zero) one space apart, and
every line ends in LF, the last one included. Neither direction holds
the body twice: ``export`` writes a block of P rows at a time to its
sink, ``parse`` compares the text with the export in the same blocks,
and reads any other text one P row at a time. A P row's text is one
``str.join`` with its P id as the separator over its L vertices' line
suffixes, and the rows come from one iterator pipeline over the flat P
side, so the render runs no Python code per row or per edge.
"""

from __future__ import annotations

import operator
import re
from array import array
from itertools import chain, islice, repeat
from typing import IO, Iterator, NamedTuple

from girthforge.errors import refuse_change
from girthforge.gf import Field, base_q_value, make_field
from girthforge.moment import MomentLine, Point, check_lines, line_kernel, point_blocks
from girthforge.rows import LazyRows, Rows, fill, transpose

FORMAT_V1 = "girthforge-v1"
# P rows rendered as one chunk: one sink write, or one comparison with
# the text in parse.
_BLOCK_ROWS = 256


class BiGraph:
    """Immutable bipartite graph with sorted dual adjacency.

    adjP[p] holds global L ids (>= nP); adjL[l] holds P ids. The two
    sides mirror each other: build makes both from the same algebra and
    parse makes one from the other. meta is (field, k) for built
    incidence graphs and None for ad-hoc graphs. The constructor is
    given both sides; a graph from build is given its P side laid out
    and an L side whose rows are computed on every read.

    is_moment_graph is True only on the graphs build returns, whose rows
    are the moment graph's by construction. The constructor leaves it
    False, whatever rows it is given, so a hand-made graph is never
    searched by the moment graph's symmetry.
    Equality compares nP, nL, adjP, adjL and meta and ignores it; like
    repr, it reads every row of adjL. No attribute can be reassigned.
    """

    def __init__(
        self,
        nP: int,
        nL: int,
        adjP: Rows,
        adjL: Rows,
        meta: tuple[Field, int] | None = None,
    ) -> None:
        vars(self).update(nP=nP, nL=nL, adjP=adjP, adjL=adjL, meta=meta, is_moment_graph=False)

    __setattr__ = __delattr__ = refuse_change

    def _key(self) -> tuple:
        return self.nP, self.nL, self.adjP, self.adjL, self.meta

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        return "BiGraph(nP={!r}, nL={!r}, adjP={!r}, adjL={!r}, meta={!r})".format(*self._key())

    def edge_count(self) -> int:
        return len(self.adjP.flat)

    def neighbors(self, v: int) -> array:
        return self.adjP[v] if v < self.nP else self.adjL[v - self.nP]


class GraphStats(NamedTuple):
    nP: int
    nL: int
    edges: int
    min_deg: int
    max_deg: int
    is_regular: bool


def point_id(field: Field, pt: Point) -> int:
    return base_q_value(pt, field.q)


def line_id(field: Field, line: MomentLine) -> int:
    """Local L id in [0, q^k); the global vertex id adds nP = q^k."""
    if line.base[0] != 0:
        raise ValueError(f"non-canonical line base {line.base}")
    return line.z * field.q ** (len(line.base) - 1) + point_id(field, line.base[1:])


def build(field: Field, k: int) -> BiGraph:
    """The incidence graph between GF(q)^k and its moment lines, marked
    as the moment graph. The P side is filled here from point_blocks;
    each L row is computed by line_kernel whenever it is read, so a
    graph that is only exported or counted computes no L row."""
    check_lines(field, k)
    q = field.q
    n, e = q**k, q ** (k + 1)
    adj_p = Rows(fill(point_blocks(field, k), e), range(0, e + 1, q))
    g = BiGraph(n, n, adj_p, LazyRows(line_kernel(field, k), n, q), (field, k))
    vars(g)["is_moment_graph"] = True
    return g


def stats(g: BiGraph) -> GraphStats:
    lo = min(chain(g.adjP.degrees(), g.adjL.degrees()), default=0)
    hi = max(chain(g.adjP.degrees(), g.adjL.degrees()), default=0)
    return GraphStats(
        nP=g.nP,
        nL=g.nL,
        edges=g.edge_count(),
        min_deg=lo,
        max_deg=hi,
        is_regular=lo == hi,
    )


def _render(g: BiGraph, fmt: str) -> Iterator[str]:
    r"""The export text in chunks: the v1 header line, then the P rows
    _BLOCK_ROWS at a time, one chunk a block, every line ending in LF. A
    bad fmt, or v1 without metadata, raises before the first chunk.

    A row's text is str.join with its P id as the separator over "" and
    the row's suffixes " <L id>\n": p.join(("", s1, s2)) is
    "p l1\np l2\n", and an empty row gives "". The suffixes are one map
    over adjP.flat, which is the file's order. Rows of one length d (a
    range of starts, as on every built or parsed moment graph) are
    grouped by zip, d suffixes at a time, so no Python code runs per
    row; rows kept as offsets are cut by islice, one row length at a time.
    A block is one join of its rows' texts.
    """
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
    nP, starts = g.nP, g.adjP.starts
    suffix = ([""] * nP + [f" {l}\n" for l in range(nP, nP + g.nL)]).__getitem__
    tails = map(suffix, g.adjP.flat)
    if isinstance(starts, range):
        rows = zip(repeat(""), *[tails] * starts.step)
    else:
        rows = map(chain, repeat(("",)), map(islice, repeat(tails), g.adjP.degrees()))
    texts = map(str.join, map(str, range(nP)), rows)
    for _ in range(0, nP, _BLOCK_ROWS):
        yield "".join(islice(texts, _BLOCK_ROWS))


def to_text(g: BiGraph, fmt: str = "v1") -> str:
    return "".join(_render(g, fmt))


def export(g: BiGraph, sink: IO[str], fmt: str = "v1") -> None:
    """Write the edge list to an open text sink one block of P rows at a
    time, so the whole text is never held; I/O errors propagate."""
    for chunk in _render(g, fmt):
        sink.write(chunk)


def read_header(text: str, magic: str, keys: tuple[str, ...]) -> tuple[dict[str, int], int]:
    """Check a text file's header line; return its values and the offset
    of the first body line.

    The first line is the magic word followed by one ``key=int`` token
    for each of keys, spelled as the writers spell it: the keys in the
    order given, one space before each, plain decimal values. The check
    reads no part of the body; check_body checks its line structure.
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
    return kv, start


def check_body(text: str, start: int, count_key: str, count: int) -> None:
    """Check the line structure of a text whose header read_header passed
    and whose body starts at start: every line ends in LF, the last one
    included, no body line is empty, and the body holds count lines, the
    header's value of count_key. So every text that is read back is the
    one its parsed value writes. The scans copy no part of the body."""
    if not text.endswith("\n"):
        n, last = text.count("\n") + 1, text[text.rfind("\n") + 1 :]
        raise ValueError(f"line {n} {last!r} does not end in a newline")
    blank = text.find("\n\n", start - 1)
    if blank >= 0:
        n = text.count("\n", 0, blank + 1) + 1
        raise ValueError(f"line {n} is blank")
    lines = text.count("\n", start)
    if lines != count:
        raise ValueError(f"header says {count_key}={count}, body has {lines} lines")


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


def _built_if_rendered(field: Field, k: int, text: str) -> BiGraph | None:
    """build(field, k) if text is its v1 export, else None. The text is
    compared with the export one block of P rows at a time, so neither
    is copied, and a graph that does not match dies here, before any
    scan and with no L row computed."""
    g, pos = build(field, k), 0
    for chunk in _render(g, "v1"):
        if not text.startswith(chunk, pos):
            return None
        pos += len(chunk)
    return g if pos == len(text) else None


def parse(text: str) -> BiGraph:
    """Re-import a v1 export; the result round-trips through to_text.

    Each body line must be spelled as to_text writes it: two plain
    decimal ids, one space apart. The edges must come in strictly
    ascending (P id, L id) order, which is the P rows' own order.

    A header with the moment graph's edge count, q^(k+1), names one
    text: the export of build(field, k). That graph is built and its
    export compared with the text one block of P rows at a time, which
    reads its P side alone; if they are equal it is the result, with no
    edge read, no scan of the body, whose line structure is the
    export's by construction, and no L row computed. Every other
    text has its body checked by check_body and is read one P row at a
    time out of the text itself: each row is stored as it is read,
    sorted and free of duplicates, and the L side is their transpose.
    So the export gives build's own graph, marked as the moment graph,
    and every other text an unmarked one. A text with faults in both
    its header values and its body is refused for the header's.
    """
    kv, pos = read_header(text, FORMAT_V1, ("p", "m", "k", "nP", "nL", "e"))
    p, m, k, nP, nL, e = kv["p"], kv["m"], kv["k"], kv["nP"], kv["nL"], kv["e"]
    field = make_field(p, m)
    check_lines(field, k)
    if not nP == nL == field.q**k:
        raise ValueError(f"nP={nP} nL={nL} do not match (p^m)^k for p={p} m={m} k={k}")
    if e == field.q ** (k + 1):
        g = _built_if_rendered(field, k, text)
        if g is not None:
            return g
    check_body(text, pos, "e", e)
    end = nP + nL
    flat, ends = array("i"), array("i", [0])
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
        ends.extend(repeat(len(flat), pid - last_p - 1))  # P vertices with no edge
        flat.extend(lids)
        ends.append(len(flat))
        last_p, last_l, pos = pid, lids[-1], match.end()
    if pos < len(text):
        raise _fault(text, pos, nP, nL, (last_p, last_l))
    ends.extend(repeat(len(flat), nP - 1 - last_p))
    adj_p = Rows(flat, ends)
    return BiGraph(nP, nL, adj_p, transpose(adj_p, nL, nP), (field, k))
