"""The bipartite point-line incidence graph and its on-disk format.

P-side vertices are the q^k points of GF(q)^k, numbered base-q by their
coordinates. L-side vertices are the q^k canonical moment lines,
numbered by (direction, base) and offset by nP into a shared ID space,
so any int >= nP names a line. Adjacency is kept sorted on both sides,
which makes traversals cheap from either side and every exported
artifact byte-reproducible.

Edge-list file format ``girthforge-v1``::

    girthforge-v1 p=<p> m=<m> k=<k> nP=<nP> nL=<nL> e=<E>
    <P-id> <L-global-id>

one edge per line, ascending lexicographic, LF only, trailing newline.
A bare variant drops the header for third-party tools.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

from girthforge.gf import Field, make_field
from girthforge.moment import (
    MomentLine,
    Point,
    base_q_digits,
    check_k,
    enumerate_lines,
    points_on,
)

FORMAT_V1 = "girthforge-v1"


@dataclass(frozen=True)
class BiGraph:
    """Immutable bipartite graph with sorted dual adjacency.

    adjP[p] holds global L ids (>= nP); adjL[l] holds P ids. meta is
    (p, m, k) for built incidence graphs and None for ad-hoc fixtures.
    """

    nP: int
    nL: int
    adjP: tuple[tuple[int, ...], ...]
    adjL: tuple[tuple[int, ...], ...]
    meta: tuple[int, int, int] | None = None

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjP)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjP[v] if v < self.nP else self.adjL[v - self.nP]

    def edges(self) -> Iterator[tuple[int, int]]:
        """(P-id, L-global-id) pairs in ascending lexicographic order."""
        for p in range(self.nP):
            for l in self.adjP[p]:
                yield p, l

    @cached_property
    def translation_invariant(self) -> bool:
        """True if every translation x -> x + t of GF(q)^k permutes the L rows.

        Then the translations are automorphisms that act regularly on P, so
        P vertex 0 stands for every P vertex. They are generated by the
        k*m vectors with the field element p^j in coordinate i, so only
        those are tried. Rows are compared as a multiset: with a set, a
        graph with repeated rows could pass without being mapped onto itself.
        The answer is computed once per graph and dies with it.
        """
        if self.meta is None:
            return False
        p, m, k = self.meta
        try:
            field = make_field(p, m)
        except ValueError:
            return False
        if self.nP != field.q**k:
            return False
        points = [id_point(field, k, v) for v in range(self.nP)]
        rows = Counter(self.adjL)
        for i in range(k):
            for j in range(m):
                t = p**j
                pi = [
                    point_id(field, x[:i] + (field.add(x[i], t),) + x[i + 1 :])
                    for x in points
                ]
                moved = Counter(tuple(sorted(pi[v] for v in row)) for row in self.adjL)
                if moved != rows:
                    return False
        return True


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


def id_point(field: Field, k: int, pid: int) -> Point:
    return base_q_digits(pid, field.q, k)


def line_id(field: Field, line: MomentLine) -> int:
    """Local L id in [0, q^k); the global vertex id adds nP = q^k."""
    if line.base[0] != 0:
        raise ValueError(f"non-canonical line base {line.base}")
    return line.z * field.q ** (len(line.base) - 1) + point_id(field, line.base[1:])


def id_line(field: Field, k: int, lid: int) -> MomentLine:
    z, rest = divmod(lid, field.q ** (k - 1))
    return MomentLine(z, (0, *id_point(field, k - 1, rest)))


def build(field: Field, k: int) -> BiGraph:
    """Assemble the incidence graph between GF(q)^k and its moment lines."""
    lines = enumerate_lines(field, k)
    n = len(lines)
    adj_p: list[list[int]] = [[] for _ in range(n)]
    adj_l: list[tuple[int, ...]] = []
    for lid, line in enumerate(lines):
        pids = sorted(point_id(field, pt) for pt in points_on(field, line))
        adj_l.append(tuple(pids))
        for pid in pids:
            adj_p[pid].append(n + lid)
    # lids were visited in ascending order, so each adj_p row is sorted.
    return BiGraph(
        nP=n,
        nL=n,
        adjP=tuple(tuple(row) for row in adj_p),
        adjL=tuple(adj_l),
        meta=(field.p, field.m, k),
    )


def from_edges(
    nP: int,
    nL: int,
    pairs: Iterable[tuple[int, int]],
    meta: tuple[int, int, int] | None = None,
) -> BiGraph:
    """Build a BiGraph from (P-id, local L-id) pairs; duplicates collapse."""
    adj_p: list[set[int]] = [set() for _ in range(nP)]
    adj_l: list[set[int]] = [set() for _ in range(nL)]
    for p, l in pairs:
        if not (0 <= p < nP and 0 <= l < nL):
            raise ValueError(f"edge ({p}, {l}) out of range for {nP}x{nL}")
        adj_p[p].add(nP + l)
        adj_l[l].add(p)
    return BiGraph(
        nP=nP,
        nL=nL,
        adjP=tuple(tuple(sorted(s)) for s in adj_p),
        adjL=tuple(tuple(sorted(s)) for s in adj_l),
        meta=meta,
    )


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


def to_text(g: BiGraph, fmt: str = "v1") -> str:
    if fmt not in ("v1", "bare"):
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    if fmt == "v1":
        if g.meta is None:
            raise ValueError("v1 export needs (p, m, k) metadata; use bare")
        p, m, k = g.meta
        lines.append(
            f"{FORMAT_V1} p={p} m={m} k={k} nP={g.nP} nL={g.nL} e={g.edge_count()}"
        )
    lines.extend(f"{p} {l}" for p, l in g.edges())
    return "\n".join(lines) + "\n"


def export(g: BiGraph, sink: IO[str], fmt: str = "v1") -> None:
    """Write the edge list to an open text sink; I/O errors propagate."""
    sink.write(to_text(g, fmt))


def read_headed_text(
    text: str, magic: str, keys: tuple[str, ...], count_key: str
) -> tuple[dict[str, int], list[str]]:
    """Split a text file into its header values and its non-empty body lines.

    The first line is the magic word followed by one ``key=int`` token
    for each of keys, in any order; the body must hold as many lines as
    the header's count_key promises.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty input")
    head = lines[0].split()
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
        kv[key] = int(val)
    missing = [key for key in keys if key not in kv]
    if missing:
        raise ValueError(f"header lacks {', '.join(missing)}")
    body = [ln for ln in lines[1:] if ln]
    if len(body) != kv[count_key]:
        raise ValueError(
            f"header says {count_key}={kv[count_key]}, body has {len(body)} lines"
        )
    return kv, body


def parse(text: str) -> BiGraph:
    """Re-import a v1 export; the result round-trips through to_text."""
    kv, body = read_headed_text(
        text, FORMAT_V1, ("p", "m", "k", "nP", "nL", "e"), "e"
    )
    p, m, k, nP, nL = kv["p"], kv["m"], kv["k"], kv["nP"], kv["nL"]
    q = make_field(p, m).q
    check_k(k)
    if not nP == nL == q**k:
        raise ValueError(f"nP={nP} nL={nL} do not match (p^m)^k for p={p} m={m} k={k}")
    end = nP + nL
    pairs = []
    for ln in body:
        ps, ls = ln.split()
        pid, lid = int(ps), int(ls)
        if not 0 <= pid < nP <= lid < end:
            bad = ps if not 0 <= pid < nP else ls
            raise ValueError(
                f"edge {ln!r}: id {bad} out of range (P ids 0..{nP - 1}, L ids {nP}..{end - 1})"
            )
        pair = (pid, lid - nP)
        if pairs and pair <= pairs[-1]:
            raise ValueError(f"edge {ln!r} is not strictly after the edge before it")
        pairs.append(pair)
    return from_edges(nP, nL, pairs, meta=(p, m, k))
