"""Shared fixtures and test-local oracles."""

from __future__ import annotations

import math
import os
import random
from collections import Counter, deque
from pathlib import Path
from typing import Iterable, Iterator

import girthforge
from girthforge import graph, verify
from girthforge.gf import Field, _pdivmod, _ptrim, base_q_digits, make_field
from girthforge.graph import FORMAT_V1, BiGraph, check_body, point_id, read_header
from girthforge.lines4 import (
    DIM,
    C4FreeFamily,
    GenLine,
    LineC4Witness,
    all_genlines,
    canonical_genline,
)
from girthforge.moment import (
    MomentLine,
    Point,
    check_k,
    check_lines,
    enumerate_lines,
    moment_vector,
    points_on,
)
from girthforge.rows import Rows
from girthforge.verify import CycleWitness, _cycles_from, iter_cycles

# Environment for a `python -m girthforge` child process: it imports the
# same girthforge as the tests, whether or not the package is installed.
_SRC = str(Path(girthforge.__file__).resolve().parent.parent)
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))),
}


def count_field_calls(monkeypatch) -> Counter:
    """Count every call of Field.add, sub, mul and inv, by name, until the
    monkeypatch is undone. A call made inside another, like the add
    inside an extension field's sub, counts as well."""
    calls: Counter = Counter()
    for name in ("add", "sub", "mul", "inv"):
        real = getattr(Field, name)

        def counted(self, *args, name=name, real=real):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(Field, name, counted)
    return calls


def count_line_rows(monkeypatch) -> Counter:
    """Count, by local line id, every L row that moment.line_kernel
    computes for a graph built until the monkeypatch is undone."""
    computed: Counter = Counter()
    real = graph.line_kernel

    def counted_kernel(field, k):
        row = real(field, k)

        def counted(l):
            computed[l] += 1
            return row(l)

        return counted

    monkeypatch.setattr(graph, "line_kernel", counted_kernel)
    return computed


def record_dfs_roots(monkeypatch) -> list[range]:
    """The roots argument of every call of the canonical cycle DFS,
    verify._cycles_from, until the monkeypatch is undone."""
    calls: list[range] = []
    real = verify._cycles_from

    def recorded(g, length, roots):
        calls.append(roots)
        return real(g, length, roots)

    monkeypatch.setattr(verify, "_cycles_from", recorded)
    return calls


def from_edges(
    nP: int,
    nL: int,
    pairs: Iterable[tuple[int, int]],
    meta: tuple[Field, int] | None = None,
) -> BiGraph:
    """Build a BiGraph from (P-id, local L-id) pairs in any order;
    duplicates collapse.

    Each vertex's neighbours are collected in a set and sorted, on both
    sides, so this shares no code with rows.transpose and serves as its
    reference; only the layout of sorted rows, Rows.of, is shared.
    """
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
        adjP=Rows.of(map(sorted, adj_p)),
        adjL=Rows.of(map(sorted, adj_l)),
        meta=meta,
    )


def k22() -> BiGraph:
    return from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def k33() -> BiGraph:
    return from_edges(3, 3, [(p, l) for p in range(3) for l in range(3)])


def cycle_fixture(length: int) -> BiGraph:
    """A single cycle P0-L0-P1-L1-...-P(h-1)-L(h-1)-P0."""
    half = length // 2
    edges = [(i, i) for i in range(half)] + [((i + 1) % half, i) for i in range(half)]
    return from_edges(half, half, edges)


def path_fixture() -> BiGraph:
    """P0-L0-P1-L1-P2, acyclic."""
    return from_edges(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])


def star_fixture() -> BiGraph:
    """K_{1,3} with the center on the L side."""
    return from_edges(3, 1, [(i, 0) for i in range(3)])


def random_bipartite(seed: int, max_side: int = 18) -> BiGraph:
    """Sparse random bipartite graph, at most 2 * max_side vertices."""
    rng = random.Random(seed)
    n_p = rng.randint(3, max_side)
    n_l = rng.randint(3, max_side)
    all_pairs = [(p, l) for p in range(n_p) for l in range(n_l)]
    want = min(len(all_pairs), int(1.3 * (n_p + n_l)))
    return from_edges(n_p, n_l, rng.sample(all_pairs, want))


def brute_force_line_c4(field, family: list[GenLine]) -> bool:
    """Quadruple loop over ordered 4-tuples of lines, checking that the
    four consecutive intersections exist and are pairwise distinct."""
    fam = list(family)
    n = len(fam)
    inter = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                inter[i][j] = intersect(field, fam[i], fam[j])
    for a in range(n):
        for b in range(n):
            if b == a or inter[a][b] in (None, SAME_LINE):
                continue
            for c in range(n):
                if c in (a, b) or inter[b][c] in (None, SAME_LINE):
                    continue
                for d in range(n):
                    if d in (a, b, c):
                        continue
                    if inter[c][d] in (None, SAME_LINE):
                        continue
                    if inter[d][a] in (None, SAME_LINE):
                        continue
                    pts = {inter[a][b], inter[b][c], inter[c][d], inter[d][a]}
                    if len(pts) == 4:
                        return True
    return False


def random_genline(field, rng: random.Random) -> GenLine:
    q = field.q
    while True:
        d = tuple(rng.randrange(q) for _ in range(4))
        if any(d):
            break
    x = tuple(rng.randrange(q) for _ in range(4))
    return canonical_genline(field, x, d)


def field_pow(field: Field, a: int, e: int) -> int:
    """a^e in the field by square-and-multiply; e must be non-negative."""
    if e < 0:
        raise ValueError("negative exponent; invert explicitly instead")
    result, base = 1, a
    while e:
        if e & 1:
            result = field.mul(result, base)
        base = field.mul(base, base)
        e >>= 1
    return result


def validate_bigraph(g: BiGraph) -> BiGraph:
    """Check mirror consistency, sortedness and id ranges; raise on defect."""
    for p, row in enumerate(g.adjP):
        if list(row) != sorted(set(row)):
            raise ValueError(f"adjP[{p}] not strictly sorted")
        for l in row:
            if not g.nP <= l < g.nP + g.nL:
                raise ValueError(f"adjP[{p}] has non-L id {l}")
            if p not in g.adjL[l - g.nP]:
                raise ValueError(f"edge ({p}, {l}) missing from adjL")
    for l, row in enumerate(g.adjL):
        if list(row) != sorted(set(row)):
            raise ValueError(f"adjL[{l}] not strictly sorted")
        for p in row:
            if not 0 <= p < g.nP:
                raise ValueError(f"adjL[{l}] has non-P id {p}")
            if g.nP + l not in g.adjP[p]:
                raise ValueError(f"edge ({p}, {g.nP + l}) missing from adjP")
    return g


def pivot(line: GenLine) -> int:
    return next(i for i, d in enumerate(line.dir) if d)


def contains(field: Field, line: GenLine, pt: Point) -> bool:
    # dir[pivot] = 1 and base[pivot] = 0 force the parameter value.
    y = pt[pivot(line)]
    return all(
        pt[i] == field.add(line.base[i], field.mul(y, line.dir[i]))
        for i in range(DIM)
    )


def points_of(field: Field, line: GenLine) -> list[Point]:
    """The q distinct points base + y*dir of the line, in order of y.

    The reference for the point ids of lines4: one add and mul row
    lookup per coordinate, each point a tuple.
    """
    add_rows, mul_rows = field.add_rows, field.mul_rows
    # Coordinate i of the y-th point is entry y * dir_i of the row of base_i.
    coords = [map(add_rows[b].__getitem__, mul_rows[d]) for b, d in zip(line.base, line.dir)]
    return list(zip(*coords))


def line_point_id(field: Field, pt: Point) -> int:
    """The id lines4 gives a point: its coordinates as base-q digits,
    x_0 the most significant."""
    v = 0
    for c in pt:
        v = v * field.q + c
    return v


def bitset(idxs: Iterable[int]) -> int:
    return sum(1 << i for i in set(idxs))


def blocked(family: C4FreeFamily, cand: GenLine) -> bool:
    """Would adding cand to the family close a C4 of lines?"""
    if cand in family.lines:
        return False
    hits = family._intersections(cand, family._ids(cand))
    return family._closes_c4(hits, bitset(idx for idx, _ in hits))


# -- pairwise references for the point-to-lines index of lines4 --------------


class _SameLine:
    def __repr__(self) -> str:
        return "SAME_LINE"


#: Sentinel returned by intersect() for coincident lines.
SAME_LINE = _SameLine()


def intersect(field: Field, l1: GenLine, l2: GenLine):
    """None (skew or parallel), a Point, or SAME_LINE.

    Solves base1 + y1*dir1 = base2 + y2*dir2 by elimination on the
    4x2 system over GF(q).
    """
    if l1 == l2:
        return SAME_LINE
    aug = [
        [l1.dir[i], field.neg(l2.dir[i]), field.sub(l2.base[i], l1.base[i])]
        for i in range(DIM)
    ]
    rank = 0
    for col in range(2):
        piv = next((r for r in range(rank, DIM) if aug[r][col]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = field.inv(aug[rank][col])
        aug[rank] = [field.mul(inv, v) for v in aug[rank]]
        for r in range(DIM):
            if r != rank and aug[r][col]:
                f = aug[r][col]
                aug[r] = [
                    field.sub(a, field.mul(f, b)) for a, b in zip(aug[r], aug[rank])
                ]
        rank += 1
    for r in range(rank, DIM):
        if aug[r][2]:
            return None
    if rank < 2:
        # Dependent directions with a consistent system is the same
        # line, which canonical equality should already have caught.
        return SAME_LINE
    y1 = aug[0][2]
    return tuple(field.add(b, field.mul(y1, d)) for b, d in zip(l1.base, l1.dir))


def pairwise_intersections(family: C4FreeFamily, cand: GenLine) -> list[tuple[int, int]]:
    """C4FreeFamily._intersections, in member order, by solving intersect
    against every member."""
    out = []
    for idx, member in enumerate(family.lines):
        r = intersect(family.field, cand, member)
        if r is not None and r is not SAME_LINE:
            out.append((idx, line_point_id(family.field, r)))
    return out


class PairwiseFamily(C4FreeFamily):
    """C4FreeFamily whose candidate intersections come from intersect."""

    def _intersections(self, cand: GenLine, pts: list[int]) -> list[tuple[int, int]]:
        return pairwise_intersections(self, cand)


def pairwise_greedy(field: Field, seed: int) -> list[GenLine]:
    """greedy_c4free's seeded order, accepted through a PairwiseFamily."""
    order = all_genlines(field)
    random.Random(seed).shuffle(order)
    fam = PairwiseFamily(field)
    for cand in order:
        fam.try_add(cand)
    return fam.lines


def pairwise_hits(field: Field, fam: list[GenLine]) -> dict[Point, list[int]]:
    """Every point where two lines of fam meet, with the sorted indices of
    the lines meeting there, from intersect on every pair."""
    hits: dict[Point, set[int]] = {}
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            r = intersect(field, fam[i], fam[j])
            if r is not None and r is not SAME_LINE:
                hits.setdefault(r, set()).update((i, j))
    return {pt: sorted(idxs) for pt, idxs in hits.items()}


def pairwise_line_c4(field: Field, family: list[GenLine]) -> LineC4Witness | None:
    """has_line_c4 with the meeting points found pair by pair."""
    fam = sorted(set(family))
    hits = pairwise_hits(field, fam)
    pts = sorted(hits)
    edges = [(pi, li) for pi, pt in enumerate(pts) for li in hits[pt]]
    g = from_edges(len(pts), len(fam), edges)
    cycle = next(iter_cycles(g, 8), None)
    if cycle is None:
        return None
    return LineC4Witness(
        tuple(fam[cycle[i] - g.nP] for i in (1, 3, 5, 7)),
        tuple(pts[cycle[i]] for i in (2, 4, 6, 0)),
    )


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _ptrim(out)


class PolyField:
    """GF(p^m) arithmetic on base-p digits, polynomial by polynomial.

    The oracle for the table-driven extension-field arithmetic of
    gf.Field: the same element encoding and modulus, but digit-wise
    addition, schoolbook multiplication with reduction by the monic
    modulus, and inversion by extended Euclid.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p, self.m, self.modulus = p, m, modulus

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _index(self, coeffs: list[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def add(self, a: int, b: int) -> int:
        p = self.p
        return self._index(
            [(x + y) % p for x, y in zip(self._digits(a), self._digits(b))]
        )

    def sub(self, a: int, b: int) -> int:
        p = self.p
        return self._index(
            [(x - y) % p for x, y in zip(self._digits(a), self._digits(b))]
        )

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        p = self.p
        prod = _pmul(self._digits(a), self._digits(b), p)
        return self._index(_pdivmod(prod, list(self.modulus), p)[1])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        p = self.p
        # Extended Euclid on (a, modulus); the gcd is a nonzero constant
        # because the modulus is irreducible.
        r0, r1 = list(self.modulus), _ptrim(self._digits(a))
        t0: list[int] = []
        t1: list[int] = [1]
        while r1:
            quo, rem = _pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            t0, t1 = t1, _psub(t0, _pmul(quo, t1, p), p)
        c_inv = pow(r0[0], -1, p)
        return self._index([x * c_inv % p for x in t0])


def id_point(field: Field, k: int, pid: int) -> Point:
    return base_q_digits(pid, field.q, k)


def id_line(field: Field, k: int, lid: int) -> MomentLine:
    z, rest = divmod(lid, field.q ** (k - 1))
    return MomentLine(z, (0, *id_point(field, k - 1, rest)))


def build_from_points(field: Field, k: int) -> BiGraph:
    """The incidence graph assembled point by point, line by line.

    The reference for graph.build: every line from enumerate_lines, every
    point from points_on, every id from point_id.
    """
    lines = enumerate_lines(field, k)
    n = len(lines)
    adj_p: list[list[int]] = [[] for _ in range(n)]
    adj_l: list[tuple[int, ...]] = []
    for lid, line in enumerate(lines):
        pids = sorted(point_id(field, pt) for pt in points_on(field, line))
        adj_l.append(tuple(pids))
        for pid in pids:
            adj_p[pid].append(n + lid)
    return BiGraph(nP=n, nL=n, adjP=Rows.of(adj_p), adjL=Rows.of(adj_l), meta=(field, k))


def edges(g: BiGraph) -> Iterator[tuple[int, int]]:
    """(P-id, L-global-id) pairs in ascending lexicographic order."""
    for p in range(g.nP):
        for l in g.adjP[p]:
            yield p, l


def set_parse(text: str) -> BiGraph:
    """The reference for graph.parse: split the body into lines, validate
    every edge into a pairs list, then let from_edges collect each
    vertex's neighbours in a set and sort them. Same header checks, then
    the same body checks on every text, same spelling rule for edge
    lines, same messages."""
    kv, start = read_header(text, FORMAT_V1, ("p", "m", "k", "nP", "nL", "e"))
    p, m, k, nP, nL = kv["p"], kv["m"], kv["k"], kv["nP"], kv["nL"]
    field = make_field(p, m)
    check_lines(field, k)
    if not nP == nL == field.q**k:
        raise ValueError(f"nP={nP} nL={nL} do not match (p^m)^k for p={p} m={m} k={k}")
    check_body(text, start, "e", kv["e"])
    end = nP + nL
    pairs = []
    for ln in text[start:].split("\n")[:-1]:
        try:
            ps, ls = ln.split()
            pid, lid = int(ps), int(ls)
        except ValueError:
            raise ValueError(f"edge {ln!r}: expected two integer ids") from None
        if not 0 <= pid < nP <= lid < end:
            bad = ps if not 0 <= pid < nP else ls
            raise ValueError(
                f"edge {ln!r}: id {bad} out of range (P ids 0..{nP - 1}, L ids {nP}..{end - 1})"
            )
        if ln != f"{pid} {lid}":
            raise ValueError(f"edge {ln!r}: expected '{pid} {lid}'")
        pair = (pid, lid - nP)
        if pairs and pair <= pairs[-1]:
            raise ValueError(f"edge {ln!r} is not strictly after the edge before it")
        pairs.append(pair)
    return from_edges(nP, nL, pairs, meta=(field, k))


def vertex_rooted_count(g: BiGraph, length: int) -> int:
    """The moment graph's cycle count from the cycles through P vertex 0.

    Translations act regularly on P, so each P vertex lies on the same
    number c0 of cycles, and each cycle has length/2 P vertices: the
    total is nP * c0 / (length/2). c0 comes from the canonical DFS from
    P vertex 0, which shares no step with the flag-rooted count.
    """
    c0 = sum(1 for _ in _cycles_from(g, length, range(1)))
    total, rem = divmod(g.nP * c0, length // 2)
    if rem:
        raise ValueError(f"{g.nP} * {c0} is not a multiple of {length // 2}")
    return total


def brute_force_simple_paths(
    g: BiGraph, start: tuple[int, ...], steps: int
) -> list[tuple[int, ...]]:
    """Every sequence of distinct vertices with ids above start[0] that
    continues start by steps edges, sorted. Each next vertex is tried
    from every id and kept when the adjacency rows hold the edge."""
    paths = [start]
    for _ in range(steps):
        paths = [
            p + (w,)
            for p in paths
            for w in range(start[0] + 1, g.nP + g.nL)
            if w not in p and w in g.neighbors(p[-1])
        ]
    return sorted(paths)


def witness_directions(g: BiGraph, w: CycleWitness) -> list[int]:
    """Direction parameters of the witness's lines, in cycle order."""
    if g.meta is None:
        raise ValueError("graph carries no (field, k) metadata")
    field, k = g.meta
    return [id_line(field, k, v - g.nP).z for v in w if v >= g.nP]


def girth(g: BiGraph) -> int | float:
    """Length of the shortest cycle via BFS from every vertex; inf if none."""
    best: int | float = math.inf
    for root in range(g.nP + g.nL):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            # Any candidate through u is at least 2*dist[u] long.
            if 2 * dist[u] >= best:
                break
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


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


def vandermonde_det_formula(
    field: Field, zs: tuple[int, ...], k: int | None = None
) -> int:
    """Product of pairwise differences of zs in GF(q).

    This is the determinant of the square moment matrix on len(zs)
    nodes; it is nonzero exactly when the nodes are distinct, which is
    what makes the full-rank verdict of the elimination path checkable
    without elimination. If k is given, len(zs) must equal it.
    """
    zs = tuple(zs)
    if k is not None and len(zs) != k:
        raise ValueError(f"expected {k} nodes, got {len(zs)}")
    det = 1
    for i in range(len(zs)):
        for j in range(i + 1, len(zs)):
            det = field.mul(det, field.sub(zs[j], zs[i]))
    return det
