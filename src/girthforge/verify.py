"""Structural checks on bipartite graphs: C4 detection, girth, exact
fixed-length cycle counts and the length-4 path statistic.

Cycle counting uses a canonical enumeration so each cycle is produced
exactly once: the cycle is rooted at its minimum-ID vertex, the DFS
visits only IDs greater than the root, and of the two traversal
directions the one whose second vertex is smaller than its last is
kept. With sorted adjacency the first cycle found is therefore the
lexicographically smallest witness.

When the translations of GF(q)^k map a graph onto itself (checked on
the graph, not assumed from its metadata), cycle counts and the
length-4 path maximum are taken from P vertex 0 alone; otherwise every
vertex is searched.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterator

from girthforge.errors import SizeLimitError
from girthforge.gf import Field, make_field
from girthforge.graph import BiGraph, build, id_line, id_point, point_id

CycleWitness = tuple[int, ...]

MAX_CYCLE_LEN = 12
BIG_CYCLE_VERTEX_CAP = 8192


@dataclass(frozen=True)
class ClaimResult:
    name: str
    passed: bool
    millis: float
    witness: CycleWitness | None = None
    detail: str = ""


@dataclass(frozen=True)
class VerifyReport:
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def render(self, timings: bool = False) -> str:
        # Timings are suppressed by default so identical runs emit
        # identical bytes; pass timings=True for profiling output.
        out = []
        for c in self.claims:
            t = f"{c.millis:.0f}" if timings else "-"
            line = f"{c.name} {'PASS' if c.passed else 'FAIL'} {t}"
            if c.witness:
                line += " witness=" + ",".join(map(str, c.witness))
            out.append(line)
        return "\n".join(out) + "\n"


def validate_cycle(g: BiGraph, w: CycleWitness) -> CycleWitness:
    """Re-check a cycle witness against adjacency before it is emitted."""
    if len(w) < 4 or len(w) % 2:
        raise ValueError(f"witness length {len(w)} is not an even cycle")
    if len(set(w)) != len(w):
        raise ValueError(f"witness repeats a vertex: {w}")
    for i, v in enumerate(w):
        if w[(i + 1) % len(w)] not in g.neighbors(v):
            raise ValueError(f"witness edge ({v}, {w[(i + 1) % len(w)]}) absent")
    return w


def _unified_adj(g: BiGraph) -> list[tuple[int, ...]]:
    return list(g.adjP) + list(g.adjL)


def find_c4(g: BiGraph) -> CycleWitness | None:
    """First 4-cycle by common-neighbor pair hashing, or None.

    Two L vertices sharing two P neighbors form a C4; marking every
    unordered L-pair seen from each P vertex finds a repeat in
    O(sum deg^2) without any path search.
    """
    seen: dict[tuple[int, int], int] = {}
    for p in range(g.nP):
        ls = g.adjP[p]
        for i in range(len(ls)):
            for j in range(i + 1, len(ls)):
                pair = (ls[i], ls[j])
                other = seen.get(pair)
                if other is not None:
                    return validate_cycle(g, (other, ls[i], p, ls[j]))
                seen[pair] = p
    return None


def girth(g: BiGraph) -> int | float:
    """Length of the shortest cycle via BFS from every vertex; inf if none."""
    adj = _unified_adj(g)
    n = len(adj)
    best: int | float = math.inf
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            # Any candidate through u is at least 2*dist[u] long.
            if 2 * dist[u] >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


def _check_cycle_length(g: BiGraph, length: int) -> None:
    if length < 4 or length > MAX_CYCLE_LEN:
        raise ValueError(f"cycle length must be even in [4, {MAX_CYCLE_LEN}]")
    n = g.nP + g.nL
    if length >= 10 and n > BIG_CYCLE_VERTEX_CAP:
        raise SizeLimitError(
            f"{n} vertices exceeds cap {BIG_CYCLE_VERTEX_CAP} for length >= 10"
        )


def _cycles_from(g: BiGraph, length: int, roots: range) -> Iterator[CycleWitness]:
    """Canonical cycles of an even, checked length whose minimum vertex is in roots."""
    adj = _unified_adj(g)
    nbr = [set(a) for a in adj]
    path = [0] * length
    on_path = [False] * (g.nP + g.nL)

    def extend(v: int, depth: int) -> Iterator[CycleWitness]:
        root = path[0]
        if depth == length:
            if root in nbr[v] and path[1] < path[-1]:
                yield validate_cycle(g, tuple(path))
            return
        for w in adj[v]:
            if w > root and not on_path[w]:
                on_path[w] = True
                path[depth] = w
                yield from extend(w, depth + 1)
                on_path[w] = False

    for root in roots:
        if len(adj[root]) < 2:
            continue
        path[0] = root
        on_path[root] = True
        yield from extend(root, 1)
        on_path[root] = False


def iter_cycles(g: BiGraph, length: int) -> Iterator[CycleWitness]:
    """Canonically enumerate every simple cycle of exactly this length."""
    if length % 2:
        return
    _check_cycle_length(g, length)
    yield from _cycles_from(g, length, range(g.nP + g.nL))


def _translation_invariant(g: BiGraph) -> bool:
    """True if every translation x -> x + t of GF(q)^k permutes the L rows.

    Then the translations are automorphisms that act regularly on P, so
    P vertex 0 stands for every P vertex. They are generated by the
    k*m vectors with the field element p^j in coordinate i, so only
    those are tried. Rows are compared as a multiset: with a set, a
    graph with repeated rows could pass without being mapped onto itself.
    """
    if g.meta is None:
        return False
    p, m, k = g.meta
    try:
        field = make_field(p, m)
    except ValueError:
        return False
    if g.nP != field.q**k:
        return False
    points = [id_point(field, k, v) for v in range(g.nP)]
    rows = Counter(g.adjL)
    for i in range(k):
        for j in range(m):
            t = p**j
            pi = [
                point_id(field, x[:i] + (field.add(x[i], t),) + x[i + 1 :])
                for x in points
            ]
            moved = Counter(tuple(sorted(pi[v] for v in row)) for row in g.adjL)
            if moved != rows:
                return False
    return True


def count_cycles(g: BiGraph, length: int) -> tuple[int, CycleWitness | None]:
    """Exact count of simple cycles of the given length plus a witness.

    On a translation-invariant graph only the cycles through P vertex 0
    are enumerated: each P vertex lies on the same number c0 of them
    and each cycle has length/2 P vertices, so the total is
    nP * c0 / (length/2). Vertex 0 has the smallest id, so the first of
    them is also the first cycle of the full enumeration.
    """
    if length % 2:
        return 0, None
    _check_cycle_length(g, length)
    rooted = _translation_invariant(g)
    count = 0
    first: CycleWitness | None = None
    for w in _cycles_from(g, length, range(1 if rooted else g.nP + g.nL)):
        count += 1
        if first is None:
            first = w
    if not rooted:
        return count, first
    total, rem = divmod(g.nP * count, length // 2)
    if rem:
        raise RuntimeError(
            f"{g.nP} * {count} cycles through P vertex 0 is not a multiple of {length // 2}"
        )
    return total, first


def l4_path_counts_from(g: BiGraph, p: int) -> Counter[int]:
    """Number of 5-distinct-vertex paths p-l1-p2-l2-p' for every endpoint p'."""
    counts: Counter[int] = Counter()
    nP = g.nP
    for l1 in g.adjP[p]:
        for p2 in g.adjL[l1 - nP]:
            if p2 == p:
                continue
            for l2 in g.adjP[p2]:
                if l2 == l1:
                    continue
                for p3 in g.adjL[l2 - nP]:
                    if p3 != p and p3 != p2:
                        counts[p3] += 1
    return counts


def _l4_chains(g: BiGraph, a: int, b: int) -> Iterator[tuple[int, ...]]:
    nP = g.nP
    for l1 in g.adjP[a]:
        for p2 in g.adjL[l1 - nP]:
            if p2 in (a, b):
                continue
            for l2 in g.adjP[p2]:
                if l2 == l1:
                    continue
                if b in g.adjL[l2 - nP]:
                    yield (a, l1, p2, l2, b)


def max_l4_paths(
    g: BiGraph,
) -> tuple[int, tuple[int, int] | None, list[tuple[int, ...]]]:
    """Maximum length-4 path count over all unordered P-pairs.

    Returns (max count, first pair attaining it, witness chains). The
    chains are materialized only when the count is at least 3, the
    threshold at which the construction's bound would be broken.
    """
    best = 0
    arg: tuple[int, int] | None = None
    # Translations keep path counts, and the one by -p takes the pair
    # (p, p') to a pair (0, p''). So on an invariant graph row 0 holds the
    # maximum, and its first pair attaining it is the full scan's first.
    for p in range(1 if _translation_invariant(g) else g.nP):
        counts = l4_path_counts_from(g, p)
        for p2 in range(p + 1, g.nP):
            v = counts.get(p2, 0)
            if arg is None or v > best:
                best = v
                arg = (p, p2)
    witnesses: list[tuple[int, ...]] = []
    if best >= 3 and arg is not None:
        witnesses = list(_l4_chains(g, *arg))
    return best, arg, witnesses


def witness_directions(field: Field, g: BiGraph, w: CycleWitness) -> list[int]:
    """Direction parameters of the witness's lines, in cycle order."""
    if g.meta is None:
        raise ValueError("graph carries no (p, m, k) metadata")
    k = g.meta[2]
    return [id_line(field, k, v - g.nP).z for v in w if v >= g.nP]


def construction_report(g: BiGraph) -> VerifyReport:
    """Check the incidence graph against its structural claims.

    Claims: both sides have q^k vertices, q^(k+1) edges, q-regularity,
    no C4, no C6 once k >= 3, no C10 once k >= 5.
    """
    if g.meta is None:
        raise ValueError("construction_report needs a graph built with metadata")
    p, m, k = g.meta
    q = p**m
    claims: list[ClaimResult] = []

    def run(name: str, fn) -> None:
        t0 = time.perf_counter()
        passed, witness, detail = fn()
        ms = (time.perf_counter() - t0) * 1000.0
        claims.append(ClaimResult(name, passed, ms, witness, detail))

    def check_order():
        ok = g.nP == q**k and g.nL == q**k
        return ok, None, "" if ok else f"expected {q**k}+{q**k}, got {g.nP}+{g.nL}"

    def check_edges():
        e = g.edge_count()
        ok = e == q ** (k + 1)
        return ok, None, "" if ok else f"expected {q ** (k + 1)} edges, got {e}"

    def check_regular():
        for v in range(g.nP + g.nL):
            d = len(g.neighbors(v))
            if d != q:
                return False, None, f"vertex {v} has degree {d}, expected {q}"
        return True, None, ""

    def check_c4():
        w = find_c4(g)
        return w is None, w, "" if w is None else "4-cycle found"

    def make_cycle_check(length: int):
        def check():
            cnt, w = count_cycles(g, length)
            return cnt == 0, w, "" if cnt == 0 else f"{cnt} cycles of length {length}"

        return check

    run("order", check_order)
    run("edges", check_edges)
    run("regular", check_regular)
    run("c4-free", check_c4)
    if k >= 3:
        run("c6-free", make_cycle_check(6))
    if k >= 5:
        run("c10-free", make_cycle_check(10))
    return VerifyReport(tuple(claims))


def verify_construction(field: Field, k: int) -> VerifyReport:
    """Build the incidence graph for (field, k) and report on its claims."""
    return construction_report(build(field, k))
