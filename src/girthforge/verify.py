"""Structural checks on bipartite graphs: C4 detection, exact
fixed-length cycle counts and the length-4 path statistic.

Cycle enumeration is canonical, so each cycle is produced exactly
once: the cycle is rooted at its minimum-ID vertex, the DFS visits only
IDs greater than the root, and of the two traversal directions the one
whose second vertex is smaller than its last is kept. With sorted
adjacency the first cycle found is therefore the lexicographically
smallest witness. P ids sort below L ids, so every cycle is rooted at a
P vertex. ``first_cycle`` gives that witness without the rest of the
enumeration: it picks the least P vertex that is the minimum of some
cycle of the length, found as two half-paths over higher ids that meet
at one end vertex and share no other, and runs the DFS from it alone.
``find_c4`` is ``first_cycle(g, 4)``. Every search reads adjacency only
through ``g.neighbors``, so the row layout is known to ``graph`` alone.
Every simple path comes from one generator, ``_simple_paths``, which
makes the paths a level at a time, each level a generator over the one
before, and so yields them in DFS order. No search puts its graph in a
reference cycle, so a graph is freed as soon as its last search ends,
also when the caller stops an enumeration early.

One rule, ``_flag``, decides which symmetries every search may use.
A graph is certified as the moment graph when ``graph.build`` made it
from the algebra and marked it (``BiGraph.is_moment_graph``); neither
its metadata nor its rows certify any other graph. Two families of maps
of GF(q)^k carry a certified graph onto itself: the translations, which
act regularly on P, and the shears S_c, which send x_i to the sum over
j <= i of C(i, j) * c^(i-j) * x_j, fix the origin and send direction z
to z + c. Together they act transitively on the edges (flags). So
``first_cycle`` and the length-4 path maximum start from P vertex 0
alone, and the cycle counts take only the cycles through the one edge
from P vertex 0 to L0, the z=0 line through the origin: with c_e such
cycles, a graph with E edges has E * c_e / length cycles of the length.
c_e is a count of closed non-backtracking walks,
with no on-path bookkeeping: in a graph with no cycle of length up to
length/2 each such walk runs once around one simple cycle, and the
walks of the shorter lengths, counted the same way, show that there is
none. On a certified graph with a shorter cycle c_e is the number of
simple paths on from the flag that close at P vertex 0. Any other graph
is searched from every P vertex by the canonical DFS, which stays the
oracle for the walks.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from girthforge.errors import SizeLimitError
from girthforge.gf import Field
from girthforge.graph import BiGraph, build, stats

CycleWitness = tuple[int, ...]

MAX_CYCLE_LEN = 12
# Lengths 10 and 12 from every P vertex are searched on at most this many
# vertices. A certified moment graph is searched from P vertex 0 alone,
# and a search of length L there costs about q^(L/2) walk steps; the walk
# cap admits C10 up to q = 23 and C12 up to q = 13, and the largest count
# it admits at each length takes 3-8 s (C6 at q = 199, C8 at q = 53, C10
# at q = 23, C12 at q = 13). The same cap bounds the (q-1)^(L-2) simple
# paths on from the flag that count a certified graph with a shorter
# cycle: C12 on a k = 2 graph up to q = 5.
BIG_CYCLE_VERTEX_CAP = 8192
FLAG_WALK_CAP = 1 << 23


class ClaimResult(NamedTuple):
    name: str
    passed: bool
    witness: CycleWitness | None = None
    detail: str = ""


class VerifyReport(NamedTuple):
    claims: tuple[ClaimResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def render(self) -> str:
        # The third column is a fixed "-", so identical runs emit
        # identical bytes.
        out = []
        for c in self.claims:
            line = f"{c.name} {'PASS' if c.passed else 'FAIL'} -"
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


def _flag(g: BiGraph) -> int | None:
    """L0, the L vertex whose edge to P vertex 0 stands for every edge, or None.

    This is the one place the searches decide which symmetries they
    use, and it decides on build's mark alone. On the moment graph
    the translations and shears act transitively on the edges; L0, the
    z=0 line through the origin, has local id 0.
    """
    return g.nP if g.is_moment_graph else None


def _roots(g: BiGraph, length: int) -> range:
    """The P vertices a search of an even length starts from, once the
    length and the search's size are checked.

    Translations act regularly on P, so on the moment graph every P
    vertex looks like P vertex 0 and 0 alone is searched, refused when
    its q^(length/2) walk steps exceed FLAG_WALK_CAP. Any other graph is
    searched from every P vertex, under the vertex cap.
    """
    if _flag(g) is None:
        _check_all_roots(g, length)
        return range(g.nP)
    _check_cycle_length(length)
    steps = len(g.neighbors(0)) ** (length // 2)
    if steps > FLAG_WALK_CAP:
        raise SizeLimitError(
            f"{steps} walk steps exceeds cap {FLAG_WALK_CAP} for length {length}"
        )
    return range(1)


def _check_cycle_length(length: int) -> None:
    if length < 4 or length > MAX_CYCLE_LEN:
        raise ValueError(f"cycle length must be even in [4, {MAX_CYCLE_LEN}]")


def _simple_paths(
    nbrs: Callable[[int], Sequence[int]], start: tuple[int, ...], steps: int
) -> Iterable[tuple[int, ...]]:
    """The simple paths that continue start by steps more vertices, all
    with ids above start[0], in lexicographic order, which is the DFS
    order. Each level is a generator over the one before, so no level is
    held whole."""
    root = start[0]
    paths: Iterable[tuple[int, ...]] = (start,)
    for _ in range(steps):
        paths = (p + (w,) for p in paths for w in nbrs(p[-1]) if w > root and w not in p)
    return paths


def _cycles_from(g: BiGraph, length: int, roots: range) -> Iterator[CycleWitness]:
    """Canonical cycles of an even, checked length whose minimum vertex is in roots.

    Each is a path of length - 1 steps from its root that closes at a
    neighbour of the root, in the direction with path[1] < path[-1].
    """
    nbrs = g.neighbors
    for root in roots:
        if len(nbrs(root)) < 2:
            continue
        closing = set(nbrs(root))
        for path in _simple_paths(nbrs, (root,), length - 1):
            if path[-1] in closing and path[1] < path[-1]:
                yield validate_cycle(g, path)


def _flag_walks(g: BiGraph, length: int, l0: int) -> int:
    """Closed non-backtracking walks of an even length through the edge (0, l0).

    Each walk leaves P vertex 0 by l0 and comes back by another line. The
    halves meet in the middle. The walks of length/2 - 1 steps forward
    from the edge (0, l0) are counted by their last two vertices, and so
    are the walks one step shorter back from the edges (0, l), l != l0.
    Each back walk then takes its last step onto the end vertex of the
    forward walks, and joins every one that does not enter it from the
    same neighbour.
    """
    nbrs = g.neighbors

    def walk(starts: list[tuple[int, int]], steps: int) -> Counter[tuple[int, int]]:
        ends = Counter(starts)
        for _ in range(steps):
            nxt: Counter[tuple[int, int]] = Counter()
            for (u, v), n in ends.items():
                for w in nbrs(v):
                    if w != u:
                        nxt[v, w] += n
            ends = nxt
        return ends

    half = length // 2
    fwd = walk([(0, l0)], half - 1)
    back = walk([(0, l) for l in nbrs(0) if l != l0], half - 2)
    at: Counter[int] = Counter()
    for (_, v), n in fwd.items():
        at[v] += n
    return sum(
        n * (at[w] - fwd[v, w]) for (u, v), n in back.items() for w in nbrs(v) if w != u
    )


def _check_all_roots(g: BiGraph, length: int) -> None:
    """Check an even length, and refuse 10 and 12 past the vertex cap."""
    _check_cycle_length(length)
    n = g.nP + g.nL
    if length >= 10 and n > BIG_CYCLE_VERTEX_CAP:
        raise SizeLimitError(
            f"{n} vertices exceeds cap {BIG_CYCLE_VERTEX_CAP} for length >= 10"
        )


def iter_cycles(g: BiGraph, length: int) -> Iterator[CycleWitness]:
    """Canonically enumerate every simple cycle of exactly this length."""
    if length % 2:
        return
    _check_all_roots(g, length)
    yield from _cycles_from(g, length, range(g.nP))


def _roots_a_cycle(g: BiGraph, length: int, root: int) -> bool:
    """Whether some cycle of this even length has root as its minimum vertex.

    Such a cycle is two simple half-paths of length/2 steps from root,
    over ids above root, that end at the same vertex and share no other.
    Each half-path, less its last step, comes from _simple_paths and is
    filed under every end it can take. They come grouped by their first
    step, which the half-paths of one group share, so each is compared
    only with those filed from the groups before: one disjoint from it at
    the same end shows a cycle, and the search stops there.
    """
    nbrs = g.neighbors
    at_end: dict[int, list[frozenset[int]]] = {}
    group: dict[int, list[frozenset[int]]] = {}
    first = root
    for h in _simple_paths(nbrs, (root,), length // 2 - 1):
        if h[1] != first:
            first = h[1]
            for w, mids in group.items():
                at_end.setdefault(w, []).extend(mids)
            group = {}
        mid = frozenset(h[1:])
        for w in nbrs(h[-1]):
            if w > root and w not in mid:
                filed = at_end.get(w)
                if filed and any(mid.isdisjoint(f) for f in filed):
                    return True
                group.setdefault(w, []).append(mid)
    return False


def first_cycle(g: BiGraph, length: int) -> CycleWitness | None:
    """The first cycle of iter_cycles(g, length), or None.

    The enumeration visits roots in ascending order, so its first cycle
    is the canonical DFS's first from the least P vertex that roots a
    cycle of the length. That root is found by meeting half-paths, and
    the DFS runs from it alone. The candidate roots are _roots(g, length),
    under its size check: on the moment graph P vertex 0 alone, since a
    translation carries any cycle onto one through vertex 0, the smallest
    id; on any other graph every P vertex.
    """
    if length % 2:
        return None
    for root in _roots(g, length):
        if _roots_a_cycle(g, length, root):
            w = next(_cycles_from(g, length, range(root, root + 1)), None)
            if w is None:
                raise RuntimeError(
                    f"half-paths close a cycle of length {length} at {root} but the DFS finds none"
                )
            return w
    return None


def find_c4(g: BiGraph) -> CycleWitness | None:
    """The first 4-cycle of the canonical enumeration, or None: first_cycle(g, 4)."""
    return first_cycle(g, 4)


def count_cycles(g: BiGraph, length: int) -> tuple[int, CycleWitness | None]:
    """Exact count of simple cycles of the given length plus a witness.

    A graph other than the moment graph is enumerated from every P
    vertex, under the vertex cap for lengths 10 and 12. On the moment
    graph every edge lies on the same number c_e of cycles and each cycle
    has length edges, so the total is E * c_e / length, E the edge count;
    a remainder raises RuntimeError. A count whose q^(length/2) walk steps
    exceed FLAG_WALK_CAP is refused before any walk runs. c_e is the walk
    count through the flag (P vertex 0, L0) when that count is 0 for
    every even length from 4 to length/2: a shortest cycle passes through
    the flag, so the graph then has no cycle that short, and each walk is
    a simple cycle. Otherwise c_e is the number of simple paths of
    length - 2 steps on from the flag that end at a neighbour of P vertex
    0, refused before any path is made when (q-1)^(length-2) exceeds
    FLAG_WALK_CAP. The witness is the canonical DFS's first cycle from
    the roots counted from; on the moment graph it is looked for only once
    the total is nonzero, and a DFS that then finds none raises RuntimeError.
    """
    if length % 2:
        return 0, None
    roots = _roots(g, length)
    l0 = _flag(g)
    if l0 is None:
        cycles = _cycles_from(g, length, roots)
        first = next(cycles, None)
        return (first is not None) + sum(1 for _ in cycles), first
    if any(_flag_walks(g, m, l0) for m in range(4, length // 2 + 1, 2)):
        paths = (len(g.neighbors(0)) - 1) ** (length - 2)
        if paths > FLAG_WALK_CAP:
            raise SizeLimitError(
                f"{paths} DFS paths exceeds cap {FLAG_WALK_CAP} for length {length}"
            )
        closing = set(g.neighbors(0))
        c_e = sum(p[-1] in closing for p in _simple_paths(g.neighbors, (0, l0), length - 2))
    else:
        c_e = _flag_walks(g, length, l0)
    edges = g.edge_count()
    total, rem = divmod(edges * c_e, length)
    if rem:
        raise RuntimeError(
            f"{edges} * {c_e} cycles through one edge is not a multiple of {length}"
        )
    if not total:
        return 0, None
    w = next(_cycles_from(g, length, roots), None)
    if w is None:
        raise RuntimeError(f"{total} cycles of length {length} counted but the DFS finds none")
    return total, w


def l4_path_counts_from(g: BiGraph, p: int) -> Counter[int]:
    """Number of 5-distinct-vertex paths p-l1-p2-l2-p' for every endpoint p'."""
    counts: Counter[int] = Counter()
    nbrs = g.neighbors
    for l1 in nbrs(p):
        for p2 in nbrs(l1):
            if p2 == p:
                continue
            for l2 in nbrs(p2):
                if l2 == l1:
                    continue
                for p3 in nbrs(l2):
                    if p3 != p and p3 != p2:
                        counts[p3] += 1
    return counts


def max_l4_paths(g: BiGraph) -> tuple[int, tuple[int, int] | None]:
    """Maximum length-4 path count over all unordered P-pairs.

    Returns (max count, first pair attaining it). Translations keep path
    counts, and the one by -p takes the pair (p, p') to a pair (0, p'').
    So on the moment graph row 0 holds the maximum, and its first pair
    attaining it is the full scan's first.
    """
    best = 0
    arg: tuple[int, int] | None = None
    for p in _roots(g, 4):
        counts = l4_path_counts_from(g, p)
        for p2 in range(p + 1, g.nP):
            v = counts.get(p2, 0)
            if arg is None or v > best:
                best = v
                arg = (p, p2)
    return best, arg


def construction_report(g: BiGraph) -> VerifyReport:
    """Check the incidence graph against its structural claims.

    Claims: both sides have q^k vertices, q^(k+1) edges, q-regularity,
    no C4, no C6 once k >= 3, no C10 once k >= 5.
    """
    if g.meta is None:
        raise ValueError("construction_report needs a graph built with metadata")
    field, k = g.meta
    q, n = field.q, field.q**k
    s = stats(g)
    c4 = find_c4(g)
    claims = [
        ClaimResult("order", s.nP == s.nL == n, detail=f"{s.nP}+{s.nL}, expected {n}+{n}"),
        ClaimResult("edges", s.edges == q * n, detail=f"{s.edges}, expected {q * n}"),
        ClaimResult(
            "regular",
            s.min_deg == s.max_deg == q,
            detail=f"degrees {s.min_deg}..{s.max_deg}, expected {q}",
        ),
        ClaimResult("c4-free", c4 is None, c4),
    ]
    for length in (6, 10):
        if k >= length // 2:
            count, w = count_cycles(g, length)
            detail = f"{count} cycles of length {length}"
            claims.append(ClaimResult(f"c{length}-free", count == 0, w, detail))
    return VerifyReport(tuple(claims))


def verify_construction(field: Field, k: int) -> VerifyReport:
    """Build the incidence graph for (field, k) and report on its claims."""
    return construction_report(build(field, k))
