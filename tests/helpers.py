"""Shared fixtures and test-local oracles."""

from __future__ import annotations

import os
import random
from pathlib import Path

import girthforge
from girthforge.gf import Field
from girthforge.graph import BiGraph, from_edges
from girthforge.lines4 import SAME_LINE, GenLine, canonical_genline, intersect
from girthforge.moment import Point

# Environment for a `python -m girthforge` child process: it imports the
# same girthforge as the tests, whether or not the package is installed.
_SRC = str(Path(girthforge.__file__).resolve().parent.parent)
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH")))),
}


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


def points_on_genline(field: Field, line: GenLine) -> list[Point]:
    return [
        tuple(field.add(b, field.mul(y, d)) for b, d in zip(line.base, line.dir))
        for y in field.elements()
    ]
