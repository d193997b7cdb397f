"""Shared fixtures and test-local oracles."""

from __future__ import annotations

import os
import random
from pathlib import Path

import girthforge
from girthforge.graph import BiGraph, from_edges
from girthforge.lines4 import SAME_LINE, GenLine, canonical_genline, intersect

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
