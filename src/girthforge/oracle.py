"""Deliberately naive cross-checks for the fast counters.

These reimplementations share no traversal code with the primary
paths: cycle counting walks raw vertex sequences and divides out the
symmetry, and path counting is a literal triple loop. They exist to
disagree loudly, not to be fast.
"""

from __future__ import annotations

from girthforge.errors import SizeLimitError
from girthforge.graph import BiGraph

NAIVE_VERTEX_CAP = 100
NAIVE_LEN_CAP = 10


def naive_cycle_count(g: BiGraph, length: int) -> int:
    """Count simple cycles by enumerating every closed distinct-vertex
    sequence of the given length and dividing by the 2*length symmetries."""
    n = g.nP + g.nL
    if n > NAIVE_VERTEX_CAP:
        raise SizeLimitError(f"{n} vertices exceeds naive cap {NAIVE_VERTEX_CAP}")
    if length > NAIVE_LEN_CAP:
        raise SizeLimitError(f"length {length} exceeds naive cap {NAIVE_LEN_CAP}")
    if length < 3:
        return 0
    nbrs: dict[int, set[int]] = {v: set() for v in range(n)}
    for p in range(g.nP):
        for l in g.adjP[p]:
            nbrs[p].add(l)
            nbrs[l].add(p)

    total = sum(_closed_sequences(nbrs, [v], {v}, length) for v in range(n))
    assert total % (2 * length) == 0
    return total // (2 * length)


def _closed_sequences(
    nbrs: dict[int, set[int]], seq: list[int], used: set[int], length: int
) -> int:
    """Closed distinct-vertex sequences of the length that extend seq."""
    if len(seq) == length:
        return int(seq[0] in nbrs[seq[-1]])
    return sum(
        _closed_sequences(nbrs, seq + [w], used | {w}, length)
        for w in nbrs[seq[-1]]
        if w not in used
    )


def naive_l4_paths(g: BiGraph, p: int, p2: int) -> int:
    """Length-4 paths between two P vertices by literal chain enumeration."""
    if p == p2:
        return 0
    count = 0
    for l1 in g.adjP[p]:
        for mid in g.adjL[l1 - g.nP]:
            if mid == p or mid == p2:
                continue
            for l2 in g.adjP[mid]:
                if l2 == l1:
                    continue
                if p2 in g.adjL[l2 - g.nP]:
                    count += 1
    return count
