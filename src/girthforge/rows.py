"""Flat adjacency rows: one side of a bipartite graph in one array.

A side's rows lie end to end in one ``array('i')``; row i is the slice
between its start and the next row's. When every row has the same
length d the starts are ``range(0, E + 1, d)``, which costs nothing to
hold; otherwise they are an array of offsets. ``Rows`` picks between
them, so equal rows compare equal and one row type serves both.
``transpose`` makes the mirror side of a side with one counting pass,
for the texts ``graph.parse`` reads row by row and the line-point graph
of ``lines4.has_line_c4``; no other code makes a mirror side.

``LazyRows`` is a ``Rows`` of one row length whose rows a function
computes on every read and nothing holds, so a reader that reads a few
rows never lays out the side; its ``flat`` lays out every row afresh.
It reads ids as ``Rows`` does: ids past either end raise
``IndexError``, negative ones count from the end, and a returned row is
the caller's own array.
"""

from __future__ import annotations

import operator
from array import array
from collections import Counter
from itertools import accumulate, chain, count, islice, pairwise, repeat
from typing import Callable, Iterable, Iterator, Sequence


class Rows:
    """One side's adjacency: row i is flat[starts[i]:starts[i + 1]].

    starts is a range when every row has the same length and an array of
    offsets otherwise; the constructor picks, so equal rows compare
    equal. Indexing a row returns a fresh array slice, which supports
    ``in``, ``len`` and iteration.
    """

    __slots__ = ("flat", "starts")

    def __init__(self, flat: array, starts: range | array) -> None:
        if not isinstance(starts, range):
            n, e = len(starts) - 1, len(flat)
            d = e // n if n else 1
            if d and d * n == e and all(map(operator.eq, starts, range(0, e + 1, d))):
                starts = range(0, e + 1, d)
        self.flat = flat
        self.starts = starts

    @classmethod
    def of(cls, rows: Iterable[Sequence[int]]) -> Rows:
        """The given rows, laid end to end."""
        rows = list(rows)
        # An array fills faster from a list than from an iterator.
        flat = array("i", [*chain.from_iterable(rows)])
        return cls(flat, array("i", accumulate(map(len, rows), initial=0)))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, i: int) -> array:
        s = self.starts
        if i < 0:
            i += len(s) - 1
            if i < 0:
                raise IndexError("row index out of range")
        return self.flat[s[i] : s[i + 1]]

    def __iter__(self) -> Iterator[array]:
        flat = self.flat
        return (flat[a:b] for a, b in pairwise(self.starts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rows):
            return NotImplemented
        return self.starts == other.starts and self.flat == other.flat

    def __repr__(self) -> str:
        return f"Rows({[row.tolist() for row in self]})"

    def degrees(self) -> Iterator[int]:
        """Each row's length, in order, without slicing the rows."""
        s = self.starts
        if isinstance(s, range):
            return repeat(s.step, len(s) - 1)
        return map(operator.sub, islice(s, 1, None), s)


class LazyRows(Rows):
    """n rows of length d, row i computed as row(i) on every read.

    starts, len and degrees() need no row. Indexing checks ids as Rows
    does and returns the fresh row that row(i) computes. flat lays out
    every row afresh and is not kept, so iteration, == and repr, which
    Rows reads through flat, read as those of the equal Rows.
    """

    __slots__ = ("_row",)

    def __init__(self, row: Callable[[int], array], n: int, d: int) -> None:
        self._row = row
        self.starts = range(0, n * d + 1, d)

    def __getitem__(self, i: int) -> array:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("row index out of range")
        return self._row(i)

    @property
    def flat(self) -> array:
        return fill(map(array.tobytes, map(self._row, range(len(self)))), self.starts[-1])


def fill(blocks: Iterable[bytes], entries: int) -> array:
    """An array('i') of this many entries, allocated once, filled with the
    blocks' bytes in order. Blocks that stop short, such as a
    point_blocks generator read once already, raise ValueError rather
    than leave zeros."""
    flat = array("i", [0]) * entries
    with memoryview(flat) as mv, mv.cast("B") as view:
        pos = 0
        for block in blocks:
            view[pos : pos + len(block)] = block
            pos += len(block)
    if pos != entries * flat.itemsize:
        raise ValueError(f"blocks filled {pos} of {entries * flat.itemsize} bytes")
    return flat


def transpose(rows: Rows, n: int, first: int) -> Rows:
    """The mirror side of rows, whose entries lie in [first, first + n):
    its row j lists i, ascending, for each row i that holds first + j.
    Reading rows in order fills every mirror row in order."""
    flat = rows.flat
    counts = Counter(flat)
    ends = array("i", accumulate((counts[v] for v in range(first, first + n)), initial=0))
    out = array("i", [0]) * len(flat)
    # free[v] is the next slot of entry v's mirror row.
    free = array("i", [0]) * first + ends[:-1]
    owners = chain.from_iterable(map(repeat, count(), rows.degrees()))
    for i, v in zip(owners, flat):
        j = free[v]
        out[j] = i
        free[v] = j + 1
    return Rows(out, ends)
