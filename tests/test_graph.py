import io
import itertools
import random
import re
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from girthforge import graph
from girthforge.errors import SizeLimitError
from girthforge.gf import make_field
from girthforge.graph import (
    BiGraph,
    build,
    export,
    line_id,
    parse,
    point_id,
    stats,
    to_text,
)
from girthforge.moment import MomentLine, enumerate_lines, line_kernel, point_blocks, points_on
from girthforge.rows import LazyRows, Rows, fill, transpose
from helpers import (
    build_from_points,
    count_field_calls,
    count_line_rows,
    cycle_fixture,
    edges,
    from_edges,
    id_line,
    id_point,
    random_bipartite,
    set_parse,
    validate_bigraph,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)

D22_HEAD = "girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e="
D22_TEXT = """girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=8
0 4
0 6
1 4
1 7
2 5
2 7
3 5
3 6
"""


def test_point_id_examples():
    assert point_id(F3, (1, 2)) == 7
    assert point_id(F3, (0, 0, 0)) == 0
    for k, field in ((2, F3), (5, F2)):
        for pt in itertools.product(range(field.q), repeat=k):
            assert id_point(field, k, point_id(field, pt)) == pt


def test_line_id_examples():
    assert line_id(F3, MomentLine(2, (0, 1))) == 7
    assert line_id(F3, MomentLine(0, (0, 0))) == 0
    for field, k in ((F3, 2), (F2, 5), (F4, 2)):
        for expected, line in enumerate(enumerate_lines(field, k)):
            assert line_id(field, line) == expected
            assert id_line(field, k, expected) == line


def test_line_id_rejects_non_canonical():
    with pytest.raises(ValueError):
        line_id(F3, MomentLine(0, (1, 0)))


def test_build_examples():
    g = build(F3, 2)
    assert (g.nP, g.nL, g.edge_count()) == (9, 9, 27)
    g = build(F2, 5)
    s = stats(g)
    assert (s.nP, s.nL, s.edges) == (32, 32, 64)
    assert s.is_regular and s.min_deg == 2
    assert build(F5, 3).edge_count() == 625


def test_stats_examples():
    s = stats(build(F2, 2))
    assert (s.nP, s.nL, s.edges, s.min_deg, s.max_deg, s.is_regular) == (
        4, 4, 8, 2, 2, True,
    )
    s = stats(build(F3, 4))
    assert (s.nP, s.nL, s.edges, s.min_deg, s.max_deg, s.is_regular) == (
        81, 81, 243, 3, 3, True,
    )


def test_builds_never_empty():
    for field, k in ((F2, 2), (F3, 2), (F4, 2), (F5, 2), (F2, 6)):
        assert build(field, k).edge_count() > 0


@pytest.mark.parametrize("p,m,k", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (3, 1, 3), (5, 1, 2)])
def test_incidence_matches_moment(p, m, k):
    field = make_field(p, m)
    g = validate_bigraph(build(field, k))
    for lid, line in enumerate(enumerate_lines(field, k)):
        expected = sorted(point_id(field, pt) for pt in points_on(field, line))
        assert list(g.adjL[lid]) == expected
        for pid in expected:
            assert g.nP + lid in g.adjP[pid]
    q = field.q
    assert all(len(row) == q for row in g.adjP)
    assert all(len(row) == q for row in g.adjL)


def test_export_frozen_bytes():
    assert to_text(build(F2, 2)) == D22_TEXT
    assert "\r" not in D22_TEXT
    sink = io.StringIO()
    export(build(F2, 2), sink)
    assert sink.getvalue() == D22_TEXT


def test_export_edge_order_ascending():
    g = build(F3, 2)
    pairs = list(edges(g))
    assert pairs == sorted(pairs)


def test_bare_format():
    g = build(F2, 2)
    bare = to_text(g, "bare")
    assert bare.splitlines() == D22_TEXT.splitlines()[1:]
    with pytest.raises(ValueError):
        to_text(g, "gml")


@pytest.mark.parametrize("seed", range(8))
def test_bare_export_lists_every_edge_in_order(seed):
    # Sparse fixtures: some vertices isolated, some graphs with no edge.
    rng = random.Random(seed)
    n_p, n_l = rng.randint(1, 6), rng.randint(1, 6)
    all_pairs = [(p, l) for p in range(n_p) for l in range(n_l)]
    g = from_edges(n_p, n_l, rng.sample(all_pairs, rng.randint(0, len(all_pairs) // 2)))
    assert to_text(g, "bare") == "\n".join(f"{p} {l}" for p, l in edges(g)) + "\n"


def test_bare_needs_no_meta_but_v1_does():
    g = from_edges(1, 1, [(0, 0)])
    assert to_text(g, "bare") == "0 1\n"
    with pytest.raises(ValueError):
        to_text(g, "v1")


def _reference_text(g: BiGraph, fmt: str) -> str:
    """The export built from its lines: the v1 header, then one
    '<P id> <L id>' line per edge in order, each ending in LF."""
    lines = [f"{p} {l}" for p, l in edges(g)]
    if fmt == "v1":
        field, k = g.meta
        head = f"girthforge-v1 p={field.p} m={field.m} k={k} nP={g.nP} nL={g.nL}"
        lines.insert(0, f"{head} e={len(lines)}")
    return "\n".join(lines) + "\n"


WRITER_GRAPHS = {
    **{f"random-{seed}": random_bipartite(seed) for seed in range(20)},
    "edgeless": from_edges(3, 2, []),  # bare: one blank line; v1: the header
    "isolated": from_edges(5, 4, [(1, 0), (1, 3), (3, 2)]),
    "isolated-l": from_edges(2, 6, [(0, 5), (1, 5)]),
    "d22": build(F2, 2),
    "f3-k3": build(F3, 3),
    # Rows of one length d, kept as a range of starts: d = 1 and d = 2.
    "matching": from_edges(4, 4, [(i, i) for i in range(4)]),
    "cycle-8": cycle_fixture(8),
    "f5-k2": build(F5, 2),
    "f2-k5": build(F2, 5),
    # Rows kept as offsets, with empty P rows first, in a run and last.
    "empty-runs": from_edges(11, 3, [(2, 0), (2, 2), (3, 1), (7, 0), (7, 1), (7, 2), (8, 1)]),
}


def test_writer_graphs_store_rows_both_ways():
    for name in ("matching", "cycle-8"):
        assert isinstance(WRITER_GRAPHS[name].adjP.starts, range)
    assert not isinstance(WRITER_GRAPHS["empty-runs"].adjP.starts, range)


@pytest.mark.parametrize("fmt", ["v1", "bare"])
@pytest.mark.parametrize("name", WRITER_GRAPHS)
def test_export_streams_the_bytes_of_to_text(name, fmt):
    g = WRITER_GRAPHS[name]
    if g.meta is None:
        # The writer copies the metadata into the header unchecked.
        g = BiGraph(g.nP, g.nL, g.adjP, g.adjL, (F2, 2))
    sink = io.StringIO()
    export(g, sink, fmt)
    assert sink.getvalue() == to_text(g, fmt) == _reference_text(g, fmt)


@pytest.mark.parametrize(
    "g,fmt", [(build(F2, 2), "gml"), (from_edges(1, 1, [(0, 0)]), "v1")], ids=["gml", "v1-no-meta"]
)
def test_export_raises_before_anything_reaches_the_sink(g, fmt):
    sink = io.StringIO()
    with pytest.raises(ValueError):
        export(g, sink, fmt)
    assert sink.getvalue() == ""


def test_parse_round_trip():
    for field, k in ((F2, 2), (F3, 2), (F4, 2), (F3, 3)):
        g = build(field, k)
        g2 = parse(to_text(g))
        assert (g2.nP, g2.nL, g2.adjP, g2.adjL, g2.meta) == (
            g.nP, g.nL, g.adjP, g.adjL, g.meta,
        )


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse("")
    with pytest.raises(ValueError):
        parse("some-other-format p=2 m=1 k=2 nP=4 nL=4 e=0\n")
    bad = D22_TEXT.replace("e=8", "e=9")
    with pytest.raises(ValueError):
        parse(bad)


@pytest.mark.parametrize(
    "head",
    [
        "girthforge-v1 p=2 m=1 k=2 nL=4 e=8",
        "girthforge-v1 p=2 m=1 k=2 nP=4 nL=4",
        "girthforge-v1 p=2 m=1 k=2 nP=4 nP=4 nL=4 e=8",
        "girthforge-v1 p=2 m=1 k=2 nP= nL=4 e=8",
        "girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=8 x=1",
    ],
    ids=["missing-nP", "missing-e", "repeated-key", "empty-value", "unknown-key"],
)
def test_parse_rejects_bad_header(head):
    body = D22_TEXT.split("\n", 1)[1]
    with pytest.raises(ValueError):
        parse(head + "\n" + body)


def test_parse_rejects_edges_out_of_order():
    dup = D22_TEXT.replace("e=8", "e=2").splitlines()[0] + "\n0 6\n0 6\n"
    with pytest.raises(ValueError):
        parse(dup)
    swapped = D22_TEXT.replace("0 4\n0 6\n", "0 6\n0 4\n")
    with pytest.raises(ValueError):
        parse(swapped)


def test_parse_rejects_sizes_off_the_field():
    with pytest.raises(ValueError):
        parse(D22_TEXT.replace("k=2", "k=9"))
    with pytest.raises(ValueError):
        parse(D22_TEXT.replace("nL=4", "nL=5"))


@pytest.mark.parametrize(
    "values",
    ["p=4 m=1 k=1 nP=4 nL=4", "p=2 m=0 k=2 nP=1 nL=1", "p=2 m=2 k=1 nP=4 nL=4"],
    ids=["p-not-prime", "m-below-1", "k-below-min"],
)
def test_parse_rejects_header_off_the_field(values):
    with pytest.raises(ValueError):
        parse(f"girthforge-v1 {values} e=0\n")


@pytest.mark.parametrize(
    "values",
    [
        "p=1000000000000000003 m=1 k=2 nP=1 nL=1",
        f"p=1000000000000000003 m=1 k=2 nP={10**36 + 6 * 10**18 + 9} nL={10**36 + 6 * 10**18 + 9}",
        "p=2 m=1000000000000 k=2 nP=1 nL=1",
    ],
    ids=["huge-prime", "huge-prime-matching-counts", "huge-m"],
)
def test_parse_rejects_huge_header_without_trial_division(monkeypatch, values):
    def unreachable(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr("girthforge.gf.is_prime", unreachable)
    with pytest.raises(SizeLimitError):
        parse(f"girthforge-v1 {values} e=0\n")


def test_parse_reports_out_of_range_id_as_written():
    with pytest.raises(ValueError, match=r"edge '0 99': id 99 out of range"):
        parse(D22_TEXT.replace("0 6\n", "0 99\n"))
    with pytest.raises(ValueError, match=r"edge '4 5': id 4 out of range"):
        parse(D22_TEXT.replace("3 6\n", "4 5\n"))
    with pytest.raises(ValueError, match=r"edge '3 2': id 2 out of range"):
        parse(D22_TEXT.replace("3 6\n", "3 2\n"))


def test_build_size_cap():
    with pytest.raises(SizeLimitError):
        build(make_field(2, 12), 2)


@pytest.mark.parametrize("k", [1, 9])
def test_build_rejects_k_as_enumerate_lines_does(k):
    with pytest.raises(ValueError) as built:
        build(F2, k)
    with pytest.raises(ValueError) as enumerated:
        enumerate_lines(F2, k)
    assert str(built.value) == str(enumerated.value)


# Every (field, k) with 2 <= k <= 5 and q^k <= 2^16 over these fields.
ROW_CASES = [
    (make_field(p, m), k)
    for p, m in (
        (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (7, 2), (2, 6)
    )
    for k in range(2, 6)
    if (p**m) ** k <= 1 << 16
]


@pytest.mark.parametrize("field,k", ROW_CASES, ids=[f"q{f.q}-k{k}" for f, k in ROW_CASES])
def test_build_matches_build_from_points(field, k):
    assert build(field, k) == build_from_points(field, k)


@pytest.mark.parametrize("field,k", ROW_CASES, ids=[f"q{f.q}-k{k}" for f, k in ROW_CASES])
def test_build_p_side_is_the_set_based_transpose(field, k):
    # build writes the P rows from the algebra, not from the L rows.
    g = build(field, k)
    mirror = from_edges(g.nP, g.nL, [(p, l) for l, row in enumerate(g.adjL) for p in row])
    assert g.adjP == mirror.adjP and g.adjL == mirror.adjL
    assert g.adjP.starts == g.adjL.starts == range(0, g.edge_count() + 1, field.q)


@pytest.mark.parametrize("field,k", ROW_CASES, ids=[f"q{f.q}-k{k}" for f, k in ROW_CASES])
def test_l_side_made_on_first_read_is_the_transpose_of_the_p_side(monkeypatch, field, k):
    # build lays out the P side alone; each L row is computed from the
    # algebra on every read and held by nothing. Read one at a time, twice
    # over, the rows are those of the mirror of the P side and each read
    # computes its row once; laid out whole, by flat, ==, iteration and
    # repr, the side equals that mirror and each layout computes each row
    # once.
    computed = count_line_rows(monkeypatch)
    g = build(field, k)
    mirror = transpose(g.adjP, g.nL, g.nP)
    assert isinstance(g.adjL, LazyRows) and not computed
    assert [g.adjL[l] for l in range(g.nL)] == list(mirror) == [*map(g.adjL.__getitem__, range(g.nL))]
    assert sorted(computed) == list(range(g.nL)) and set(computed.values()) == {2}
    computed.clear()
    assert g.adjL == mirror and mirror == g.adjL and g.adjL.flat == mirror.flat
    assert list(g.adjL) == list(mirror) and repr(g.adjL) == repr(mirror)
    assert sorted(computed) == list(range(g.nL)) and set(computed.values()) == {5}


@pytest.mark.parametrize("field,k", ROW_CASES, ids=[f"q{f.q}-k{k}" for f, k in ROW_CASES])
def test_line_kernel_lists_each_line_as_points_on_does(field, k):
    # points_on enumerates each line by its parameter y, independently of
    # the kernel's packed terms.
    row = line_kernel(field, k)
    for lid, line in enumerate(enumerate_lines(field, k)):
        expected = sorted(point_id(field, pt) for pt in points_on(field, line))
        assert row(lid).tolist() == expected, line


@pytest.mark.parametrize(
    "p,m,k",
    [(2, 1, 8), (3, 1, 8), (2, 2, 8), (2, 3, 7), (3, 2, 6), (2, 4, 5), (5, 2, 4), (2, 5, 4),
     (7, 2, 3), (2, 6, 3), (2, 8, 2), (13, 1, 5)],
)
def test_line_kernel_matches_points_on_on_sampled_lines(p, m, k):
    # Extension fields and k up to 8, up to the edge cap: lines of
    # direction 0, 1, q-1 and random directions, with random bases, read
    # twice from one kernel so that rows made from kept terms are checked.
    field = make_field(p, m)
    q, rng = field.q, random.Random(p * 1000 + m * 10 + k)
    row = line_kernel(field, k)
    lines = [
        MomentLine(z, (0, *(rng.randrange(q) for _ in range(k - 1))))
        for z in [0, 0, 1, q - 1, *(rng.randrange(q) for _ in range(12))]
    ]
    for line in lines + lines:
        expected = sorted(point_id(field, pt) for pt in points_on(field, line))
        assert row(line_id(field, line)).tolist() == expected, line


def test_l_rows_past_either_end_read_as_rows_reads_them():
    # Ids at or past nL raise IndexError; negative ids count from the
    # end down to -nL and raise below it, on the computed side as on the
    # laid-out one, and through neighbors.
    g = build(F3, 3)
    n, laid_out = g.nL, transpose(g.adjP, g.nL, g.nP)
    for i in (-n - 7, -n - 2, -n - 1, -n, -n + 1, -1, 0, 1, n - 1, n, n + 1, 3 * n):
        for side in (g.adjL, laid_out):
            if -n <= i < n:
                assert side[i] == laid_out[i % n] == g.adjL[i % n], i
            else:
                with pytest.raises(IndexError):
                    side[i]
    for v in (g.nP + n, g.nP + n + 1):
        with pytest.raises(IndexError):
            g.neighbors(v)
    assert len(g.adjL) == len(laid_out) == n


def test_changing_a_returned_row_never_changes_the_graph():
    g = build(F4, 3)
    h = BiGraph(g.nP, g.nL, g.adjP, transpose(g.adjP, g.nL, g.nP), g.meta)
    for graph_ in (g, h):
        before = [graph_.adjL[l] for l in range(graph_.nL)]
        for l in (0, 5, graph_.nL - 1):
            for row in (graph_.adjL[l], graph_.adjL[l - graph_.nL], graph_.neighbors(graph_.nP + l)):
                row[0] = -1
                row.append(7)
        for row in graph_.adjL:
            row.pop()
        assert [graph_.adjL[l] for l in range(graph_.nL)] == before == list(graph_.adjL)
    assert g == h


def test_fill_refuses_blocks_that_stop_short():
    # point_blocks is a generator, read once: read again it gives no
    # block, and fill raises rather than leave an array of zeros.
    blocks = point_blocks(F3, 2)
    assert fill(blocks, 27) == build(F3, 2).adjP.flat
    with pytest.raises(ValueError, match="blocks filled 0 of 108 bytes"):
        fill(blocks, 27)
    with pytest.raises(ValueError, match="blocks filled 4 of 8 bytes"):
        fill([bytes(4)], 2)


def test_l_side_cannot_be_changed_before_or_after_it_is_made(monkeypatch):
    # The L side is a plain attribute from build on. Reading a row
    # changes nothing on the graph, so one reassignment and one deletion
    # are refused, and the side stays the object build gave it.
    computed = count_line_rows(monkeypatch)
    g = build(F3, 3)
    side = vars(g)["adjL"]
    g.neighbors(g.nP + 13)
    with pytest.raises(AttributeError, match="cannot be changed"):
        g.adjL = g.adjP
    with pytest.raises(AttributeError, match="cannot be changed"):
        del g.adjL
    assert vars(g)["adjL"] is g.adjL is side and g.is_moment_graph
    assert list(computed.items()) == [(13, 1)]
    # A graph not made by build holds the L side it was given.
    h = BiGraph(g.nP, g.nL, g.adjP, side, g.meta)
    assert vars(h)["adjL"] is side and h == g


@pytest.mark.parametrize("p,m,k", [(3, 2, 2), (3, 2, 3), (3, 2, 4), (3, 2, 5), (5, 2, 3)])
@pytest.mark.usefixtures("fresh_fields")
def test_build_and_certificate_read_the_field_by_rows(monkeypatch, p, m, k):
    # 2 q^2 calls fill the field's add and mul rows. The line and point
    # blocks then make under 3k calls per direction between them, and
    # the mark build sets makes none. One call per table entry made over
    # 10^5 calls at GF(25), k=3.
    calls = count_field_calls(monkeypatch)
    field = make_field(p, m)
    assert build(field, k).is_moment_graph
    q = field.q
    assert sum(calls.values()) <= 2 * q * q + 3 * k * q


@pytest.mark.parametrize(
    "field,k", [(F2, 5), (F3, 3), (F4, 3), (F5, 2), (make_field(3, 2), 3)], ids=repr
)
def test_parsed_graph_is_certified(field, k):
    g = parse(to_text(build(field, k)))
    assert g.meta == (field, k) and g.is_moment_graph


@pytest.mark.parametrize("field,k", [(F2, 2), (F3, 3), (F4, 3), (make_field(2, 4), 3)], ids=repr)
def test_parse_has_the_rows_and_starts_of_build(field, k):
    g, h = build(field, k), parse(to_text(build(field, k)))
    for built, parsed in ((g.adjP, h.adjP), (g.adjL, h.adjL)):
        assert parsed.flat == built.flat
        assert parsed.starts == built.starts == range(0, g.edge_count() + 1, field.q)


def test_rows_hold_a_regular_side_as_a_range():
    rows = Rows.of([[4, 6], [4, 7], [5, 7]])
    assert rows.starts == range(0, 7, 2) and list(rows.flat) == [4, 6, 4, 7, 5, 7]
    assert len(rows) == 3 and 7 in rows[1] and list(rows[-1]) == [5, 7]
    assert [list(r) for r in rows] == [[4, 6], [4, 7], [5, 7]]
    assert list(rows.degrees()) == [2, 2, 2] and list(Rows.of([]).degrees()) == []
    ragged = Rows.of([[1], [], [0, 2]])
    assert list(ragged.starts) == [0, 1, 1, 3] and not isinstance(ragged.starts, range)
    assert list(ragged.degrees()) == [1, 0, 2] and list(ragged[1]) == []
    # Equal rows are equal whichever way they were made.
    assert Rows.of([[4, 6], [4, 7], [5, 7]]) == rows != ragged
    assert Rows.of([]) == Rows.of(()) and len(Rows.of([])) == 0
    with pytest.raises(IndexError):
        rows[3]


def _rows_of_per_row(rows):
    """Rows.of as one extend and one append per row."""
    flat, ends = array("i"), array("i", [0])
    for row in rows:
        flat.extend(row)
        ends.append(len(flat))
    return Rows(flat, ends)


@pytest.mark.parametrize("seed", range(40))
def test_rows_of_lays_out_random_ragged_rows_as_one_row_at_a_time(seed):
    # Empty rows, one row, no rows at all, and every fourth seed rows of
    # one length, which Rows keeps as a range of starts.
    rng = random.Random(seed)
    n = rng.choice([0, 1, rng.randrange(2, 60)])
    if seed % 4 == 0:
        lengths = [rng.randrange(4)] * n
    else:
        lengths = [rng.choice([0, 0, 1, rng.randrange(9)]) for _ in range(n)]
    rows = [[rng.randrange(-(1 << 31), 1 << 31) for _ in range(d)] for d in lengths]
    got = Rows.of(iter(rows))
    assert got == _rows_of_per_row(rows)
    assert [row.tolist() for row in got] == rows and list(got.degrees()) == lengths


def _mutants(field, k):
    """Three graphs with the moment graph's metadata and edge count that
    are not the moment graph: the last L entry changed (the P side left
    as built), two L rows swapped, and one point moved from an L row to
    another, which leaves L irregular."""
    g = build(field, k)
    n = g.nP
    flat = g.adjL.flat[:]
    flat[-1] = (flat[-1] + 1) % n
    changed = BiGraph(n, n, g.adjP, Rows(flat, g.adjL.starts), g.meta)
    rows = [list(r) for r in g.adjL]
    swapped = [list(r) for r in rows]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    moved = [list(r) for r in rows]
    p = moved[0].pop()
    moved[1] = sorted({*moved[1], p})
    return [changed] + [
        from_edges(n, n, [(pt, l) for l, row in enumerate(r) for pt in row], g.meta)
        for r in (swapped, moved)
    ]


@pytest.mark.parametrize("field,k", [(F2, 2), (F3, 3), (F4, 3), (F5, 4)], ids=repr)
def test_certificate_refuses_each_mutant(field, k):
    assert build(field, k).is_moment_graph
    changed, swapped, moved = _mutants(field, k)
    e = field.q ** (k + 1)
    assert changed.edge_count() == swapped.edge_count() == moved.edge_count() == e
    # The first two are as regular as the moment graph; none is build's,
    # so none is marked.
    assert changed.adjL.starts == swapped.adjP.starts == range(0, e + 1, field.q)
    assert not isinstance(moved.adjL.starts, range)
    for g in (changed, swapped, moved):
        assert g.is_moment_graph is False


def test_a_field_made_again_after_eviction_is_an_equal_value(fresh_fields):
    old = make_field(3, 2)
    for p in (2, 5, 7, 11):  # make_field keeps the four fields it made last
        make_field(p)
    new = make_field(3, 2)
    assert new is not old
    assert new == old and hash(new) == hash(old) and new in {old}
    assert new != make_field(3) and new != (old.p, old.m, old.q, old.modulus)
    assert build(old, 3) == build(new, 3)


def test_fields_and_graphs_cannot_be_changed():
    f = make_field(2, 2)
    f.add_rows  # a table made on first use is as fixed as the rest
    cases = [
        (f, ("p", "m", "q", "modulus", "add_rows", "mul_rows", "new")),
        (build(f, 2), ("nP", "nL", "adjP", "adjL", "meta", "is_moment_graph", "new")),
    ]
    for obj, names in cases:
        for name in names:
            before = getattr(obj, name, None)
            with pytest.raises(AttributeError, match="cannot be changed"):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match="cannot be changed"):
                delattr(obj, name)
            assert getattr(obj, name, None) is before


def test_graph_equality_ignores_the_moment_graph_mark():
    g = build(F3, 2)
    h = BiGraph(g.nP, g.nL, g.adjP, g.adjL, g.meta)
    assert g.is_moment_graph and not h.is_moment_graph
    assert g == h and h == g and not g != h
    assert h == BiGraph(nP=g.nP, nL=g.nL, adjP=g.adjP, adjL=g.adjL, meta=(make_field(3), 2))
    assert g != BiGraph(g.nP, g.nL, g.adjP, g.adjL)
    assert g != BiGraph(g.nP, g.nL, g.adjP, g.adjP, g.meta)
    assert g != (g.nP, g.nL, g.adjP, g.adjL, g.meta)


@pytest.mark.parametrize("seed", range(100))
def test_from_rows_matches_set_based_from_edges(seed):
    # The counting transpose makes each side from the other's rows as
    # from_edges makes both from sets: L rows from P rows, as parse does,
    # and P rows, with local L ids, from L rows.
    g = random_bipartite(seed)
    pairs = [(p, l - g.nP) for p, l in edges(g)]
    # The same edges with one more vertex, isolated, on either side.
    for n_p, n_l in ((g.nP, g.nL), (g.nP + 1, g.nL), (g.nP, g.nL + 1)):
        ref = validate_bigraph(from_edges(n_p, n_l, pairs))
        assert transpose(ref.adjP, n_l, n_p) == ref.adjL
        local_p = Rows.of([l - n_p for l in row] for row in ref.adjP)
        assert transpose(ref.adjL, n_p, 0) == local_p


def test_from_edges_validation():
    with pytest.raises(ValueError):
        from_edges(2, 2, [(2, 0)])
    with pytest.raises(ValueError):
        from_edges(2, 2, [(0, -1)])
    g = from_edges(2, 2, [(0, 0), (0, 0), (1, 1)])
    assert g.edge_count() == 2


def test_parse_refuses_header_past_edge_cap():
    # 7^8 = 5 764 801 vertices a side and 7^9 = 40 353 607 edges, past
    # EDGE_CAP = 2^25. Refused from the header alone, before any row is
    # allocated.
    with pytest.raises(SizeLimitError, match="exceeds edge cap"):
        parse("girthforge-v1 p=7 m=1 k=8 nP=5764801 nL=5764801 e=0\n")


def test_parse_checks_the_edge_cap_before_the_rows(monkeypatch):
    # With the cap lowered, this header would parse if the check were skipped.
    monkeypatch.setattr("girthforge.moment.EDGE_CAP", 1 << 10)
    with pytest.raises(SizeLimitError):
        parse("girthforge-v1 p=3 m=1 k=7 nP=2187 nL=2187 e=0\n")


def _outcome(parser, text):
    """The parsed graph, or the type and message of the ValueError."""
    try:
        return parser(text)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field,k", ROW_CASES, ids=[f"q{f.q}-k{k}" for f, k in ROW_CASES])
def test_parse_matches_set_parse(field, k):
    text = to_text(build(field, k))
    assert parse(text) == set_parse(text)


def _off_moment(
    text: str, field, k: int, kind: str, where: str
) -> tuple[str, tuple[int, int], int | None]:
    """A valid v1 text one edge off the moment graph's export text: the
    first, a middle or the last edge line dropped, with e= recounted, or
    its L id moved to the next id of its direction block, with e= kept.
    A P row holds one line of each direction and each direction's lines
    are nL/q consecutive ids, so the moved id stays free and in order.
    Returns the text, the edge (P id, L id) taken out and the L id it
    moved to, None for a drop."""
    head = text.index("\n") + 1
    if where == "first":
        start = head
    elif where == "last":
        start = text.rindex("\n", 0, len(text) - 1) + 1
    else:
        start = text.index("\n", (head + len(text)) // 2) + 1
    end = text.index("\n", start) + 1
    ps, ls = text[start:end].split()
    edge = (int(ps), int(ls))
    if kind == "drop":
        stem, _, e = text[: head - 1].rpartition("=")
        return f"{stem}={int(e) - 1}\n" + text[head:start] + text[end:], edge, None
    n, block = field.q**k, field.q ** (k - 1)
    lid = edge[1]
    lid += 1 if (lid - n + 1) % block else -1
    return text[:start] + f"{ps} {lid}\n" + text[end:], edge, lid


def _one_edge_off(g: BiGraph, edge: tuple[int, int], moved_to: int | None) -> BiGraph:
    """g with the edge (p, l) dropped or, given moved_to, moved to (p, moved_to),
    edited in both sides' rows."""
    p, l = edge
    adj_p, adj_l = list(g.adjP), list(g.adjL)
    adj_p[p].remove(l)
    adj_l[l - g.nP].remove(p)
    if moved_to is not None:
        adj_p[p] = array("i", sorted([*adj_p[p], moved_to]))
        adj_l[moved_to - g.nP] = array("i", sorted([*adj_l[moved_to - g.nP], p]))
    return BiGraph(g.nP, g.nL, Rows.of(adj_p), Rows.of(adj_l), g.meta)


OFF_MOMENT = [(kind, where) for kind in ("drop", "edit") for where in ("first", "middle", "last")]


@pytest.mark.parametrize("field,k", ROW_CASES, ids=[f"q{f.q}-k{k}" for f, k in ROW_CASES])
def test_parse_reads_texts_off_the_moment_graph_by_the_row_scan(field, k):
    # A moment-sized e= sends parse to compare the text with the built
    # graph's export; an edit stops that walk at the first, a middle or
    # the last P row. A dropped edge changes e= and is scanned at once.
    # The expected graph is the built one with the same edge edited in
    # its rows; test_parse_matches_set_parse keeps the set-based reference.
    built = build(field, k)
    text = to_text(built)
    for kind, where in OFF_MOMENT:
        off, edge, moved_to = _off_moment(text, field, k, kind, where)
        g = parse(off)
        assert g == _one_edge_off(built, edge, moved_to) and not g.is_moment_graph


def test_parse_scans_the_body_only_off_the_export(monkeypatch):
    # The export's line count, line ends and non-empty lines hold by
    # construction, so parse reads it back with no whole-body scan; every
    # other text is scanned before its rows are read.
    scanned = []
    real = graph.check_body

    def recorded(text, start, count_key, count):
        scanned.append((start, count_key, count))
        real(text, start, count_key, count)

    monkeypatch.setattr(graph, "check_body", recorded)
    text = to_text(build(F3, 3))
    assert parse(text).is_moment_graph and scanned == []
    start = text.index("\n") + 1
    for kind, e in (("edit", 81), ("drop", 80)):
        off = _off_moment(text, F3, 3, kind, "middle")[0]
        assert not parse(off).is_moment_graph and scanned[-1] == (start, "e", e)
    assert len(scanned) == 2


def test_parse_makes_no_l_side_to_compare_a_text(monkeypatch):
    # A moment-sized text is compared with the export of the graph parse
    # builds, which reads the P side alone: no L row of that graph is
    # computed, whether the text is its export or stops the comparison in
    # the first, a middle or the last block of P rows. A text off the
    # moment graph gets an L side laid out by the transpose.
    built = []
    real = graph.build

    def recorded(field, k):
        built.append(real(field, k))
        return built[-1]

    monkeypatch.setattr(graph, "build", recorded)
    text = to_text(real(F4, 3))
    computed = count_line_rows(monkeypatch)
    g = parse(text)
    assert built == [g] and isinstance(g.adjL, LazyRows)
    for where in ("first", "middle", "last"):
        h = parse(_off_moment(text, F4, 3, "edit", where)[0])
        assert not h.is_moment_graph and not isinstance(h.adjL, LazyRows)
        assert h is not built[-1] and isinstance(built[-1].adjL, LazyRows)
    assert len(built) == 4 and not computed


class _Transposed(Exception):
    pass


@pytest.mark.parametrize("field,k", [(F2, 2), (F3, 3), (F4, 3), (F5, 2)], ids=repr)
def test_parse_builds_a_moment_text_without_the_row_scan(monkeypatch, field, k):
    def transposed(*args):
        raise _Transposed

    monkeypatch.setattr("girthforge.graph.transpose", transposed)
    text = to_text(build(field, k))
    assert parse(text) == build(field, k)
    with pytest.raises(_Transposed):
        parse(_off_moment(text, field, k, "drop", "last")[0])


F3_K3_TEXT = to_text(build(F3, 3))


def _mutate(text: str, kind: str, rng: random.Random) -> str:
    """One seeded defect; e= is recounted unless the defect is e= itself."""
    head, *body = text.splitlines()
    n = int(head.split("nP=")[1].split()[0])
    i = rng.randrange(len(body))
    if kind == "swap":
        body[i - 1], body[i] = body[i], body[i - 1]
    elif kind == "duplicate":
        body.insert(i, body[i])
    elif kind == "out-of-range":
        ps, ls = body[i].split()
        if rng.random() < 0.5:
            body[i] = f"{rng.choice([-1, n, 2 * n])} {ls}"
        else:
            body[i] = f"{ps} {rng.choice([-1, n - 1, 2 * n])}"
    elif kind == "one-token":
        body[i] = body[i].split()[rng.randrange(2)]
    elif kind == "three-tokens":
        body[i] = f"{body[i]} {rng.randrange(2 * n)}"
    elif kind == "blank":
        body.insert(i, rng.choice(["", " ", "\t"]))
    elif kind == "non-integer":
        ps, ls = body[i].split()
        body[i] = rng.choice([f"x {ls}", f"{ps} x", f"{ps} {ls}.0"])
    e = sum(1 for ln in body if ln)
    if kind == "wrong-e":
        e += rng.choice([-1, 1])
    head = f"{head.rsplit(' e=', 1)[0]} e={e}"
    if kind == "non-integer-header":
        key = rng.choice(["p", "m", "k", "nP", "nL", "e"])
        head = re.sub(rf" {key}=\d+", f" {key}=x", head)
    return "\n".join([head, *body]) + "\n"


MUTATIONS = [
    "swap",
    "duplicate",
    "out-of-range",
    "one-token",
    "three-tokens",
    "non-integer",
    "blank",
    "wrong-e",
    "non-integer-header",
]
MALFORMED = {"one-token", "three-tokens", "non-integer"}


@pytest.mark.parametrize("kind", MUTATIONS)
@pytest.mark.parametrize(
    "name,text", [("d22", D22_TEXT), ("f3-k3", F3_K3_TEXT)], ids=["d22", "f3-k3"]
)
def test_parse_agrees_with_set_parse_on_mutations(name, text, kind):
    rng = random.Random(f"{name}-{kind}")
    for _ in range(8):
        bad = _mutate(text, kind, rng)
        got = _outcome(parse, bad)
        assert got == _outcome(set_parse, bad)
        # Every defect is refused, an empty line included.
        assert not isinstance(got, BiGraph)
        if kind == "blank":
            blank = r"line \d+ is blank|edge '( |\\t)': expected two integer ids"
            assert re.fullmatch(blank, got[1])
        if kind in MALFORMED:
            assert re.fullmatch(r"edge '[^']*': expected two integer ids", got[1])
        if kind == "non-integer-header":
            assert re.fullmatch(r"header field '\w+=x': expected an integer value", got[1])


@pytest.mark.parametrize(
    "text,message",
    [
        (D22_HEAD + "1\n0\n", "edge '0': expected two integer ids"),
        (D22_HEAD + "1\n0 x\n", "edge '0 x': expected two integer ids"),
        (D22_HEAD + "1\n0 4 5\n", "edge '0 4 5': expected two integer ids"),
        (
            D22_HEAD.replace("p=2", "p=x") + "0\n",
            "header field 'p=x': expected an integer value",
        ),
        # Past int()'s digit limit, opening a row and inside one.
        (D22_HEAD + f"1\n0 {'4' * 5000}\n", f"edge '0 {'4' * 5000}': expected two integer ids"),
        (
            D22_HEAD + f"2\n0 4\n0 {'6' * 5000}\n",
            f"edge '0 {'6' * 5000}': expected two integer ids",
        ),
    ],
    ids=["one-token", "non-integer", "three-tokens", "header-value", "huge-id", "huge-id-in-row"],
)
def test_parse_names_a_malformed_line_as_written(text, message):
    assert _outcome(parse, text) == _outcome(set_parse, text) == (ValueError, message)


@pytest.mark.parametrize(
    "text,message",
    [
        (
            D22_TEXT.replace("p=2 m=1 k=2", "k=2 m=1 p=2"),
            "header 'girthforge-v1 k=2 m=1 p=2 nP=4 nL=4 e=8': "
            "expected 'girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=8'",
        ),
        (
            D22_TEXT.replace(" nL=", "  nL="),
            "header 'girthforge-v1 p=2 m=1 k=2 nP=4  nL=4 e=8': "
            "expected 'girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=8'",
        ),
        (
            D22_TEXT.replace("e=8", "e=08"),
            "header 'girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=08': "
            "expected 'girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=8'",
        ),
        (D22_TEXT.replace("1 4\n", "\n1 4\n"), "line 4 is blank"),
        (D22_TEXT + "\n", "line 10 is blank"),
        (
            D22_TEXT.replace("\n", "\r\n"),
            "header 'girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=8\\r': "
            "expected 'girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=8'",
        ),
        (D22_TEXT.replace("0 6\n", "0 6\r\n"), "edge '0 6\\r': expected '0 6'"),
        (D22_TEXT.replace("2 5\n", "2 5\r\n"), "edge '2 5\\r': expected '2 5'"),
        (D22_TEXT[:-1], "line 9 '3 6' does not end in a newline"),
        (D22_HEAD + "0", "line 1 'girthforge-v1 p=2 m=1 k=2 nP=4 nL=4 e=0' does not end in a newline"),
    ],
    ids=[
        "permuted-keys",
        "doubled-space",
        "leading-zero",
        "blank-line",
        "blank-last-line",
        "crlf",
        "crlf-in-row",
        "crlf-opening-row",
        "no-final-newline",
        "header-without-newline",
    ],
)
def test_parse_refuses_spellings_that_do_not_round_trip(text, message):
    assert _outcome(parse, text) == _outcome(set_parse, text) == (ValueError, message)


HEAD16 = "girthforge-v1 p=2 m=1 k=4 nP=16 nL=16 e="

# Edge lines that str.split() and int() read as (P id, L id) but that
# to_text never writes, each with the spelling it would write.
SPELLINGS = [
    ("0 17\t", "0 17"),
    ("0\t17", "0 17"),
    ("0  17", "0 17"),
    ("+1 17", "1 17"),
    ("01 17", "1 17"),
    ("1_0 17", "10 17"),
    ("\u0663 17", "3 17"),
    ("0 17\r", "0 17"),
    (" 0 17", "0 17"),
    ("0 017", "0 17"),
    ("0 +17", "0 17"),
    ("0 1_7", "0 17"),
    ("0 \u06617", "0 17"),
]


@pytest.mark.parametrize("opens_row", [True, False], ids=["opens-row", "in-row"])
@pytest.mark.parametrize("line,spelled", SPELLINGS, ids=[repr(ln) for ln, _ in SPELLINGS])
def test_parse_refuses_edge_spellings_that_to_text_never_writes(line, spelled, opens_row):
    # In a row opened by the canonical "<p> 16", the line is the row's
    # second edge.
    body = [line] if opens_row else [f"{spelled.split()[0]} 16", line]
    text = f"{HEAD16}{len(body)}\n" + "\n".join(body) + "\n"
    expected = (ValueError, f"edge {line!r}: expected {spelled!r}")
    assert _outcome(parse, text) == _outcome(set_parse, text) == expected
    good = text.replace(line, spelled)
    assert to_text(parse(good)) == good


FUZZ_SHAPES = [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)]


@st.composite
def edge_list_texts(draw):
    """Near-valid v1 texts over small fields: in-range edges, sorted or
    not, at most one junk or out-of-range line, header counts off by one."""
    p, m, k = draw(st.sampled_from(FUZZ_SHAPES))
    n = (p**m) ** k
    edge = st.tuples(st.integers(0, n - 1), st.integers(n, 2 * n - 1))
    pairs = draw(st.lists(edge, max_size=16))
    if draw(st.integers(0, 3)):
        pairs = sorted(set(pairs))
    body = [f"{a} {b}" for a, b in pairs]
    junk = st.sampled_from(
        ["", " ", "0", f"0 {n} 1", "x 4", f"1  {n}", f"+1 {n}",
         f"-1 {n}", f"{n} {n}", f"0 {2 * n}", f"0 {n - 1}",
         f"0 {n}\t", f"0\t{n}", f"01 {n}", f"1_0 {n}", f"\u0663 {n}",
         f"0 {n}\r", f"0 0{n}", f"0 +{n}"]
    )
    for at, ln in draw(st.lists(st.tuples(st.integers(0, len(body)), junk), max_size=1)):
        body.insert(at, ln)
    n_p = n + draw(st.sampled_from([0, 0, 0, 0, 1]))
    e = len([ln for ln in body if ln]) + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
    head = f"girthforge-v1 p={p} m={m} k={k} nP={n_p} nL={n} e={e}"
    return "\n".join([head, *body]) + "\n"


@given(text=edge_list_texts() | st.text("girthforge-v1 pmknPLe=0123456789\n", max_size=60))
@settings(max_examples=300, deadline=None)
def test_parse_fuzz_round_trips_or_raises(text):
    got = _outcome(parse, text)
    assert got == _outcome(set_parse, text)
    if isinstance(got, BiGraph):
        # Only the text that to_text writes is read back: every junk line,
        # a doubled space or a sign among them, is refused.
        assert to_text(got) == text
        assert parse(to_text(got)) == got


GF16_K3_TEXT = to_text(build(make_field(2, 4), 3))


def _traced(fn):
    """fn's result, and the peak and the kept bytes that tracemalloc
    counts while fn runs: counts of allocations, the same on every run,
    unlike RSS or time."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
        return out, peak - base, kept - base
    finally:
        tracemalloc.stop()


def _traced_peak(fn) -> int:
    return _traced(fn)[1]


@pytest.mark.parametrize("dropped", [False, True], ids=["moment", "dropped-edge"])
def test_parse_allocates_a_small_multiple_of_its_text(dropped):
    # 65 536 edges in 637 650 characters. Splitting the body into line
    # strings, with an int per edge, took 14.4x the text; reading it one
    # P row at a time into tuple rows took 5.1x, into flat rows 1.7x, the
    # parsed graph included. Building the moment graph and comparing its
    # export with the text takes 1.4x; a dropped edge is read by the row
    # scan, still 1.7x.
    text = GF16_K3_TEXT
    if dropped:
        text = _off_moment(text, make_field(2, 4), 3, "drop", "last")[0]
    peak = _traced_peak(lambda: parse(text))
    assert peak < 8 * len(text)


def test_built_graph_keeps_two_int32_arrays():
    # GF(16), k=4: 2^20 edges, 65 536 vertices a side. The P side is one
    # array of 4-byte ids and a range, and the L side holds no row; tuple
    # rows kept 36 bytes an entry.
    field = make_field(2, 4)
    field.add_rows, field.mul_rows  # the field's tables and rows are built outside the count
    g, peak, kept = _traced(lambda: build(field, 4))
    e, n = g.edge_count(), g.nP + g.nL
    assert e == 1 << 20
    assert kept <= 2 * 4 * e + n
    # One side's blocks are written into an array allocated once: 1.14x.
    assert peak < 2 * (2 * 4 * e + n)


@pytest.mark.parametrize("dropped", [False, True], ids=["moment", "dropped-edge"])
def test_parse_peaks_a_small_bound_above_the_text(dropped):
    # GF(25), k=3: 390 625 edges in 4 409 803 characters. Parsing into
    # tuple rows peaked at 17.8 MiB above the text; into flat rows 5.2 MiB,
    # 14 bytes an edge, the 8 that the graph keeps included. The row scan
    # still peaks there on a dropped edge; the moment text, built and
    # compared with its export, peaks at 4.3 MiB, 12 bytes an edge.
    field = make_field(5, 2)
    text = to_text(build(field, 3))
    if dropped:
        text = _off_moment(text, field, 3, "drop", "last")[0]
    g, peak, kept = _traced(lambda: parse(text))
    e = g.edge_count()
    assert kept < 9 * e
    assert peak < 16 * e


def test_transpose_peaks_a_small_bound_above_its_input():
    # GF(16), k=4: the mirror of 2^20 P-side entries over 65 536 L rows.
    # Keeping the next free slot of each entry in a list of ints peaked
    # at 12.76 MiB above the input; in an array('i'), at 9.76 MiB.
    g = build(make_field(2, 4), 4)
    mirror, peak, _ = _traced(lambda: transpose(g.adjP, g.nL, g.nP))
    assert mirror.starts == range(0, g.edge_count() + 1, 16)
    assert peak < 11 * 2**20


def test_parse_round_trips_a_moment_text_with_its_last_edge_dropped():
    # GF(25), k=3 with one edge dropped: 15 625 P rows kept as offsets,
    # the last one a shorter row, read by the row scan and written back.
    field = make_field(5, 2)
    text = _off_moment(to_text(build(field, 3)), field, 3, "drop", "last")[0]
    g = parse(text)
    assert not isinstance(g.adjP.starts, range)
    # Compared as lines, so a failure names the first line that differs
    # rather than diffing two 4.4 MB strings.
    assert to_text(g).splitlines(True) == text.splitlines(True)


class _CountingSink:
    """A text sink that keeps only how many characters reach it."""

    def __init__(self) -> None:
        self.chars = 0

    def write(self, chunk: str) -> None:
        self.chars += len(chunk)


def test_export_never_holds_the_whole_text():
    # Joining the whole text before writing it took 3.8x the text;
    # writing one P row at a time takes 0.56x, most of it the line
    # suffixes of the L ids, which the render makes once each.
    g = parse(GF16_K3_TEXT)
    sink = _CountingSink()
    peak = _traced_peak(lambda: export(g, sink))
    assert sink.chars == len(GF16_K3_TEXT)
    assert peak < len(GF16_K3_TEXT)


def test_export_of_a_built_graph_keeps_one_int32_array(monkeypatch):
    # GF(16), k=4: 2^20 edges. build fills the P side, and export and
    # to_text read it alone, so the graph keeps one array of 4-byte ids
    # and a range; no L row is computed.
    field = make_field(2, 4)
    field.add_rows, field.mul_rows  # the field's tables and rows are built outside the count

    def built_and_written():
        g = build(field, 4)
        export(g, _CountingSink())
        to_text(g)
        return g

    computed = count_line_rows(monkeypatch)
    g, _, kept = _traced(built_and_written)
    e, n = g.edge_count(), g.nP + g.nL
    assert e == 1 << 20 and not computed
    assert kept <= 4 * e + n


def test_a_built_graph_holds_no_l_row(monkeypatch):
    # GF(16), k=4: 65 536 L rows of 16 ids. Every row read twice is
    # computed twice, once a read, and neither the graph nor the kernel
    # holds it: what stays is the kernel's packed terms, at most
    # 16 * 3 * 16 of them, under 0.1 MiB. Keeping each row on its first read held 14.5 MiB, 3.6 times
    # the P side's 4 MiB. The count keeps a key per row, so the held bytes
    # are measured on a graph built outside it.
    field = make_field(2, 4)
    field.add_rows, field.mul_rows  # the field's tables and rows are built outside the count

    def read_twice(g):
        for _ in range(2):
            for l in range(g.nL):
                g.adjL[l]

    plain = build(field, 4)
    held = _traced(lambda: read_twice(plain))[2]
    assert held < 1 << 20
    computed = count_line_rows(monkeypatch)
    g = build(field, 4)
    read_twice(g)
    assert sorted(computed) == list(range(g.nL)) and set(computed.values()) == {2}
