import gc
import math
import pathlib
import re
import sys
import types

import pytest

from girthforge import graph, verify
from girthforge.errors import SizeLimitError
from girthforge.gf import make_field
from girthforge.graph import BiGraph, build, parse, stats, to_text
from girthforge.moment import line_through, points_on
from girthforge.oracle import NAIVE_LEN_CAP, NAIVE_VERTEX_CAP, naive_cycle_count
from girthforge.rows import LazyRows, Rows, transpose
from girthforge.verify import (
    BIG_CYCLE_VERTEX_CAP,
    construction_report,
    count_cycles,
    find_c4,
    first_cycle,
    iter_cycles,
    l4_path_counts_from,
    max_l4_paths,
    validate_cycle,
    verify_construction,
)
from helpers import (
    brute_force_simple_paths,
    count_line_rows,
    cycle_fixture,
    edges,
    from_edges,
    girth,
    k22,
    k33,
    path_fixture,
    random_bipartite,
    record_dfs_roots,
    star_fixture,
    vertex_rooted_count,
    witness_directions,
)

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)
F8 = make_field(2, 3)

# (field, k, lengths) on which rooted counts are compared with full
# enumeration; nonzero counts include C8 = 4 at q=2 k=4, C8 = 81 at
# q=3 k=3 and C12 = 4374 at q=3 k=5.
ROOTED_CASES = (
    [(f, k, range(4, 13, 2)) for f in (F2, F3) for k in range(2, 6)]
    + [(F4, k, range(4, 11, 2)) for k in (2, 3)]
    + [(F5, k, range(4, 9, 2)) for k in (2, 3)]
    + [(F4, 5, (6, 10))]
)

# (field, k, length, count) with nonzero counts, on which the count
# through one edge is compared with the count through P vertex 0.
FLAG_CASES = [(f, 2, 6, None) for f in (F3, F4, F5, F7, F8)] + [
    (F5, 3, 8, 12_500),
    (F7, 3, 8, 280_917),
    (F3, 5, 12, 4_374),
    (F5, 4, 10, 30_000),
    (F3, 6, 12, 13_122),
]


def test_find_c4_on_k22():
    w = find_c4(k22())
    assert w is not None and len(w) == 4
    validate_cycle(k22(), w)


def test_find_c4_none_on_constructions():
    for field, k in ((F7, 2), (F3, 5), (F2, 4), (F4, 3)):
        assert find_c4(build(field, k)) is None


def test_girth_d2q2_is_8():
    # 8 vertices, 2-regular, bipartite and C4-free forces a single
    # 8-cycle; the naive walk oracle confirms the enumeration.
    g = build(F2, 2)
    assert girth(g) == 8
    assert naive_cycle_count(g, 4) == 0
    assert naive_cycle_count(g, 6) == 0
    assert naive_cycle_count(g, 8) == 1
    assert count_cycles(g, 8)[0] == 1


def test_girth_d2q3_is_6_with_explicit_triangle():
    # Three pairwise non-parallel lines meeting in three distinct
    # points give a 6-cycle, so the C4-free graph has girth exactly 6.
    l0 = line_through(F3, (0, 0), 0)
    l1 = line_through(F3, (0, 0), 1)
    l2 = line_through(F3, (1, 0), 2)
    pts = [set(points_on(F3, a)) & set(points_on(F3, b)) for a, b in ((l0, l1), (l1, l2), (l2, l0))]
    assert all(len(s) == 1 for s in pts)
    assert len(set().union(*pts)) == 3
    g = build(F3, 2)
    assert girth(g) == 6
    cnt, w = count_cycles(g, 6)
    assert cnt == 18 and w is not None


def test_girth_acyclic_is_infinite():
    assert girth(path_fixture()) == math.inf
    assert girth(star_fixture()) == math.inf
    assert girth(cycle_fixture(8)) == 8


def test_count_cycles_fixture_examples():
    assert count_cycles(cycle_fixture(8), 8) == (1, (0, 4, 1, 5, 2, 6, 3, 7))
    assert count_cycles(cycle_fixture(8), 6)[0] == 0
    assert count_cycles(k22(), 4)[0] == 1
    assert count_cycles(k33(), 4)[0] == 9
    assert count_cycles(k33(), 6)[0] == 6


def test_count_cycles_odd_and_bad_lengths():
    g = k33()
    assert count_cycles(g, 5) == (0, None)
    assert count_cycles(g, 7) == (0, None)
    with pytest.raises(ValueError):
        count_cycles(g, 14)
    with pytest.raises(ValueError):
        count_cycles(g, 2)


def test_count_cycles_size_cap():
    g = from_edges(5000, 5000, [(0, 0)])
    with pytest.raises(SizeLimitError):
        count_cycles(g, 10)
    assert count_cycles(g, 8)[0] == 0


def test_witnesses_revalidate():
    for w in iter_cycles(build(F3, 2), 6):
        assert validate_cycle(build(F3, 2), w) == w
    with pytest.raises(ValueError):
        validate_cycle(k22(), (0, 2, 0, 3))
    with pytest.raises(ValueError):
        validate_cycle(path_fixture(), (0, 3, 1, 4))


def test_girth_agrees_with_count_cycles():
    for g in (build(F2, 2), build(F3, 2), build(F4, 2), k33(), cycle_fixture(8)):
        lengths = [n for n in (4, 6, 8, 10) if count_cycles(g, n)[0] > 0]
        assert girth(g) == min(lengths)


def test_girth_on_random_fixtures_matches_oracle():
    for seed in range(30):
        g = random_bipartite(seed, max_side=9)
        with_cycles = [n for n in (4, 6, 8, 10) if naive_cycle_count(g, n) > 0]
        got = girth(g)
        if with_cycles:
            assert got == min(with_cycles)
        else:
            # no short cycle; anything longer must still be a real cycle
            assert got == math.inf or got > 10


def test_girth_disconnected_components():
    # C4 and C8 side by side; the shorter one wins
    edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
    edges += [(2 + i, 2 + i) for i in range(4)]
    edges += [(2 + (i + 1) % 4, 2 + i) for i in range(4)]
    g = from_edges(6, 6, edges)
    assert girth(g) == 4


def test_max_l4_paths_fixtures():
    assert max_l4_paths(star_fixture())[0] == 0
    assert max_l4_paths(path_fixture()) == (1, (0, 2))


def test_max_l4_paths_constructions():
    for field in (F2, F3):
        best, pair = max_l4_paths(build(field, 4))
        assert best <= 2 and pair is not None


def test_l4_path_counts_from_matches_reverse():
    g = build(F2, 4)
    for p in range(0, g.nP, 3):
        counts = l4_path_counts_from(g, p)
        for p2, c in counts.items():
            assert l4_path_counts_from(g, p2)[p] == c


def test_construction_report_passes():
    for field, k in ((F4, 3), (F2, 5), (F3, 2)):
        report = verify_construction(field, k)
        assert report.passed
        names = [c.name for c in report.claims]
        assert names[:4] == ["order", "edges", "regular", "c4-free"]
        assert ("c6-free" in names) == (k >= 3)
        assert ("c10-free" in names) == (k >= 5)


def _swapped_f3_k3():
    """The q=3, k=3 graph with (p1, l1), (p2, l2) swapped for (p1, l2), (p2, l1).

    Every degree and size stays, so only the rows themselves tell this
    graph apart from the moment graph.
    """
    g = build(F3, 3)
    pairs = {(p, l - g.nP) for p, l in edges(g)}
    (p1, l1), (p2, l2) = next(
        ((a, b) for a in sorted(pairs) for b in sorted(pairs)
         if (a[0], b[1]) not in pairs and (b[0], a[1]) not in pairs)
    )
    swapped = pairs - {(p1, l1), (p2, l2)} | {(p1, l2), (p2, l1)}
    return from_edges(g.nP, g.nL, sorted(swapped), meta=g.meta)


def _doctored_f3_k2():
    """The q=3, k=2 graph with one extra edge."""
    g = build(F3, 2)
    pairs = [(p, l - g.nP) for p, l in edges(g)]
    extra = next(
        (p, l)
        for p in range(g.nP)
        for l in range(g.nL)
        if (p, l) not in pairs
    )
    return from_edges(g.nP, g.nL, pairs + [extra], meta=g.meta)


def test_construction_report_detects_injected_edge():
    report = construction_report(_doctored_f3_k2())
    by_name = {c.name: c for c in report.claims}
    assert not report.passed
    assert not by_name["edges"].passed
    assert "27" in by_name["edges"].detail and "28" in by_name["edges"].detail
    assert not by_name["regular"].passed
    assert by_name["regular"].detail


def test_report_render_format():
    rendered = verify_construction(F3, 3).render()
    for line in rendered.strip().splitlines():
        assert re.fullmatch(r"\S+ (PASS|FAIL) -( witness=\d+(,\d+)*)?", line)
        assert " witness=" not in line or " FAIL " in line


def test_report_carries_cycle_witness_on_failure():
    # a K22 mislabeled as a construction fails c4-freeness with a witness
    bogus = from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], meta=(F2, 1))
    report = construction_report(bogus)
    by_name = {c.name: c for c in report.claims}
    assert not by_name["c4-free"].passed
    assert by_name["c4-free"].witness is not None
    assert re.search(r"c4-free FAIL - witness=\d+(,\d+){3}", report.render())


def test_witness_directions_on_6_cycles():
    g = build(F3, 2)
    for w in iter_cycles(g, 6):
        zs = witness_directions(g, w)
        assert len(zs) == 3
        # consecutive lines around any cycle are never parallel
        assert all(zs[i] != zs[(i + 1) % 3] for i in range(3))


def _full_count(g, length):
    """Count and first witness of the all-roots enumeration."""
    count, first = 0, None
    for w in iter_cycles(g, length):
        count += 1
        first = first or w
    return count, first


def _full_max_l4_paths(g):
    """Maximum length-4 path count and its first pair over every P row."""
    best, arg = 0, None
    for p in range(g.nP):
        counts = l4_path_counts_from(g, p)
        for p2 in range(p + 1, g.nP):
            v = counts.get(p2, 0)
            if arg is None or v > best:
                best, arg = v, (p, p2)
    return best, arg


@pytest.mark.parametrize(
    "field,k,lengths", ROOTED_CASES, ids=[f"q{f.q}-k{k}" for f, k, _ in ROOTED_CASES]
)
def test_rooted_counts_match_full_enumeration(field, k, lengths):
    g = build(field, k)
    assert g.is_moment_graph
    for length in lengths:
        assert count_cycles(g, length) == _full_count(g, length), length


def test_rooted_counts_are_not_all_zero():
    assert count_cycles(build(F2, 4), 8)[0] == 4
    assert count_cycles(build(F3, 3), 8)[0] == 81
    assert count_cycles(build(F3, 5), 12)[0] == 4374


def test_rooted_counts_match_naive_oracle():
    for field, k, lengths in (
        (F2, 2, (4, 6, 8, 10)),
        (F2, 3, (4, 6, 8, 10)),
        (F2, 4, (4, 6, 8, 10)),
        (F2, 5, (4, 6, 8, 10)),
        (F3, 2, (4, 6, 8, 10)),
        (F3, 3, (4, 6, 8, 10)),
        (F4, 2, (4, 6, 8)),
        (F5, 2, (4, 6)),
        (F7, 2, (4,)),
    ):
        g = build(field, k)
        assert g.nP + g.nL <= 100 and g.is_moment_graph
        for length in lengths:
            assert count_cycles(g, length)[0] == naive_cycle_count(g, length)


@pytest.mark.parametrize("field", (F2, F3, F4, F5), ids=repr)
def test_rooted_max_l4_paths_matches_full_scan(field):
    g = build(field, 4)
    assert g.is_moment_graph
    assert max_l4_paths(g) == _full_max_l4_paths(g)


def test_translation_check_rejects_doctored_graph():
    g = _doctored_f3_k2()
    assert not g.is_moment_graph
    for length in (4, 6, 8, 10):
        assert count_cycles(g, length)[0] == naive_cycle_count(g, length)


def test_certificate_rejects_a_degree_preserving_swap():
    g, h = build(F3, 3), _swapped_f3_k3()
    assert sorted(map(len, [*h.adjP, *h.adjL])) == sorted(map(len, [*g.adjP, *g.adjL]))
    assert g.is_moment_graph and not h.is_moment_graph
    for length in (4, 6, 8, 10):
        count = count_cycles(h, length)
        assert count == _full_count(h, length)
        assert count[0] == naive_cycle_count(h, length), length


@pytest.mark.parametrize(
    "field,k,length,expected",
    FLAG_CASES,
    ids=[f"q{f.q}-k{k}-c{n}" for f, k, n, _ in FLAG_CASES],
)
def test_flag_count_matches_vertex_rooted_count(field, k, length, expected):
    g = build(field, k)
    assert g.is_moment_graph
    count, w = count_cycles(g, length)
    assert count == vertex_rooted_count(g, length) > 0
    assert expected is None or count == expected
    if g.nP + g.nL <= NAIVE_VERTEX_CAP and length <= NAIVE_LEN_CAP:
        assert count == naive_cycle_count(g, length)
    assert w == next(iter_cycles(g, length))


def test_flag_rule_follows_the_certificate(monkeypatch):
    calls = []
    flag_walks = verify._flag_walks

    def spy(g, length, l0):
        calls.append(g)
        return flag_walks(g, length, l0)

    monkeypatch.setattr(verify, "_flag_walks", spy)
    for g, certified in (
        (build(F3, 3), True),
        (_swapped_f3_k3(), False),
        (_doctored_f3_k2(), False),
        (from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], meta=(F2, 1)), False),
    ):
        for length in (4, 6, 8):
            calls.clear()
            assert count_cycles(g, length) == _full_count(g, length)
            assert bool(calls) == certified, (certified, length)
            assert all(c is g for c in calls)


def test_flag_count_refuses_a_total_that_is_not_whole(monkeypatch):
    # 27 edges times one cycle per edge is not a multiple of 6.
    monkeypatch.setattr(verify, "_flag_walks", lambda g, length, l0: 1)
    with pytest.raises(RuntimeError, match="27 \\* 1 cycles through one edge"):
        count_cycles(build(F3, 2), 6)


CERTIFIED_NONZERO = [(F3, 2, 6), (F3, 2, 12), (F2, 4, 8), (F3, 3, 8), (F4, 3, 8), (F3, 5, 12)]


@pytest.mark.parametrize(
    "field,k,length",
    CERTIFIED_NONZERO,
    ids=[f"q{f.q}-k{k}-c{n}" for f, k, n in CERTIFIED_NONZERO],
)
def test_certified_witness_is_the_first_dfs_cycle_from_p_vertex_0(monkeypatch, field, k, length):
    g = build(field, k)
    roots = record_dfs_roots(monkeypatch)
    monkeypatch.setattr(verify, "_roots_a_cycle", None)
    count, w = count_cycles(g, length)
    assert count > 0 and roots == [range(1)]
    assert w == next(iter_cycles(g, length))


def test_certified_zero_count_runs_no_dfs(monkeypatch):
    roots = record_dfs_roots(monkeypatch)
    monkeypatch.setattr(verify, "_roots_a_cycle", None)
    for field, k, length in ((F3, 3, 6), (F4, 4, 6), (F2, 5, 10)):
        assert count_cycles(build(field, k), length) == (0, None)
    assert roots == []


def test_all_roots_count_takes_its_witness_from_the_one_enumeration(monkeypatch):
    g = build(F3, 2)
    h = BiGraph(g.nP, g.nL, g.adjP, g.adjL)
    full = _full_count(g, 6)
    assert full[0] > 0
    roots = record_dfs_roots(monkeypatch)
    assert count_cycles(h, 6) == count_cycles(g, 6) == full
    # One enumeration from every root for h, one from P vertex 0 for g.
    assert roots == [range(h.nP), range(1)]


def test_certified_count_raises_when_the_dfs_finds_no_cycle(monkeypatch):
    # GF(3), k=3 has no C6; two walks through the flag claim 81 * 2 / 6.
    monkeypatch.setattr(verify, "_flag_walks", lambda g, length, l0: 2)
    with pytest.raises(RuntimeError, match="^27 cycles of length 6 counted but the DFS finds none$"):
        count_cycles(build(F3, 3), 6)


def test_shorter_cycle_gate_carries_weight():
    # Girth 6: some closed non-backtracking 12-walks run twice around a
    # 6-cycle or through two of them, so the walks through the flag
    # overcount c_e, and the nonzero 6-walk count sends C12 to the DFS.
    g = build(F3, 2)
    count, first = _full_count(g, 12)
    c_e = count * 12 // g.edge_count()
    assert verify._flag_walks(g, 6, g.nP) > 0
    assert verify._flag_walks(g, 12, g.nP) != c_e
    assert count_cycles(g, 12) == (count, first)


def test_flag_count_reaches_past_the_all_roots_cap():
    # 2 * 7^5 = 33 614 vertices: C10 through one flag, refused from every root.
    g = build(F7, 5)
    assert g.nP + g.nL > BIG_CYCLE_VERTEX_CAP
    assert count_cycles(g, 10) == (0, None)
    with pytest.raises(SizeLimitError, match="exceeds cap 8192 for length >= 10"):
        next(iter_cycles(g, 10))
    with pytest.raises(SizeLimitError, match="exceeds cap 8192 for length >= 10"):
        count_cycles(BiGraph(g.nP, g.nL, g.adjP, g.adjL), 10)
    # first_cycle searches the certified graph from P vertex 0 alone, so
    # the vertex cap does not refuse it either.
    w = first_cycle(g, 12)
    assert w is not None and w == next(verify._cycles_from(g, 12, range(1)))
    assert w == count_cycles(g, 12)[1]
    assert first_cycle(g, 10) is None
    # The DFS that agrees there is no C10 through P vertex 0 walks every
    # simple 9-step path from it: seconds at GF(7), milliseconds here.
    h = build(F4, 5)
    assert first_cycle(h, 10) is None
    assert next(verify._cycles_from(h, 10, range(1)), None) is None


def test_flag_walk_cap(monkeypatch):
    g = build(F4, 5)
    steps = 4**5
    monkeypatch.setattr(verify, "FLAG_WALK_CAP", steps)
    assert count_cycles(g, 10) == (0, None)
    monkeypatch.setattr(verify, "FLAG_WALK_CAP", steps - 1)
    # Shorter lengths take fewer steps.
    assert count_cycles(g, 8)[0] == vertex_rooted_count(g, 8) == 13_824
    # The cap is checked before any walk runs.
    monkeypatch.setattr(verify, "_flag_walks", None)
    message = f"^{steps} walk steps exceeds cap {steps - 1} for length 10$"
    with pytest.raises(SizeLimitError, match=message):
        count_cycles(g, 10)


def test_first_cycle_on_a_certified_graph_is_refused_past_the_walk_cap(monkeypatch):
    # 7 442 vertices, under the vertex cap, but 61^5 walk steps from P
    # vertex 0: first_cycle and count_cycles admit the same (q, length).
    g = build(make_field(61), 2)
    assert g.nP + g.nL <= BIG_CYCLE_VERTEX_CAP
    monkeypatch.setattr(verify, "_roots_a_cycle", None)
    monkeypatch.setattr(verify, "_flag_walks", None)
    message = f"^844596301 walk steps exceeds cap {verify.FLAG_WALK_CAP} for length 10$"
    for search in (first_cycle, count_cycles):
        with pytest.raises(SizeLimitError, match=message):
            search(g, 10)


def test_dfs_fallback_on_a_certified_graph_is_capped(monkeypatch):
    # Girth 6 sends C12 on a certified k = 2 graph to the simple paths of
    # 10 steps on from the flag, at most (q-1)^10 of them. count_cycles on
    # an unmarked copy of the GF(5) graph, which enumerates from every P
    # vertex, gives the same count and witness in about 20 s.
    assert 4**10 <= verify.FLAG_WALK_CAP
    c12 = (1_088_500, (0, 25, 1, 34, 7, 26, 5, 31, 4, 37, 18, 30))
    assert count_cycles(build(F5, 2), 12) == c12
    # Past the cap the count is refused before any path is made.
    monkeypatch.setattr(verify, "_simple_paths", None)
    message = f"^60466176 DFS paths exceeds cap {verify.FLAG_WALK_CAP} for length 12$"
    with pytest.raises(SizeLimitError, match=message):
        count_cycles(build(F7, 2), 12)
    paths = 3**10
    monkeypatch.setattr(verify, "FLAG_WALK_CAP", paths - 1)
    with pytest.raises(SizeLimitError, match=f"^{paths} DFS paths exceeds cap {paths - 1} "):
        count_cycles(build(F4, 2), 12)


@pytest.mark.parametrize("field", (F3, F4), ids=("q3", "q4"))
def test_c12_through_the_flag_matches_every_root_at_girth_6(field, monkeypatch):
    g = build(field, 2)
    starts = []
    simple_paths = verify._simple_paths

    def spy(nbrs, start, steps):
        starts.append(start)
        return simple_paths(nbrs, start, steps)

    monkeypatch.setattr(verify, "_simple_paths", spy)
    count = count_cycles(g, 12)
    assert {s[0] for s in starts} == {0}
    starts.clear()
    assert count == count_cycles(BiGraph(g.nP, g.nL, g.adjP, g.adjL, g.meta), 12)
    assert {s[0] for s in starts} == set(range(g.nP))


def test_translation_check_counts_repeated_rows():
    # Three copies of line {0, 1} and one of {2, 3} over GF(2)^2. The
    # translation by (0, 1) swaps the two point sets, so the set of rows
    # survives it but the multiset does not. Rooted at P vertex 0 the
    # three C4s on {0, 1} would count as 4 * 3 / 2 = 6.
    edges = [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 3), (3, 3)]
    g = from_edges(4, 4, edges, meta=(F2, 2))
    assert not g.is_moment_graph
    assert count_cycles(g, 4)[0] == naive_cycle_count(g, 4) == 3
    assert count_cycles(g, 6)[0] == naive_cycle_count(g, 6)
    validate_cycle(g, find_c4(g))


def test_translation_check_needs_field_metadata():
    assert not k33().is_moment_graph
    assert not from_edges(4, 4, [], meta=(F4, 1)).is_moment_graph
    assert not from_edges(5, 5, [], meta=(F2, 2)).is_moment_graph
    # Past the line cap the rows cannot be made, so the answer is False.
    assert not BiGraph(1 << 24, 1 << 24, (), (), (make_field(2, 12), 2)).is_moment_graph
    assert build(F4, 3).is_moment_graph


def test_find_c4_matches_naive_oracle_on_random_graphs():
    # No metadata, so every P vertex is a root.
    for seed in range(100):
        g = random_bipartite(seed)
        w = find_c4(g)
        assert (w is None) == (naive_cycle_count(g, 4) == 0), seed
        assert w == next(iter_cycles(g, 4), None), seed
        if w is not None:
            validate_cycle(g, w)


@pytest.mark.parametrize(
    "g,certified",
    [(build(f, k), True) for f, k, _ in ROOTED_CASES]
    + [(from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], meta=(F2, 1)), False)],
    ids=[f"q{f.q}-k{k}" for f, k, _ in ROOTED_CASES] + ["k22-labelled"],
)
def test_rooted_find_c4_matches_full_scan(g, certified):
    assert g.is_moment_graph == certified
    rooted = find_c4(g)
    full = find_c4(BiGraph(g.nP, g.nL, g.adjP, g.adjL))
    # The moment graphs are C4-free; the K22 has a C4 through every vertex.
    assert (rooted is None) == (full is None) == certified
    if rooted is not None:
        validate_cycle(g, rooted)
        validate_cycle(g, full)
        assert 0 in rooted


def test_searches_on_a_built_graph_make_no_line_blocks(monkeypatch):
    # No report or search on a built graph lays out its L side: each
    # computes the L rows it reads, one computation a read, and no other.
    # find_c4 and the report read the q lines through P vertex 0; the
    # path maximum and the report's C10 count, at k = 5, also read every
    # line that meets one of them. The report's C4 check and its C6 count
    # each read the q lines through P vertex 0, so it computes them twice,
    # and the C10 count reads 4 of its lines twice. stats reads degrees
    # alone, and parse of an export computes no L row in the build it
    # compares the text with.
    computed = count_line_rows(monkeypatch)
    cases = [
        (find_c4, make_field(5, 2), 3, 25, 25),
        (construction_report, F7, 4, 7, 14),
        (max_l4_paths, F7, 4, 259, 259),
        (construction_report, F4, 5, 40, 52),
        (construction_report, F3, 4, 3, 6),
        (max_l4_paths, F3, 4, 15, 15),
    ]
    for search, field, k, rows, reads in cases:
        g = build(field, k)
        mirror = transpose(g.adjP, g.nL, g.nP)
        read = {l - g.nP for l in g.adjP[0]}
        if search is max_l4_paths or k >= 5:
            read |= {l - g.nP for l1 in g.adjP[0] for p in mirror[l1 - g.nP] for l in g.adjP[p]}
        computed.clear()
        search(g)
        assert len(computed) == len(read) == rows, (search, field, k)
        assert sum(computed.values()) == reads and set(computed) == read
    computed.clear()
    g = build(F3, 4)
    h = parse(to_text(g))
    assert stats(g) == stats(h) and h.is_moment_graph and not computed
    assert h == g


@pytest.mark.parametrize(
    "field,k", [(F2, 5), (F3, 2), (F3, 3), (F4, 3), (F3, 4), (F5, 2)], ids=repr
)
def test_searches_agree_whether_the_l_side_was_made_before_or_by_them(monkeypatch, field, k):
    # A built graph's L rows are computed by the search itself, on each
    # read. The same built graph, still marked, with its L side laid out
    # before the search as the transpose of its P side, computes none and
    # gives the same answers.
    computed = count_line_rows(monkeypatch)
    searches = [
        find_c4,
        max_l4_paths,
        lambda g: count_cycles(g, 6),
        lambda g: count_cycles(g, 8),
        construction_report,
    ]
    for search in searches:
        before, fresh = build(field, k), build(field, k)
        vars(before)["adjL"] = transpose(before.adjP, before.nL, before.nP)
        assert before.is_moment_graph and not isinstance(before.adjL, LazyRows)
        computed.clear()
        answer = search(before)
        assert not computed
        assert search(fresh) == answer and 0 < len(computed) <= fresh.nL
    assert verify_construction(field, k) == construction_report(before)


SMALL_ROOTED_CASES = [(f, k, lengths) for f, k, lengths in ROOTED_CASES if f.q <= 3]


@pytest.mark.parametrize(
    "field,k,lengths",
    SMALL_ROOTED_CASES,
    ids=[f"q{f.q}-k{k}" for f, k, _ in SMALL_ROOTED_CASES],
)
def test_copies_of_a_built_graph_are_unmarked_and_agree(field, k, lengths):
    # Equal rows and metadata do not carry build's mark, so the copy is
    # searched from every root, and its answers match the rooted ones.
    g = build(field, k)
    h = BiGraph(g.nP, g.nL, g.adjP, g.adjL, g.meta)
    assert h == g and g.is_moment_graph and not h.is_moment_graph
    for length in lengths:
        assert count_cycles(h, length) == count_cycles(g, length), length
    assert find_c4(h) == find_c4(g)
    assert max_l4_paths(h) == max_l4_paths(g)


def test_builds_l_rows_do_not_certify_a_hand_made_graph():
    # build's L rows with one entry of P rows 1 and 2 swapped. Read from
    # row 0 alone, the path maximum would be the moment graph's 2.
    g = build(F3, 3)
    rows = [list(r) for r in g.adjP]
    l1 = next(l for l in rows[1] if l not in rows[2])
    l2 = next(l for l in rows[2] if l not in rows[1])
    rows[1] = sorted({*rows[1], l2} - {l1})
    rows[2] = sorted({*rows[2], l1} - {l2})
    h = BiGraph(g.nP, g.nL, Rows.of(rows), g.adjL, g.meta)
    assert h.adjL == g.adjL and not h.is_moment_graph
    assert max_l4_paths(h) == _full_max_l4_paths(h) == (3, (1, 14))
    assert max_l4_paths(g) == (2, (0, 3))


FIRST_CYCLE_GRAPHS = list({(f.q, k): (f, k) for f, k, _ in ROOTED_CASES}.values())


@pytest.mark.parametrize(
    "field,k", FIRST_CYCLE_GRAPHS, ids=[f"q{f.q}-k{k}" for f, k in FIRST_CYCLE_GRAPHS]
)
def test_first_cycle_matches_the_enumeration_on_moment_graphs(field, k):
    g = build(field, k)
    for length in range(4, 13):
        # GF(4), k=5 has no C10, and the all-roots DFS that shows it takes
        # seconds; test_rooted_counts_match_full_enumeration runs it.
        if (field.q, k, length) != (4, 5, 10):
            assert first_cycle(g, length) == next(iter_cycles(g, length), None), length


def _planted(length: int, root: int) -> BiGraph:
    """A cycle of the length through P vertices root, root+1, ..., with
    P vertices 0..root-1 on a path of lines hung from P vertex root, and
    a line through P vertex 0 alone."""
    half = length // 2
    ring = [sorted((root + i, root + (i + 1) % half)) for i in range(half)]
    tail = [[i, i + 1] for i in range(root)] + [[0]]
    rows = ring + tail
    return from_edges(root + half, len(rows), [(p, l) for l, row in enumerate(rows) for p in row])


@pytest.mark.parametrize("root", (1, 3))
@pytest.mark.parametrize("length", range(4, 13, 2))
def test_first_cycle_finds_a_planted_cycle_off_p_vertex_0(length, root):
    g = _planted(length, root)
    assert len(g.adjP[0]) == 2 and len(g.adjP[root]) == 3
    for probe in range(4, 13):
        assert first_cycle(g, probe) == next(iter_cycles(g, probe), None), probe
    w = first_cycle(g, length)
    assert w is not None and w[0] == root


def test_first_cycle_matches_the_enumeration_on_random_graphs():
    for seed in range(60):
        g = random_bipartite(seed, max_side=10)
        for length in range(4, 13):
            assert first_cycle(g, length) == next(iter_cycles(g, length), None), (seed, length)


def test_half_paths_agree_with_the_dfs_at_every_root():
    outcomes = set()
    for g in [build(F3, 2)] + [random_bipartite(seed) for seed in range(100)]:
        for length in range(4, 13, 2):
            for r in range(g.nP):
                rooted = next(verify._cycles_from(g, length, range(r, r + 1)), None)
                found = verify._roots_a_cycle(g, length, r)
                assert found == (rooted is not None), (g, length, r)
                outcomes.add(found)
    assert outcomes == {False, True}


def test_simple_paths_match_brute_force():
    for g in [build(F3, 2)] + [random_bipartite(seed) for seed in range(30)]:
        for root in range(g.nP + g.nL):
            for steps in range(1, 12):
                paths = list(verify._simple_paths(g.neighbors, (root,), steps))
                assert paths == brute_force_simple_paths(g, (root,), steps), (g, root, steps)


def test_first_cycle_refuses_long_lengths_past_the_vertex_cap():
    # A 4-cycle padded with isolated P vertices past the cap.
    g = from_edges(BIG_CYCLE_VERTEX_CAP, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    for length in range(4, 10):
        assert first_cycle(g, length) == next(iter_cycles(g, length), None), length
    for length in (10, 12):
        with pytest.raises(SizeLimitError) as enumerated:
            next(iter_cycles(g, length))
        with pytest.raises(SizeLimitError) as first:
            first_cycle(g, length)
        assert str(first.value) == str(enumerated.value)
    assert first_cycle(g, 11) is None


def test_first_cycle_runs_the_dfs_from_the_first_root_that_passes(monkeypatch):
    roots = record_dfs_roots(monkeypatch)
    tried = []
    roots_a_cycle = verify._roots_a_cycle

    def spy(g, length, root):
        tried.append(root)
        return roots_a_cycle(g, length, root)

    monkeypatch.setattr(verify, "_roots_a_cycle", spy)
    g = _planted(8, 3)
    assert first_cycle(g, 8)[0] == 3
    assert roots == [range(3, 4)] and tried == [0, 1, 2, 3]
    roots.clear()
    assert first_cycle(g, 6) is None and roots == []
    # On the moment graph a cycle of any length would pass through P
    # vertex 0, so it is the only root tried.
    for search in (lambda: first_cycle(build(F3, 3), 6), lambda: find_c4(build(F5, 3))):
        tried.clear()
        assert search() is None and tried == [0] and roots == []


def test_find_c4_holds_no_reference_to_the_graph():
    # A search that kept its graph in a reference cycle, as a recursive
    # closure does, left it to the cycle collector: one graph a repetition
    # in a generate-parse-find_c4 loop. Each search here, stopped early or
    # run out, must free it by reference counting alone.
    g, c6 = build(F5, 3), build(F3, 2)
    searches = [
        (g, lambda h: find_c4(h) is None),
        (BiGraph(g.nP, g.nL, g.adjP, g.adjL), lambda h: find_c4(h) is None),
        (k22(), lambda h: find_c4(h) is not None),
        (c6, lambda h: next(iter_cycles(h, 6)) is not None),
        (_planted(8, 3), lambda h: first_cycle(h, 8)[0] == 3),
        (BiGraph(c6.nP, c6.nL, c6.adjP, c6.adjL), lambda h: count_cycles(h, 6)[0] > 0),
    ]
    gc.disable()
    try:
        for h, search in searches:
            refs = sys.getrefcount(h)
            assert search(h)
            assert sys.getrefcount(h) == refs
    finally:
        gc.enable()


def test_no_function_calls_itself_through_a_closure():
    # A nested function that names itself holds itself in a cell: a
    # reference cycle that keeps whatever its cells hold, such as a graph,
    # until the cycle collector runs.
    def code_objects(code):
        yield code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from code_objects(const)

    package = pathlib.Path(verify.__file__).parent
    for path in sorted(package.glob("*.py")):
        for code in code_objects(compile(path.read_text(encoding="utf-8"), str(path), "exec")):
            assert code.co_name not in code.co_freevars, (path.name, code.co_name)


def test_first_cycle_raises_when_the_dfs_finds_no_cycle_at_the_root(monkeypatch):
    monkeypatch.setattr(verify, "_roots_a_cycle", lambda g, length, root: True)
    with pytest.raises(RuntimeError, match="the DFS finds none"):
        first_cycle(path_fixture(), 8)
