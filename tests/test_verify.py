import math
import re

import pytest

from girthforge.errors import SizeLimitError
from girthforge.gf import make_field
from girthforge.graph import build, from_edges
from girthforge.moment import line_through, points_on
from girthforge.oracle import naive_cycle_count
from girthforge.verify import (
    construction_report,
    count_cycles,
    find_c4,
    girth,
    iter_cycles,
    l4_path_counts_from,
    max_l4_paths,
    validate_cycle,
    verify_construction,
    witness_directions,
)
from helpers import cycle_fixture, k22, k33, path_fixture, star_fixture

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)


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
    from helpers import random_bipartite

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
    best, pair, wit = max_l4_paths(path_fixture())
    assert (best, pair, wit) == (1, (0, 2), [])


def test_max_l4_paths_constructions():
    for field in (F2, F3):
        best, pair, wit = max_l4_paths(build(field, 4))
        assert best <= 2
        assert wit == []


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


def test_construction_report_detects_injected_edge():
    g = build(F3, 2)
    pairs = [(p, l - g.nP) for p, l in g.edges()]
    extra = next(
        (p, l)
        for p in range(g.nP)
        for l in range(g.nL)
        if (p, l) not in pairs
    )
    doctored = from_edges(g.nP, g.nL, pairs + [extra], meta=g.meta)
    report = construction_report(doctored)
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
    timed = verify_construction(F3, 2).render(timings=True)
    assert re.search(r"c4-free PASS \d+", timed)


def test_report_carries_cycle_witness_on_failure():
    # a K22 mislabeled as a construction fails c4-freeness with a witness
    bogus = from_edges(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)], meta=(2, 1, 1))
    report = construction_report(bogus)
    by_name = {c.name: c for c in report.claims}
    assert not by_name["c4-free"].passed
    assert by_name["c4-free"].witness is not None
    assert re.search(r"c4-free FAIL - witness=\d+(,\d+){3}", report.render())


def test_witness_directions_on_6_cycles():
    g = build(F3, 2)
    for w in iter_cycles(g, 6):
        zs = witness_directions(F3, g, w)
        assert len(zs) == 3
        # consecutive lines around any cycle are never parallel
        assert all(zs[i] != zs[(i + 1) % 3] for i in range(3))
