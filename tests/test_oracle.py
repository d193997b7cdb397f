import itertools

import pytest

from girthforge.errors import SizeLimitError
from girthforge.gf import make_field
from girthforge.graph import build
from girthforge.oracle import naive_cycle_count, naive_l4_paths
from girthforge.verify import count_cycles, l4_path_counts_from, max_l4_paths
from helpers import (
    cycle_fixture,
    from_edges,
    k22,
    k33,
    path_fixture,
    random_bipartite,
    star_fixture,
    vandermonde_det_formula,
    vandermonde_rank,
)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)
F7 = make_field(7)


def test_naive_cycle_count_examples():
    assert naive_cycle_count(cycle_fixture(6), 6) == 1
    g = build(F3, 2)
    assert naive_cycle_count(g, 4) == 0
    c6 = naive_cycle_count(g, 6)
    assert c6 == count_cycles(g, 6)[0]
    assert c6 > 0


def test_naive_cycle_count_caps():
    with pytest.raises(SizeLimitError):
        naive_cycle_count(from_edges(60, 60, []), 4)
    with pytest.raises(SizeLimitError):
        naive_cycle_count(k22(), 12)


def test_oracle_equivalence_on_corpus():
    corpus = [
        build(F2, 2),
        build(F3, 2),
        build(F2, 3),
        k22(),
        k33(),
        cycle_fixture(8),
        star_fixture(),
        path_fixture(),
        random_bipartite(7, max_side=10),
        random_bipartite(8, max_side=10),
    ]
    for g in corpus:
        assert g.nP + g.nL <= 100
        for length in (4, 6, 8, 10):
            assert naive_cycle_count(g, length) == count_cycles(g, length)[0]


def test_naive_l4_paths_examples():
    g = path_fixture()
    assert naive_l4_paths(g, 0, 0) == 0
    assert naive_l4_paths(g, 0, 2) == 1
    assert naive_l4_paths(g, 2, 0) == 1


def test_naive_l4_agrees_on_every_pair():
    g = build(F2, 4)
    best, _ = max_l4_paths(g)
    observed = 0
    for p, p2 in itertools.combinations(range(g.nP), 2):
        naive = naive_l4_paths(g, p, p2)
        assert l4_path_counts_from(g, p).get(p2, 0) == naive
        observed = max(observed, naive)
    assert observed == best


def test_vandermonde_det_examples():
    assert vandermonde_det_formula(F5, (0, 1, 2)) == 2
    det = vandermonde_det_formula(F7, (1, 2, 3, 4, 5))
    assert det == 1
    assert vandermonde_rank(F7, (1, 2, 3, 4, 5), 5) == 5


def test_vandermonde_det_size_check():
    with pytest.raises(ValueError):
        vandermonde_det_formula(F5, (0, 1), k=3)
    assert vandermonde_det_formula(F5, (0, 1), k=2) == 1


def test_det_nonzero_iff_full_rank():
    for field in (F3, F5):
        for k in (2, 3):
            for zs in itertools.combinations(range(field.q), k):
                det = vandermonde_det_formula(field, zs, k=k)
                assert det != 0
                assert vandermonde_rank(field, zs, k) == k
