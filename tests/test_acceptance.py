"""Acceptance suite: one test per top-level criterion, each printing a
pass/fail line (run with -s to see them) and holding to its time budget."""

import itertools
import random
import subprocess
import sys
import time
from collections import Counter

import pytest

from girthforge.gf import is_prime, make_field
from girthforge.graph import build
from girthforge.lines4 import C4FreeFamily, all_genlines, greedy_c4free, has_line_c4
from girthforge.oracle import naive_cycle_count
from girthforge.verify import count_cycles, find_c4, iter_cycles, max_l4_paths
from helpers import (
    CLI_ENV,
    blocked,
    brute_force_line_c4,
    girth,
    random_bipartite,
    random_genline,
    vandermonde_det_formula,
    vandermonde_rank,
    witness_directions,
)
from test_lines4 import GREEDY_F2_SEED0_SIZE

# q ranges are prime powers only; 6 is not a field order.
CASES = [
    (k, q)
    for k, qs in ((2, range(2, 8)), (3, range(2, 6)), (4, range(2, 4)), (5, range(2, 4)))
    for q in qs
    if any(is_prime(p) and p**m == q for p in range(2, q + 1) for m in range(1, 21))
]


def _field_for(q):
    for p in range(2, q + 1):
        if is_prime(p):
            m = 0
            n = 1
            while n < q:
                n *= p
                m += 1
            if n == q:
                return make_field(p, m)
    raise AssertionError(f"{q} is not a prime power")


@pytest.fixture(scope="module")
def built():
    graphs = {}
    timings = {}
    for k, q in CASES:
        t0 = time.perf_counter()
        graphs[(k, q)] = build(_field_for(q), k)
        timings[(k, q)] = time.perf_counter() - t0
    return graphs, timings


def _report(name):
    print(f"[acceptance] {name}: PASS")


def test_edge_and_order_formula(built):
    graphs, timings = built
    assert sorted(graphs) == sorted(CASES)
    for (k, q), g in graphs.items():
        assert g.nP == q**k and g.nL == q**k
        assert g.edge_count() == q ** (k + 1)
        assert timings[(k, q)] < 5.0
    _report("edge-order-formula")


def test_c4_freeness(built):
    graphs, _ = built
    for (k, q), g in graphs.items():
        t0 = time.perf_counter()
        assert find_c4(g) is None, f"C4 in construction k={k} q={q}"
        assert time.perf_counter() - t0 < 10.0
    _report("c4-freeness")


def test_c6_freeness(built):
    graphs, _ = built
    for (k, q) in CASES:
        if k < 3:
            continue
        t0 = time.perf_counter()
        cnt, witness = count_cycles(graphs[(k, q)], 6)
        assert cnt == 0 and witness is None, f"C6 in construction k={k} q={q}"
        assert time.perf_counter() - t0 < 60.0
    _report("c6-freeness")


def test_c10_freeness(built):
    graphs, _ = built
    for q in (2, 3):
        t0 = time.perf_counter()
        cnt, witness = count_cycles(graphs[(5, q)], 10)
        assert cnt == 0 and witness is None, f"C10 in construction k=5 q={q}"
        assert time.perf_counter() - t0 < 600.0
    _report("c10-freeness")


def test_l4_path_bound(built):
    graphs, _ = built
    for q in (2, 3):
        t0 = time.perf_counter()
        best, pair = max_l4_paths(graphs[(4, q)])
        assert best <= 2, f"{best} length-4 paths between {pair} at q={q}"
        assert time.perf_counter() - t0 < 60.0
    _report("l4-path-bound")


def test_vandermonde_full_rank():
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = _field_for(q)
        for k in (2, 3, 4, 5):
            for size in range(1, min(k, q) + 1):
                for zs in itertools.combinations(range(q), size):
                    assert vandermonde_rank(field, zs, k) == size
                    det = vandermonde_det_formula(field, zs)
                    assert det != 0
    _report("vandermonde-full-rank")


def test_oracle_equivalence(built):
    graphs, _ = built
    corpus = [graphs[(2, 2)], graphs[(2, 3)], graphs[(3, 2)]]
    fixtures = [random_bipartite(100 + i, max_side=22) for i in range(20)]
    assert all(g.nP + g.nL <= 60 for g in fixtures)
    for g in corpus + fixtures:
        for length in (4, 6, 8, 10):
            assert naive_cycle_count(g, length) == count_cycles(g, length)[0]
    _report("oracle-equivalence")


def test_cycle_parallel_structure(built):
    graphs, _ = built
    runs = [(2, 3, 6), (2, 3, 8), (2, 4, 6), (2, 4, 8), (3, 3, 8)]
    total = forced = 0
    for k, q, length in runs:
        g = graphs[(k, q)]
        for w in iter_cycles(g, length):
            zs = witness_directions(g, w)
            t = len(zs)
            # consecutive lines around a cycle are never parallel
            assert all(zs[i] != zs[(i + 1) % t] for i in range(t)), (k, q, w)
            # with at most k distinct directions the linear dependence
            # forces every direction to appear at least twice
            if len(set(zs)) <= k:
                forced += 1
                assert all(c >= 2 for c in Counter(zs).values()), (k, q, w)
            total += 1
    assert total > 1000 and forced > 300  # the checks are not vacuous
    _report("cycle-parallel-structure")


def test_line_c4_detector_and_greedy():
    field = make_field(2)
    t0 = time.perf_counter()
    rng = random.Random(424242)
    for _ in range(100):
        fam = sorted({random_genline(field, rng) for _ in range(rng.randint(4, 20))})
        assert (has_line_c4(field, fam) is not None) == brute_force_line_c4(field, fam)
    assert time.perf_counter() - t0 < 30.0

    fam = greedy_c4free(field, 0)
    assert len(fam) == GREEDY_F2_SEED0_SIZE
    assert len(fam) >= field.q**3
    assert has_line_c4(field, fam) is None
    rebuilt = C4FreeFamily(field)
    for line in fam:
        assert rebuilt.try_add(line)
    for line in all_genlines(field):
        if line not in set(fam):
            assert blocked(rebuilt, line)
    _report("line-c4-detector-and-greedy")


def test_report_determinism():
    args = [sys.executable, "-m", "girthforge", "verify",
            "--p", "3", "--m", "1", "--k", "5"]
    a = subprocess.run(args, capture_output=True, timeout=600, env=CLI_ENV)
    b = subprocess.run(args, capture_output=True, timeout=600, env=CLI_ENV)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert b"c10-free PASS" in a.stdout
    _report("report-determinism")


def test_observed_values_reported(built):
    # Observed quantities with no asserted expectation: the 8-cycle
    # census of the k=4 graphs and the girths of the small builds.
    graphs, _ = built
    for q in (2, 3):
        cnt, _ = count_cycles(graphs[(4, q)], 8)
        print(f"[observed] c8-count k=4 q={q}: {cnt}")
    for (k, q) in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)):
        print(f"[observed] girth k={k} q={q}: {girth(graphs[(k, q)])}")
    _report("observed-values-reported")
