import itertools

import pytest
from hypothesis import given, settings, strategies as st

from girthforge.errors import SizeLimitError
from girthforge.gf import make_field
from girthforge.moment import (
    MomentLine,
    enumerate_lines,
    line_through,
    moment_vector,
    points_on,
)
from helpers import parallel, vandermonde_rank

F2 = make_field(2)
F3 = make_field(3)
F4 = make_field(2, 2)
F5 = make_field(5)
F7 = make_field(7)


def _shift(field, x, z, y):
    mv = moment_vector(field, z, len(x))
    return tuple(field.add(xi, field.mul(y, mi)) for xi, mi in zip(x, mv))


def test_moment_vector_examples():
    assert moment_vector(F5, 2, 3) == (1, 2, 4)
    assert moment_vector(F4, 0, 4) == (1, 0, 0, 0)
    assert moment_vector(F3, 2, 4) == (1, 2, 1, 2)


def test_moment_vector_k_bounds():
    with pytest.raises(ValueError):
        moment_vector(F3, 1, 1)
    with pytest.raises(ValueError):
        moment_vector(F3, 1, 9)


def test_line_through_examples():
    assert line_through(F3, (1, 2), 1) == MomentLine(1, (0, 1))
    assert line_through(F5, (0, 3, 4), 2) == MomentLine(2, (0, 3, 4))
    assert line_through(F5, (2, 0, 0), 2) == MomentLine(2, (0, 1, 2))


@pytest.mark.parametrize(
    "x,z", [((7, 0, 0), 1), ((0, 0, 0), 4), ((0, -1, 0), 1), ((0, 0, 0), -1)]
)
def test_line_through_rejects_input_outside_the_field(x, z):
    with pytest.raises(ValueError):
        line_through(F4, x, z)


def test_line_through_same_point_set():
    # Both representatives must generate the same 5-point set.
    raw = {_shift(F5, (2, 0, 0), 2, y) for y in range(5)}
    canon = set(points_on(F5, line_through(F5, (2, 0, 0), 2)))
    assert raw == canon


def test_points_on_examples():
    assert points_on(F2, MomentLine(0, (0, 0))) == [(0, 0), (1, 0)]
    assert points_on(F3, MomentLine(1, (0, 1))) == [(0, 1), (1, 2), (2, 0)]
    for field, k in ((F3, 3), (F4, 2), (F5, 2)):
        for line in enumerate_lines(field, k):
            pts = points_on(field, line)
            assert len(pts) == len(set(pts)) == field.q


def test_parallel():
    a = MomentLine(1, (0, 0))
    b = MomentLine(1, (0, 1))
    c = MomentLine(0, (0, 1))
    assert parallel(a, b)
    assert not parallel(a, c)
    assert parallel(a, a)


@pytest.mark.parametrize(
    "p,m,k",
    [(2, 1, 2), (2, 1, 5), (3, 1, 2), (3, 1, 3), (2, 2, 2), (2, 2, 3), (5, 1, 2), (7, 1, 2)],
)
def test_canonicalization_soundness_exhaustive(p, m, k):
    field = make_field(p, m)
    q = field.q
    for x in itertools.product(range(q), repeat=k):
        for z in range(q):
            canon = line_through(field, x, z)
            assert canon.base[0] == 0
            assert x in points_on(field, canon)
            for y in range(q):
                assert line_through(field, _shift(field, x, z, y), z) == canon


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_canonicalization_sampled_bigger(data):
    field, k = data.draw(st.sampled_from([(make_field(3, 2), 4), (make_field(2, 3), 3)]))
    q = field.q
    x = tuple(data.draw(st.integers(0, q - 1)) for _ in range(k))
    z = data.draw(st.integers(0, q - 1))
    y = data.draw(st.integers(0, q - 1))
    canon = line_through(field, x, z)
    assert line_through(field, _shift(field, x, z, y), z) == canon
    assert x in points_on(field, canon)


@pytest.mark.parametrize("p,m,k", [(3, 1, 2), (2, 1, 3), (3, 1, 3), (2, 2, 2), (5, 1, 2)])
def test_parallel_partition(p, m, k):
    field = make_field(p, m)
    q = field.q
    lines = enumerate_lines(field, k)
    assert len(set(lines)) == q**k
    by_z: dict[int, list] = {}
    for line in lines:
        by_z.setdefault(line.z, []).append(line)
    assert len(by_z) == q
    assert all(len(cls) == q ** (k - 1) for cls in by_z.values())
    pts = {line: set(points_on(field, line)) for line in lines}
    for z, cls in by_z.items():
        for a, b in itertools.combinations(cls, 2):
            assert not pts[a] & pts[b]
    for za, zb in itertools.combinations(sorted(by_z), 2):
        for a in by_z[za]:
            for b in by_z[zb]:
                assert len(pts[a] & pts[b]) <= 1


def test_vandermonde_rank_examples():
    assert vandermonde_rank(F5, (0, 1, 2), 3) == 3
    for z in range(7):
        assert vandermonde_rank(F7, (z,), 4) == 1
    assert vandermonde_rank(F7, (1, 2, 3, 4, 5), 5) == 5


def test_vandermonde_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        vandermonde_rank(F5, (1, 1), 3)
    with pytest.raises(ValueError):
        vandermonde_rank(F5, (0, 1, 2, 3), 3)


def test_vandermonde_full_rank_small_fields():
    for field in (F4, F5):
        for k in (2, 3, 4):
            for size in range(1, k + 1):
                for zs in itertools.combinations(range(field.q), size):
                    assert vandermonde_rank(field, zs, k) == size


def test_enumerate_lines_counts_and_order():
    assert len(enumerate_lines(F3, 2)) == 9
    assert enumerate_lines(F2, 2) == [
        MomentLine(0, (0, 0)),
        MomentLine(0, (0, 1)),
        MomentLine(1, (0, 0)),
        MomentLine(1, (0, 1)),
    ]
    assert len(enumerate_lines(F2, 5)) == 32


def test_enumerate_lines_size_cap():
    f32 = make_field(2, 5)
    with pytest.raises(SizeLimitError):
        enumerate_lines(f32, 5)
