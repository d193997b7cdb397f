import contextlib
import itertools
import random
import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthforge import gf
from girthforge.errors import SizeLimitError
from girthforge.gf import Field, base_q_digits, base_q_value, is_prime, make_field
from helpers import PolyField, count_field_calls, field_pow

PRIME_POWERS_81 = [
    (p, m)
    for p in range(2, 82)
    if is_prime(p)
    for m in range(1, 8)
    if p**m <= 81
]


def test_make_field_prime_placeholder_modulus():
    f = make_field(5, 1)
    assert f.q == 5
    assert f.modulus == (0, 1)


def test_make_field_gf4():
    f = make_field(2, 2)
    assert f.q == 4
    assert f.modulus == (1, 1, 1)


def test_make_field_gf9_matches_scan_oracle():
    # Independent oracle: a monic quadratic over GF(3) is irreducible iff
    # it has no root; scan (c0, c1) lexicographically.
    expected = None
    for c0, c1 in itertools.product(range(3), repeat=2):
        if all((x * x + c1 * x + c0) % 3 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 0, 1)
    assert make_field(3, 2).modulus == expected


def test_make_field_deterministic():
    assert make_field(3, 2) == make_field(3, 2)
    assert make_field(2, 8).modulus == make_field(2, 8).modulus


def test_modulus_monic_and_root_free():
    for p, m in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 3)):
        mod = make_field(p, m).modulus
        assert len(mod) == m + 1 and mod[-1] == 1
        for x in range(p):
            assert sum(c * x**i for i, c in enumerate(mod)) % p != 0


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(SizeLimitError):
        make_field(2, 21)


@pytest.mark.parametrize(
    "p, m", [(1_000_000_000_000_000_003, 1), (2, 10**12), (2**20 + 7, 1)]
)
def test_make_field_bounds_size_before_trial_division(monkeypatch, p, m):
    def unreachable(n):
        raise AssertionError(f"trial division of {n}")

    monkeypatch.setattr("girthforge.gf.is_prime", unreachable)
    with pytest.raises(SizeLimitError):
        make_field(p, m)


def test_add_examples():
    f5 = make_field(5)
    assert f5.add(3, 4) == 2
    f4 = make_field(2, 2)
    assert f4.add(2, 3) == 1
    for pm in ((3, 1), (2, 3), (3, 2)):
        f = make_field(*pm)
        assert all(f.add(a, 0) == a for a in range(f.q))


def test_mul_examples():
    f5 = make_field(5)
    assert f5.mul(3, 4) == 2
    f4 = make_field(2, 2)
    assert f4.mul(2, 3) == 1
    f7 = make_field(7)
    assert field_pow(f7, 3, 6) == 1
    assert field_pow(f7, 0, 0) == 1
    assert field_pow(f4, 3, 0) == 1


def test_inv_examples():
    f7 = make_field(7)
    assert f7.inv(2) == 4
    f4 = make_field(2, 2)
    assert f4.inv(2) == 3
    f9 = make_field(3, 2)
    for a in range(1, 9):
        assert f9.mul(a, f9.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f9.inv(0)


def _tables(f: Field) -> tuple[np.ndarray, np.ndarray]:
    q = f.q
    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            add[a, b] = f.add(a, b)
            mul[a, b] = f.mul(a, b)
    return add, mul


@pytest.mark.parametrize("p,m", PRIME_POWERS_81)
def test_field_axioms_exhaustive(p, m):
    f = make_field(p, m)
    q = f.q
    add, mul = _tables(f)
    idx = np.arange(q)
    # commutativity
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    # identities
    assert np.array_equal(add[0], idx)
    assert np.array_equal(mul[1], idx)
    assert np.array_equal(mul[0], np.zeros(q, dtype=np.int64))
    # associativity over all triples
    assert np.array_equal(add[add], add[:, add])
    assert np.array_equal(mul[mul], mul[:, mul])
    # distributivity over all triples
    assert np.array_equal(mul[:, add], add[mul[:, :, None], mul[:, None, :]])
    # additive inverses exist, multiplicative for nonzero
    assert all((add[a] == 0).any() for a in range(q))
    assert all((mul[a] == 1).any() for a in range(1, q))


@pytest.mark.parametrize("p,m", PRIME_POWERS_81)
def test_fermat_exhaustive(p, m):
    f = make_field(p, m)
    for a in range(1, f.q):
        assert field_pow(f, a, f.q - 1) == 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_axioms_sampled_large_fields(data):
    f = data.draw(
        st.sampled_from(
            [make_field(101), make_field(2, 8), make_field(3, 4), make_field(5, 3)]
        )
    )
    a = data.draw(st.integers(0, f.q - 1))
    b = data.draw(st.integers(0, f.q - 1))
    c = data.draw(st.integers(0, f.q - 1))
    assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
    assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(f.add(a, b), b) == a
    if a:
        assert f.mul(a, f.inv(a)) == 1
        assert field_pow(f, a, f.q - 1) == 1


def _assert_matches_oracle(f: Field, pairs, singles) -> None:
    o = PolyField(f.p, f.m, f.modulus)
    for a, b in pairs:
        assert f.add(a, b) == o.add(a, b), (f, a, b)
        assert f.sub(a, b) == o.sub(a, b), (f, a, b)
        assert f.mul(a, b) == o.mul(a, b), (f, a, b)
    for a in singles:
        assert f.neg(a) == o.neg(a), (f, a)
        if a:
            assert f.inv(a) == o.inv(a), (f, a)


@pytest.mark.parametrize("p,m", [pm for pm in PRIME_POWERS_81 if pm[1] > 1])
def test_tables_match_polynomial_oracle_exhaustive(p, m):
    f = make_field(p, m)
    _assert_matches_oracle(f, itertools.product(range(f.q), repeat=2), range(f.q))


@pytest.mark.parametrize("p,m", [(2, 8), (3, 4), (5, 3), (2, 11)])
def test_tables_match_polynomial_oracle_sampled(p, m):
    f = make_field(p, m)
    rng = random.Random(p * 100 + m)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
    _assert_matches_oracle(f, pairs, [a for a, _ in pairs])


def _assert_rows_match(f: Field, pairs, oracle=None) -> None:
    for a, b in pairs:
        assert f.add_rows[a][b] == f.add(a, b), (f, a, b)
        assert f.mul_rows[a][b] == f.mul(a, b), (f, a, b)
        if oracle is not None:
            assert f.add_rows[a][b] == oracle.add(a, b), (f, a, b)
            assert f.mul_rows[a][b] == oracle.mul(a, b), (f, a, b)


@pytest.mark.parametrize("p,m", PRIME_POWERS_81)
def test_rows_match_the_arithmetic_exhaustive(p, m):
    f = make_field(p, m)
    assert len(f.add_rows) == len(f.mul_rows) == f.q
    assert all(len(row) == f.q for row in f.add_rows + f.mul_rows)
    oracle = PolyField(p, m, f.modulus) if m > 1 else None
    _assert_rows_match(f, itertools.product(range(f.q), repeat=2), oracle)


@pytest.mark.parametrize("p,m", [(2, 8), (317, 1)])
def test_rows_match_the_arithmetic_sampled(p, m):
    f = make_field(p, m)
    rng = random.Random(p * 100 + m)
    pairs = [(rng.randrange(f.q), rng.randrange(f.q)) for _ in range(2000)]
    _assert_rows_match(f, pairs, PolyField(p, m, f.modulus) if m > 1 else None)


@pytest.mark.usefixtures("fresh_fields")
def test_rows_are_built_on_first_use(monkeypatch):
    calls = count_field_calls(monkeypatch)
    f = make_field(3, 2)
    assert not calls
    rows = f.add_rows
    assert calls == {"add": 81}
    assert f.add_rows is rows and f.mul_rows is f.mul_rows
    assert calls == {"add": 81, "mul": 81}


@pytest.mark.usefixtures("fresh_fields")
def test_tables_are_built_lazily_once(monkeypatch):
    builds = []
    real = gf._build_tables

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(gf, "_build_tables", counting)
    make_field(2, 16)
    assert builds == []
    f9 = make_field(3, 2)
    f9.mul(2, 3)
    f9.mul(4, 5)
    assert len(builds) == 1
    f7 = make_field(7)
    for a in range(1, 7):
        f7.add(a, 3)
        f7.sub(a, 3)
        f7.mul(a, 3)
        f7.neg(a)
        f7.inv(a)
    assert len(builds) == 1


@given(st.integers(2, 1 << 20), st.integers(0, 8), st.data())
def test_base_q_codec_round_trips(q, n, data):
    v = data.draw(st.integers(0, q**n - 1))
    digits = base_q_digits(v, q, n)
    assert len(digits) == n and all(0 <= d < q for d in digits)
    assert base_q_value(digits, q) == base_q_value(list(digits), q) == v


class _Hung(BaseException):
    pass


def test_negative_operand_returns_or_raises():
    # Operands outside [0, q) give unspecified results, but never a hang.
    def hung(signum, frame):
        raise _Hung

    f4 = make_field(2, 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        for call in (lambda: f4.add(-1, 0), lambda: f4.sub(0, -1), lambda: f4.add(-1, 1)):
            with contextlib.suppress(Exception):
                call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
