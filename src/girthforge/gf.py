"""Exact arithmetic in GF(p^m) with a dense integer element encoding.

A field element is a plain int in [0, p^m). The base-p digits of the
index are the coefficients of a polynomial in t over GF(p), constant
term first, so index 0 is the additive identity and index 1 the
multiplicative identity. Prime fields (m = 1) reduce to ordinary
arithmetic mod p.

The reducing modulus is chosen deterministically: monic degree-m
polynomials are scanned in lexicographic order of their coefficient
tuple (c_0, ..., c_{m-1}) and the first irreducible one wins, so equal
(p, m) always produce the same field, with no external tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from girthforge.errors import SizeLimitError

# Fields larger than this are outside the intended working range.
SIZE_CAP = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# -- polynomial helpers over GF(p) ------------------------------------------
# Polynomials are lists of ints in [0, p), constant term first, no
# trailing zeros (the zero polynomial is the empty list).


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _psub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _ptrim(out)


def _pdivmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [x % p for x in a]
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            f = rem[i] * inv_lead % p
            quo[i - db] = f
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - f * b[j]) % p
    return _ptrim(quo), _ptrim(rem)


def _is_irreducible(poly: list[int], p: int) -> bool:
    # Trial division by every monic polynomial of degree <= m/2.
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _pdivmod(poly, g, p)[1]:
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    for coeffs in itertools.product(range(p), repeat=m):
        cand = list(coeffs) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError(f"no irreducible monic polynomial of degree {m} over GF({p})")


@dataclass(frozen=True)
class Field:
    """GF(p^m) together with its element arithmetic.

    Construct via :func:`make_field`; elements are ints in [0, q).
    All operations are pure, so a Field can be shared freely.
    """

    p: int
    m: int
    q: int
    modulus: tuple[int, ...]

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def elements(self) -> range:
        return range(self.q)

    def _digits(self, a: int) -> list[int]:
        out = []
        for _ in range(self.m):
            out.append(a % self.p)
            a //= self.p
        return out

    def _index(self, coeffs: list[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def add(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a + b) % p
        out, mult = 0, 1
        while a or b:
            out += ((a + b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        p = self.p
        if self.m == 1:
            return (a - b) % p
        out, mult = 0, 1
        while a or b:
            out += ((a - b) % p) * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        p, m = self.p, self.m
        ca, cb = self._digits(a), self._digits(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # Modulus is monic, so each high coefficient is eliminated directly.
        mod = self.modulus
        for i in range(2 * m - 2, m - 1, -1):
            f = prod[i]
            if f:
                for j in range(m + 1):
                    prod[i - m + j] = (prod[i - m + j] - f * mod[j]) % p
        return self._index(prod[:m])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        p = self.p
        if self.m == 1:
            return pow(a, p - 2, p)
        # Extended Euclid on (a, modulus); the gcd is a nonzero constant
        # because the modulus is irreducible.
        r0, r1 = list(self.modulus), _ptrim(self._digits(a))
        t0: list[int] = []
        t1: list[int] = [1]
        while r1:
            quo, rem = _pdivmod(r0, r1, p)
            r0, r1 = r1, rem
            t0, t1 = t1, _psub(t0, _pmul(quo, t1, p), p)
        c_inv = pow(r0[0], -1, p)
        coeffs = [x * c_inv % p for x in t0]
        coeffs += [0] * (self.m - len(coeffs))
        return self._index(coeffs)


def make_field(p: int, m: int = 1) -> Field:
    """Build GF(p^m) with the deterministic smallest irreducible modulus."""
    # Bound the size before trial division and before p**m: a header or
    # flag with a huge p or m would otherwise hang either one.
    if p > SIZE_CAP or m > SIZE_CAP.bit_length():
        raise SizeLimitError(f"field order {p}^{m} exceeds cap {SIZE_CAP}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    q = p**m
    if q > SIZE_CAP:
        raise SizeLimitError(f"field order {q} exceeds cap {SIZE_CAP}")
    return Field(p=p, m=m, q=q, modulus=_smallest_irreducible(p, m))
