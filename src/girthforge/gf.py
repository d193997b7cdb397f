"""Exact arithmetic in GF(p^m) with a dense integer element encoding.

A field element is a plain int in [0, p^m). The base-p digits of the
index are the coefficients of a polynomial in t over GF(p), constant
term first, so index 0 is the additive identity and index 1 the
multiplicative identity. Prime fields (m = 1) reduce to ordinary
arithmetic mod p.

base_q_digits and base_q_value are the package's one base-q codec: the
tables read an element's coefficients with it, graph and lines4 ids.

The reducing modulus is chosen deterministically: monic degree-m
polynomials are scanned in lexicographic order of their coefficient
tuple (c_0, ..., c_{m-1}) and the first irreducible one wins, so equal
(p, m) always produce the same field, with no external tables.

Extension fields (m > 1) compute with three tables built from the
polynomial arithmetic on the first arithmetic call and kept for the
field's lifetime; make_field builds none. With g the smallest index
whose powers run through all q - 1 nonzero elements, exp[i] = g^i,
log inverts it and zech[d] = log(1 + g^d) (Zech's logarithm, -1 where
1 + g^d = 0). Then a*b = g^(log a + log b), a^-1 = g^(q - 1 - log a)
and a + b = a * (1 + b/a) = g^(log a + zech[log b - log a]), each a few
list lookups. In every field -1 is the element p - 1, so
-a = (p - 1) * a and a - b = a + (p - 1) * b.

The graph kernels and the point-id kernel of lines4 read whole rows
instead of calling the arithmetic once per entry: add_rows[a][b] =
a + b and mul_rows[a][b] = a * b, q lists of q ints each, computed from
add and mul on first use and kept for the field's lifetime; make_field
builds neither. The commands reach them only for fields under the
moment module's edge cap (q <= 322) or the line-family caps (q <= 45),
so a table holds at most about 10^5 entries there. make_field keeps the
four fields it returned most recently, so commands run one after
another in a process share each field's tables and rows.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from girthforge.errors import SizeLimitError, refuse_change

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


def base_q_digits(v: int, q: int, n: int) -> tuple[int, ...]:
    """The n base-q digits of v, least significant first."""
    digits = []
    for _ in range(n):
        v, d = divmod(v, q)
        digits.append(d)
    return tuple(digits)


def base_q_value(digits: tuple[int, ...] | list[int], q: int) -> int:
    """The int whose base-q digits, least significant first, are digits."""
    v = 0
    for d in reversed(digits):
        v = v * q + d
    return v


# -- polynomial helpers over GF(p) ------------------------------------------
# Polynomials are lists of ints in [0, p), constant term first, no
# trailing zeros (the zero polynomial is the empty list).


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


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


_Tables = tuple[list[int], list[int], list[int]]


def _build_tables(p: int, m: int, modulus: tuple[int, ...]) -> _Tables:
    """(exp, log, zech) of GF(p^m), m > 1, from polynomial arithmetic.

    exp has length 2(q - 1) so that a sum of two logs indexes it
    directly; log[0] is -1.
    """
    q = p**m

    def pmul(ca: list[int], cb: list[int]) -> list[int]:
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # The modulus is monic, so each high coefficient is eliminated directly.
        for i in range(2 * m - 2, m - 1, -1):
            f = prod[i]
            if f:
                for j in range(m + 1):
                    prod[i - m + j] = (prod[i - m + j] - f * modulus[j]) % p
        return prod[:m]

    # The first g whose powers return to 1 only after q - 1 steps generates
    # the nonzero elements; a shorter period ends its walk early.
    for g in range(2, q):
        cg = base_q_digits(g, p, m)
        exp, x = [1], cg
        while (e := base_q_value(x, p)) != 1:
            exp.append(e)
            x = pmul(cg, x)
        if len(exp) == q - 1:
            break
    else:
        raise AssertionError(f"no primitive element in GF({q})")
    log = [-1] * q
    for i, e in enumerate(exp):
        log[e] = i
    # 1 + e adds 1 to the lowest base-p digit of e; log[0] = -1 marks 1 + e = 0.
    zech = [log[e - e % p + (e + 1) % p] for e in exp]
    exp += exp
    return exp, log, zech


class Field:
    """GF(p^m) together with its element arithmetic.

    Construct via :func:`make_field`; elements are ints in [0, q).
    Operands outside [0, q) are not checked and give unspecified
    results; callers that take outside input check its range.
    All operations are pure, so a Field can be shared freely. A Field
    is a value: fields with equal (p, m, q, modulus) compare and hash
    equal, and no attribute can be reassigned.
    """

    def __init__(self, p: int, m: int, q: int, modulus: tuple[int, ...]) -> None:
        vars(self).update(p=p, m=m, q=q, modulus=modulus)

    __setattr__ = __delattr__ = refuse_change

    def _key(self) -> tuple[int, int, int, tuple[int, ...]]:
        return self.p, self.m, self.q, self.modulus

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"GF({self.q})"

    @cached_property
    def _tables(self) -> _Tables:
        """exp, log and zech of an extension field, built on first use."""
        return _build_tables(self.p, self.m, self.modulus)

    @cached_property
    def add_rows(self) -> list[list[int]]:
        """add_rows[a][b] = a + b, built on first use."""
        add, q = self.add, self.q
        return [[add(a, b) for b in range(q)] for a in range(q)]

    @cached_property
    def mul_rows(self) -> list[list[int]]:
        """mul_rows[a][b] = a * b, built on first use."""
        mul, q = self.mul, self.q
        return [[mul(a, b) for b in range(q)] for a in range(q)]

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if not a:
            return b
        if not b:
            return a
        exp, log, zech = self._tables
        la = log[a]
        # Python's negative indexing reduces log b - log a mod q - 1.
        z = zech[log[b] - la]
        return exp[la + z] if z >= 0 else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        return self.mul(self.p - 1, a)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        exp, log, _ = self._tables
        return exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self._tables
        return exp[self.q - 1 - log[a]]


def field_order(p: int, m: int) -> int:
    """q = p^m after checking that GF(p^m) exists and fits under SIZE_CAP."""
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
    return q


# Bounded: the tables of GF(2^20) alone take about 96 MB.
@lru_cache(maxsize=4)
def make_field(p: int, m: int = 1) -> Field:
    """Build GF(p^m) with the deterministic smallest irreducible modulus."""
    q = field_order(p, m)
    return Field(p=p, m=m, q=q, modulus=_smallest_irreducible(p, m))
