"""Exact arithmetic in the cyclotomic field Q(z), z = exp(i*pi/4).

An element is a0 + a1*z + a2*z**2 + a3*z**3 with integer numerators over a
shared positive denominator, kept reduced so gcd(a0, a1, a2, a3, den) == 1.
Equality and hashing compare that canonical form, so every operation returns
it.  The public constructor validates its input; the operators build their
results from ints alone through _make, with no Fraction on the way.
The defining relation is z**4 == -1, so z**2 is the imaginary unit and
z - z**3 is sqrt(2).  All arithmetic is exact.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Sequence


_ZEROS = (0, 0, 0, 0)
# the form to_strings writes: str() of a Fraction, whose denominator is
# never zero
_CANONICAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")
_new = object.__new__


def _make(n0: int, n1: int, n2: int, n3: int, d: int) -> Cyc:
    """Cyc of int coordinates over d > 0, reduced by the gcd; no checks."""
    if d != 1:
        g = math.gcd(n0, n1, n2, n3, d)
        if g != 1:
            n0 //= g
            n1 //= g
            n2 //= g
            n3 //= g
            d //= g
    c = _new(Cyc)
    c._n = (n0, n1, n2, n3)
    c._d = d
    return c


def _raw(nums: tuple[int, int, int, int], d: int) -> Cyc:
    """Cyc of an already reduced coordinate tuple over d > 0."""
    c = _new(Cyc)
    c._n = nums
    c._d = d
    return c


class Cyc:
    """A number in Q(z), z**4 == -1."""

    __slots__ = ("_n", "_d")

    def __init__(self, nums: Iterable[int | Fraction] = (0, 0, 0, 0), den: int = 1):
        ns = tuple(nums)
        if len(ns) != 4:
            raise ValueError("need exactly 4 coordinates")
        if (not all(isinstance(n, (int, Fraction)) for n in ns)
                or not isinstance(den, int)):
            raise TypeError("coordinates must be int or Fraction, "
                            "the denominator an int")
        if any(isinstance(n, Fraction) for n in ns):
            m = math.lcm(*(Fraction(n).denominator for n in ns))
            ns = tuple(int(n * m) for n in ns)
            den *= m
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            ns = tuple(-n for n in ns)
            den = -den
        g = math.gcd(*ns, den)
        self._n = tuple(int(n) // g for n in ns)
        self._d = int(den) // g

    # constructors

    @classmethod
    def from_rational(cls, q: int | Fraction) -> Cyc:
        if isinstance(q, int):
            return _raw((int(q), 0, 0, 0), 1)
        if not isinstance(q, Fraction):
            q = Fraction(q)
        return _raw((q.numerator, 0, 0, 0), q.denominator)

    @classmethod
    def zeta_power(cls, k: int) -> Cyc:
        k %= 8
        sign = 1 if k < 4 else -1   # z**4 == -1
        nums = [0, 0, 0, 0]
        nums[k % 4] = sign
        return cls(nums)

    @classmethod
    def from_strings(cls, parts: list[str]) -> Cyc:
        """Parse the list of four coordinate strings to_strings writes.

        Only that canonical form, an integer or a fraction of integers, is
        accepted: an exponent such as "1e10000000" would build a huge
        integer, while Python's bound on int string conversion keeps every
        digit string small.  Raises ValueError for anything else, a string
        "1000" in place of the list included.
        """
        if type(parts) is not list or len(parts) != 4:
            raise ValueError(f"need a list of 4 coordinates, not {parts!r:.40}")
        for p in parts:
            if not isinstance(p, str) or not _CANONICAL.fullmatch(p):
                raise ValueError(f"not a coordinate string: {p!r:.40}")
        fs = [Fraction(p) for p in parts]
        den = math.lcm(*(f.denominator for f in fs))
        return cls(tuple(int(f * den) for f in fs), den)

    # views

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(Fraction(n, self._d) for n in self._n)

    def to_strings(self) -> list[str]:
        return [str(c) for c in self.coords]

    def is_rational(self) -> bool:
        return self._n[1] == self._n[2] == self._n[3] == 0

    # ring structure

    def __bool__(self) -> bool:
        return self._n != _ZEROS

    def __eq__(self, other: object) -> bool:
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.from_rational(other)
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        # equal to the hash of an equal int or Fraction, as __eq__ requires
        if self.is_rational():
            n0 = self._n[0]
            return hash(n0 if self._d == 1 else Fraction(n0, self._d))
        return hash((self._n, self._d))

    def __neg__(self) -> Cyc:
        a0, a1, a2, a3 = self._n
        return _raw((-a0, -a1, -a2, -a3), self._d)

    def __add__(self, other: Cyc | int | Fraction) -> Cyc:
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.from_rational(other)
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        da, db = self._d, other._d
        if da == db:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _make(a0 * db + b0 * da, a1 * db + b1 * da,
                     a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __sub__(self, other: Cyc | int | Fraction) -> Cyc:
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.from_rational(other)
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        da, db = self._d, other._d
        if da == db:
            return _make(a0 - b0, a1 - b1, a2 - b2, a3 - b3, da)
        return _make(a0 * db - b0 * da, a1 * db - b1 * da,
                     a2 * db - b2 * da, a3 * db - b3 * da, da * db)

    def __rsub__(self, other: int | Fraction) -> Cyc:
        return Cyc.from_rational(other) + (-self)

    def __mul__(self, other: Cyc | int | Fraction) -> Cyc:
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Cyc.from_rational(other)
        a0, a1, a2, a3 = self._n
        b0, b1, b2, b3 = other._n
        # z**4 == -1 folds the degree 4..6 terms back with a sign
        return _make(a0 * b0 - a1 * b3 - a2 * b2 - a3 * b1,
                     a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
                     a0 * b2 + a1 * b1 + a2 * b0 - a3 * b3,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0,
                     self._d * other._d)

    __rmul__ = __mul__

    def galois(self, t: int) -> Cyc:
        """The automorphism z -> z**t for odd t."""
        t %= 8
        if t % 2 == 0:
            raise ValueError("t must be odd")
        a0, a1, a2, a3 = self._n
        if t == 1:
            return self
        # a signed permutation of the coordinates keeps them reduced
        if t == 3:
            return _raw((a0, a3, -a2, a1), self._d)
        if t == 5:
            return _raw((a0, -a1, a2, -a3), self._d)
        return _raw((a0, -a3, -a2, -a1), self._d)

    def conj(self) -> Cyc:
        """Complex conjugation, z -> z**7."""
        return self.galois(7)

    def inv(self) -> Cyc:
        if not self:
            raise ZeroDivisionError("inverse of zero")
        # product of the other three Galois conjugates; times self it is the
        # rational field norm n/d, so the inverse is c * d/n
        c = self.galois(3) * self.galois(5) * self.galois(7)
        norm = self * c
        n, d = norm._n[0], norm._d
        return c * (_raw((d, 0, 0, 0), n) if n > 0 else _raw((-d, 0, 0, 0), -n))

    def __repr__(self) -> str:
        return f"Cyc({list(self._n)}, {self._d})"

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        for k, c in enumerate(self.coords):
            if not c:
                continue
            unit = ("", "z", "z^2", "z^3")[k]
            if not unit:
                parts.append(str(c))
            elif c == 1:
                parts.append(unit)
            elif c == -1:
                parts.append(f"-{unit}")
            else:
                parts.append(f"{c}*{unit}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


ZERO = Cyc()
ONE = Cyc.from_rational(1)
HALF = Cyc.from_rational(Fraction(1, 2))
ZETA = Cyc.zeta_power(1)
IM = Cyc.zeta_power(2)
SQRT2 = Cyc((0, 1, 0, -1))        # z - z**3
INV_SQRT2 = Cyc((0, 1, 0, -1), 2)


# dense matrices over Q(z), as lists of rows ---------------------------------

def _dot(u: Sequence[Cyc], v: Sequence[Cyc]) -> Cyc:
    # the sum starts from the first product, not from ZERO
    products = map(operator.mul, u, v)
    return sum(products, next(products))


def mat_mul(x: Sequence[Sequence[Cyc]], y: Sequence[Sequence[Cyc]],
            ) -> list[list[Cyc]]:
    """The product x y of dense matrices."""
    cols = list(zip(*y))
    return [[_dot(row, col) for col in cols] for row in x]


def is_unitary(rows: Sequence[Sequence[Cyc]]) -> bool:
    """Exact test of m m^* == 1 for a square matrix m given by its rows."""
    conj = [[v.conj() for v in row] for row in rows]
    return all(_dot(rows[i], conj[j]) == (ONE if i == j else ZERO)
               for i in range(len(rows)) for j in range(len(rows)))
