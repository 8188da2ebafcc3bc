"""Exact arithmetic in the degree-8 cyclotomic field."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.cyclotomic import (Cyc, HALF, IM, INV_SQRT2, ONE, SQRT2, ZERO,
                                  ZETA)

cycs = st.builds(Cyc, st.tuples(st.integers(-8, 8), st.integers(-8, 8),
                                st.integers(-8, 8), st.integers(-8, 8)),
                 st.sampled_from((1, 2, 3, 4, 6)))
nonzero_cycs = cycs.filter(lambda x: x != ZERO)


def test_generator_relations():
    assert Cyc.zeta_power(4) == -ONE
    assert ZETA * ZETA == IM
    assert IM * IM == -ONE
    assert SQRT2 * SQRT2 == Cyc.from_rational(2)
    assert INV_SQRT2 * SQRT2 == ONE
    assert IM * INV_SQRT2 == Cyc((0, 1, 0, 1), 2)


def test_roots_of_unity():
    roots = [Cyc.zeta_power(k) for k in range(8)]
    assert len(set(roots)) == 8
    for k, w in enumerate(roots):
        assert w == (roots[k - 1] * ZETA if k else ONE)
        assert w * Cyc.zeta_power(8 - k) == ONE


def test_string_forms():
    assert str(INV_SQRT2) == "1/2*z - 1/2*z^3"
    assert str(HALF - IM * HALF) == "1/2 - 1/2*z^2"
    assert str(ZERO) == "0"
    assert str(-ONE) == "-1"


def test_strings_round_trip():
    x = Cyc((3, -1, 0, 7), 6)
    assert Cyc.from_strings(x.to_strings()) == x
    # only a list of four: a string of four digits is not one
    for bad in (["1", "2", "3"], "1000"):
        with pytest.raises(ValueError, match="need a list of 4"):
            Cyc.from_strings(bad)
    # only the canonical integer or fraction form is read
    for bad in ("1e5000", "0.5", " 1", "1/0", "0x1", 5):
        with pytest.raises(ValueError, match="not a coordinate string"):
            Cyc.from_strings([bad, "0", "0", "0"])
    with pytest.raises(ValueError):
        Cyc((1, 2, 3))


def test_constructor_rejects_inexact_input():
    # a float coordinate or denominator used to be truncated silently
    for nums, den in [((0.5, 0, 0, 0), 1), ((1, 0, 0, 0), 2.7),
                      (("1", 0, 0, 0), 1), ((1, 0, 0, 0), Fraction(1, 2))]:
        with pytest.raises(TypeError):
            Cyc(nums, den)
    assert Cyc((Fraction(1, 2), 0, Fraction(-1, 3), 0), 2) == Cyc((3, 0, -2, 0), 12)
    with pytest.raises(ZeroDivisionError):
        Cyc((1, 0, 0, 0), 0)


def test_hash_agrees_with_equality():
    assert ONE == 1 and len({ONE, 1}) == 1
    assert hash(HALF) == hash(Fraction(1, 2))
    assert hash(-ONE) == hash(-1)
    assert len({ZERO, Fraction(0), 0}) == 1


def test_rational_views():
    assert HALF.is_rational() and HALF == Fraction(1, 2)
    assert not ZETA.is_rational() and not SQRT2.is_rational()


def test_conjugation():
    assert IM.conj() == -IM
    assert ZETA.conj() == Cyc.zeta_power(7)
    assert SQRT2.conj() == SQRT2


def test_inverse():
    x = Cyc((1, 2, -3, 1), 4)
    assert x * x.inv() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


# field axioms, randomized: six properties at 200 examples each is 1200 cases

@settings(max_examples=200)
@given(cycs, cycs, cycs)
def test_addition_group(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x + ZERO == x
    assert x + (-x) == ZERO


@settings(max_examples=200)
@given(cycs, cycs, cycs)
def test_multiplication_monoid(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * ONE == x


@settings(max_examples=200)
@given(cycs, cycs, cycs)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@settings(max_examples=200)
@given(nonzero_cycs)
def test_multiplicative_inverse(x):
    assert x * x.inv() == ONE
    assert x.inv().inv() == x


@settings(max_examples=200)
@given(cycs, cycs, st.sampled_from([1, 3, 5, 7]))
def test_galois_action(x, y, t):
    assert (x * y).galois(t) == x.galois(t) * y.galois(t)
    assert (x + y).galois(t) == x.galois(t) + y.galois(t)
    assert x.galois(t).galois(t) == x.galois((t * t) % 8)


@settings(max_examples=200)
@given(cycs, cycs)
def test_conj_is_ring_map(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()
    assert x.conj().conj() == x


# the fast operators against a reference on Fraction coordinates

wide_cycs = st.builds(Cyc, st.tuples(*[st.integers(-60, 60)] * 4),
                      st.integers(-12, 12).filter(bool))
rationals = st.one_of(st.integers(-9, 9),
                      st.fractions(max_denominator=9).map(Fraction))


def ref_mul(a, b):
    c = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            if i + j < 4:
                c[i + j] += a[i] * b[j]
            else:
                c[i + j - 4] -= a[i] * b[j]   # z**4 == -1
    return tuple(c)


def ref_galois(a, t):
    c = [Fraction(0)] * 4
    for k in range(4):
        e = k * t % 8
        c[e % 4] += a[k] if e < 4 else -a[k]
    return tuple(c)


def assert_canonical(c):
    nums, den = c._n, c._d
    assert all(type(n) is int for n in nums) and type(den) is int
    assert den > 0 and math.gcd(*nums, den) == 1
    if c.is_rational():
        q = Fraction(nums[0], den)
        assert c == q and hash(c) == hash(q)
        if den == 1:
            assert c == nums[0] and hash(c) == hash(nums[0])


@settings(max_examples=300)
@given(wide_cycs, wide_cycs, rationals, st.sampled_from([1, 3, 5, 7]))
def test_fast_ops_match_fraction_reference(x, y, q, t):
    a, b = x.coords, y.coords
    qc = (Fraction(q), Fraction(0), Fraction(0), Fraction(0))
    cases = [
        (x + y, tuple(u + v for u, v in zip(a, b))),
        (x - y, tuple(u - v for u, v in zip(a, b))),
        (x * y, ref_mul(a, b)),
        (-x, tuple(-u for u in a)),
        (x.galois(t), ref_galois(a, t)),
        (x.conj(), ref_galois(a, 7)),
        (x + q, tuple(u + v for u, v in zip(a, qc))),
        (q - x, tuple(v - u for u, v in zip(a, qc))),
        (q * x, ref_mul(qc, a)),
    ]
    for got, want in cases:
        assert got.coords == want
        assert_canonical(got)
    assert (x == y) == (a == b)
    if x:
        inv = x.inv()
        assert_canonical(inv)
        assert ref_mul(a, inv.coords) == (1, 0, 0, 0)


def test_no_fraction_on_the_hot_path(monkeypatch):
    xs = [Cyc((k, -2 * k, 3, k * k), 1 + k % 6) for k in range(-12, 12)]
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and made   # the counter sees a construction
    made.clear()
    for x in xs:
        for y in xs:
            assert x * y - y * x == ZERO
            assert (x + y) * (x - y) == x * x - y * y
        assert -x == ZERO - x
        assert x.galois(3).conj() == x.galois(5)
        assert x * x.inv() == ONE
    assert not made
