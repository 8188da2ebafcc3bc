"""Sparse exact solving, ranks, nullspaces and left inverses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.cyclotomic import (HALF, IM, INV_SQRT2, ONE, SQRT2, ZERO, ZETA,
                                  Cyc)
from hopfcheck.linalg import (LinAlgError, NoSolution, NonUniqueSolution, axpy,
                              exact_nullspace, exact_rank, exact_solve_unique,
                              left_inverse, solve_unique, sum_terms)


def dense(*vals):
    return {j: v for j, v in enumerate(vals) if v != ZERO}


def apply(row, x):
    acc = ZERO
    for j, v in row.items():
        acc = acc + v * x[j]
    return acc


TWO = Cyc.from_rational(2)
THREE = Cyc.from_rational(3)


def test_solve_diagonal():
    rows = [dense(ZETA, ZERO), dense(ZERO, SQRT2)]
    sol = solve_unique(rows, [ONE, TWO], 2)
    assert sol[0] == ZETA.inv()
    assert sol[1] == SQRT2


def test_solve_matches_exact_path():
    rows = [dense(ONE, ZETA, ZERO),
            dense(IM, ONE, SQRT2),
            dense(ZERO, SQRT2, -ONE)]
    rhs = [ZETA, ZERO, THREE]
    x = solve_unique(rows, rhs, 3)
    assert [apply(row, x) for row in rows] == rhs
    # the second name bench/tracer.py wraps is the same solver
    assert exact_solve_unique is solve_unique


def test_solve_recovers_large_denominators():
    # solution coordinates with denominators 840 and 280 come back exactly
    x = [Cyc((1, 1, -1, 1), 840), Cyc((3, 0, 5, 0), 280)]
    rows = [dense(TWO, ZETA), dense(-IM, SQRT2 + ONE)]
    rhs = [rows[i].get(0, ZERO) * x[0] + rows[i].get(1, ZERO) * x[1]
           for i in range(2)]
    assert solve_unique(rows, rhs, 2) == x


def test_solve_inconsistent():
    rows = [dense(ONE, ONE), dense(ONE, ONE)]
    with pytest.raises(NoSolution):
        solve_unique(rows, [ONE, TWO], 2)


def test_solve_underdetermined():
    rows = [dense(ONE, ONE)]
    with pytest.raises(NonUniqueSolution):
        solve_unique(rows, [ONE], 2)


def test_rank_and_nullspace():
    rows = [dense(ONE, ZETA, ZERO),
            dense(TWO, ZETA + ZETA, ZERO),
            dense(ZERO, ZERO, IM)]
    assert exact_rank(rows) == 2
    null = exact_nullspace(rows, 3)
    assert len(null) == 1
    v = null[0]
    for row in rows:
        acc = ZERO
        for j, c in row.items():
            acc = acc + c * v.get(j, ZERO)
        assert acc == ZERO


def test_nullspace_of_full_rank_is_empty():
    rows = [dense(ONE, ZETA), dense(ZETA, -ONE)]
    assert exact_nullspace(rows, 2) == []


def test_span_rank():
    vecs = [dense(ONE, ZERO, ZERO), dense(ONE, ONE, ZERO),
            dense(ZERO, ONE, ZERO)]
    assert exact_rank(vecs) == 2
    assert exact_rank([]) == 0


def test_large_pivot_is_eliminated_exactly():
    # a pivot that vanishes modulo the primes 2013265921 and 1811939329
    # is a unit of Q(z) like any other nonzero integer
    big = Cyc.from_rational(2013265921 * 1811939329)
    rows = [dense(big, ZETA), dense(ZERO, ONE)]
    rhs = [ONE, ZETA]
    assert exact_rank(rows) == 2
    x = solve_unique(rows, rhs, 2)
    assert x == [(ONE - ZETA * ZETA) * big.inv(), ZETA]


def test_scalar_system_with_fraction_rhs():
    rows = [dense(Cyc.from_rational(Fraction(3, 7)))]
    assert solve_unique(rows, [ONE], 1) == [Cyc.from_rational(Fraction(7, 3))]


# entries over Q(z), zero-heavy so that sparse rows come up
ENTRIES = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, TWO, ZETA, IM, SQRT2,
                           Cyc((1, 0, -1, 2), 3)])


@st.composite
def systems(draw):
    """A small sparse system rows x == rhs over Q(z).

    The last row is sometimes a combination of two others, with a
    consistent or a perturbed right-hand side, so that rank-deficient and
    inconsistent systems come up as well as random ones.
    """
    ncols = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 5))
    rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    rhs = [draw(ENTRIES) for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 2)), draw(st.integers(0, nrows - 2))
        c = draw(ENTRIES)
        rows[-1] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rhs[-1] = rhs[i] + c * rhs[j] + draw(ENTRIES)
    return [dense(*r) for r in rows], rhs, ncols


@settings(max_examples=150)
@given(systems())
def test_solve_rank_and_left_inverse_agree(system):
    rows, rhs, ncols = system
    rank = exact_rank(rows)
    # the rank of [A | b] decides the outcome of the solve
    aug_rank = exact_rank([{**row, ncols: b} for row, b in zip(rows, rhs)])
    if aug_rank > rank:
        with pytest.raises(NoSolution):
            solve_unique(rows, rhs, ncols)
    elif rank < ncols:
        with pytest.raises(NonUniqueSolution):
            solve_unique(rows, rhs, ncols)
    else:
        x = solve_unique(rows, rhs, ncols)
        assert [apply(row, x) for row in rows] == rhs
    # the rows as the columns of B: L B == I unless they are dependent
    if rank < len(rows):
        with pytest.raises(LinAlgError):
            left_inverse(rows, ncols)
    else:
        left = left_inverse(rows, ncols)
        for t, col in enumerate(rows):
            image = {}
            for c, v in col.items():
                for s, w in left[c].items():
                    image[s] = image.get(s, ZERO) + w * v
            assert {s: w for s, w in image.items() if w} == {t: ONE}


# the sparse-vector kernel against a naive sum over every index
COEFFS = st.sampled_from([ZERO, ONE, -ONE, HALF, -HALF, ZETA, IM * INV_SQRT2])
SPARSE = st.dictionaries(st.integers(0, 7), COEFFS, max_size=6).map(
    lambda d: {j: v for j, v in d.items() if v})


@settings(max_examples=200)
@given(SPARSE, COEFFS.filter(bool), SPARSE, st.sampled_from([0, 3, 8]))
def test_axpy_matches_a_naive_sum(acc, c, vec, shift):
    before, want = dict(vec), {}
    for j in range(8 + shift):
        v = acc.get(j, ZERO) + c * vec.get(j - shift, ZERO)
        if v:
            want[j] = v
    out = axpy(acc, c, vec, shift)
    assert out is acc and acc == want
    assert all(acc.values()) and vec == before


@settings(max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 5), COEFFS), max_size=10))
def test_sum_terms_matches_a_naive_sum(terms):
    want = {}
    for k in range(6):
        v = ZERO
        for key, c in terms:
            if key == k:
                v = v + c
        if v:
            want[k] = v
    assert sum_terms(terms) == want
    assert sum_terms((k, int(c == ONE)) for k, c in terms) == {
        k: n for k in range(6)
        if (n := sum(1 for key, c in terms if key == k and c == ONE))}


# systems whose pivots are already one, and the same rows scaled so that
# every pivot has to be divided out: scaling rows keeps the row space and
# with it the reduced echelon form, so every result is the same
UNIT_PIVOTS = [dense(ONE, ZETA, ZERO, HALF), dense(ZERO, ONE, IM, ZERO),
               dense(ZERO, ZERO, ONE, -ONE)]
SCALES = [HALF, ZETA, -IM * SQRT2]


def scaled(rows):
    return [{j: s * v for j, v in row.items()} for s, row in zip(SCALES, rows)]


def test_unit_pivots_give_the_results_of_scaled_rows():
    z3 = Cyc((0, 0, 0, 1))
    null = exact_nullspace(UNIT_PIVOTS, 4)
    assert null == [{0: z3 - HALF, 1: -IM, 2: ONE, 3: ONE}]
    assert null == exact_nullspace(scaled(UNIT_PIVOTS), 4)
    square = [{j: v for j, v in row.items() if j < 3} for row in UNIT_PIVOTS]
    rhs = [ONE, ZETA, -ONE]
    x = solve_unique(square, rhs, 3)
    assert x == [ONE - IM - z3, ZETA + IM, -ONE]
    assert x == solve_unique(scaled(square),
                             [s * b for s, b in zip(SCALES, rhs)], 3)
    # columns scaled by s give the left inverse with rows divided by s
    left = left_inverse(UNIT_PIVOTS, 4)
    assert left == [{0: ONE, 1: -ZETA, 2: z3}, {1: ONE, 2: -IM}, {2: ONE}, {}]
    assert left_inverse(scaled(UNIT_PIVOTS), 4) == [
        {t: v * SCALES[t].inv() for t, v in col.items()} for col in left]
