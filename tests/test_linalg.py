"""Sparse exact solving, ranks, nullspaces and left inverses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.cyclotomic import Cyc, IM, ONE, SQRT2, ZERO, ZETA
from hopfcheck.linalg import (LinAlgError, NoSolution, NonUniqueSolution,
                              exact_nullspace, exact_rank, exact_solve_unique,
                              left_inverse, solve_unique)


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
