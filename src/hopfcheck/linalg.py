"""Sparse exact linear algebra over Q(z).

Vectors are dicts {index: Cyc} holding only nonzero entries, a missing
index meaning zero; matrices are lists of such rows.  This module owns that
rule: every sum of vectors in the package goes through axpy (acc += c vec,
in place) or sum_terms (a vector from (index, coefficient) pairs).  Neither
leaves a zero entry or adds to a missing index, and axpy takes no product
when c is one.  Solutions, ranks, nullspaces and left inverses all come
from one exact Gauss-Jordan elimination over the field, pivoting on the
lowest column.
"""

from __future__ import annotations

from .cyclotomic import Cyc, ONE, ZERO

Vector = dict[int, Cyc]


class LinAlgError(Exception):
    pass


class NoSolution(LinAlgError):
    pass


class NonUniqueSolution(LinAlgError):
    pass


def axpy(acc: Vector, c: Cyc, vec: Vector, shift: int = 0) -> Vector:
    """acc += c * vec in place, vec's index j landing at j + shift, and
    return acc.  c is nonzero, vec has no zero entry and is not acc; no
    product is taken when c is one."""
    terms = vec.items() if c == ONE else ((j, c * v) for j, v in vec.items())
    for j, v in terms:
        j += shift
        old = acc.get(j)
        if old is None:
            acc[j] = v
        elif v := old + v:
            acc[j] = v
        else:
            del acc[j]
    return acc


def sum_terms(terms) -> Vector:
    """Sum (index, coefficient) pairs into a vector without zero entries;
    coefficients may be Cyc or int."""
    acc: Vector = {}
    for k, v in terms:
        old = acc.get(k)
        acc[k] = v if old is None else old + v
    return {k: v for k, v in acc.items() if v}


def _eliminate(rows: list[Vector], track_aug: int | None = None):
    """Incremental Gauss-Jordan.  Returns list of (pivot_col, row), row
    holding every entry of the reduced row but its pivot, which is one, so
    eliminating a pivot takes no product and leaves no zero to remove.

    With track_aug set, that column index never hosts a pivot; a row that
    reduces to aug-only weight raises NoSolution.
    """
    reduced: list[tuple[int, Vector]] = []
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        for pc, prow in reduced:
            if (c := row.pop(pc, None)) is not None:
                axpy(row, -c, prow)
        if not row:
            continue
        cand = [j for j in row if j != track_aug]
        if not cand:
            raise NoSolution("inconsistent system")
        pc = min(cand)
        if (c := row.pop(pc)) != ONE:
            row = axpy({}, c.inv(), row)
        for _, prow in reduced:
            if (c := prow.pop(pc, None)) is not None:
                axpy(prow, -c, row)
        reduced.append((pc, row))
    return reduced


def exact_rank(rows: list[Vector]) -> int:
    return len(_eliminate(rows))


def exact_nullspace(rows: list[Vector], ncols: int) -> list[Vector]:
    """Basis of the right kernel, one vector per free column."""
    reduced = _eliminate(rows)
    pivots = {pc for pc, _ in reduced}
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v: Vector = {f: Cyc.from_rational(1)}
        for pc, row in reduced:
            c = row.get(f)
            if c:
                v[pc] = -c
        basis.append(v)
    return basis


def left_inverse(cols: list[Vector], dim: int) -> list[Vector]:
    """The dim sparse columns of an L with L B == I, B having the given
    columns in a dim-dimensional space; raises LinAlgError if they are
    dependent.

    One elimination of the rows col_t + e_{dim+t}: a reduced row with pivot
    below dim is column pivot of L, read off past dim.
    """
    rows = [{**col, dim + t: ONE} for t, col in enumerate(cols)]
    out: list[Vector] = [{} for _ in range(dim)]
    for pc, row in _eliminate(rows):
        if pc >= dim:
            raise LinAlgError("columns are linearly dependent")
        out[pc] = {j - dim: v for j, v in row.items() if j >= dim}
    return out


def solve_unique(rows: list[Vector], rhs: list[Cyc], ncols: int) -> list[Cyc]:
    """Unique solution of a (possibly overdetermined) system, by exact
    elimination of the rows augmented with rhs.

    Raises NoSolution when the system is inconsistent and NonUniqueSolution
    when its rank is below ncols.
    """
    aug = ncols
    sys_rows = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[aug] = b
        sys_rows.append(r)
    reduced = _eliminate(sys_rows, track_aug=aug)
    if len(reduced) < ncols:
        raise NonUniqueSolution(f"rank {len(reduced)} < {ncols} unknowns")
    x = [ZERO] * ncols
    for pc, row in reduced:
        x[pc] = row.get(aug, ZERO)
    return x


# bench/tracer.py wraps the solver and the rank under these names as well
exact_solve_unique = solve_unique
span_rank = exact_rank
