"""Sparse exact linear algebra over Q(z), with a modular full-rank certificate.

Vectors are dicts {index: Cyc} holding only nonzero entries; matrices are
lists of such rows.  Solutions, nullspaces and ranks come from exact
Gauss-Jordan elimination over the field.  The one shortcut is one-sided:
Q(z) reduces mod primes p == 1 (mod 8), where any w of order 8 in Z/p gives
a ring map z -> w, and since ranks can only drop under reduction, a
reduction of full rank certifies full rank over the field.  Any other
modular outcome is inconclusive and the rank is computed exactly.
"""

from __future__ import annotations

from .cyclotomic import Cyc, ONE, ZERO

Vector = dict[int, Cyc]

# NTT-friendly primes, both == 1 mod 8
PRIMES = (2013265921, 1811939329)


class LinAlgError(Exception):
    pass


class NoSolution(LinAlgError):
    pass


class NonUniqueSolution(LinAlgError):
    pass


# exact elimination ---------------------------------------------------------

def _eliminate(rows: list[Vector], track_aug: int | None = None):
    """Incremental Gauss-Jordan.  Returns list of (pivot_col, row).

    With track_aug set, that column index never hosts a pivot; a row that
    reduces to aug-only weight raises NoSolution.
    """
    reduced: list[tuple[int, Vector]] = []
    for row in rows:
        row = {j: v for j, v in row.items() if v}
        for pc, prow in reduced:
            c = row.get(pc)
            if c is not None:
                for j, v in prow.items():
                    nv = row.get(j, ZERO) - c * v
                    if nv:
                        row[j] = nv
                    else:
                        row.pop(j, None)
        if not row:
            continue
        cand = [j for j in row if j != track_aug]
        if not cand:
            raise NoSolution("inconsistent system")
        pc = min(cand)
        inv = row[pc].inv()
        row = {j: v * inv for j, v in row.items()}
        for _, prow in reduced:
            c = prow.get(pc)
            if c is not None:
                for j, v in row.items():
                    nv = prow.get(j, ZERO) - c * v
                    if nv:
                        prow[j] = nv
                    else:
                        prow.pop(j, None)
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


# bench/tracer.py wraps the solver under this name as well
exact_solve_unique = solve_unique


# modular certificate --------------------------------------------------------

def _order8_powers(p: int) -> tuple[int, int, int, int]:
    """(1, w, w**2, w**3) mod p for some w of order 8."""
    for g in range(2, 100):
        w = pow(g, (p - 1) // 8, p)
        if pow(w, 4, p) == p - 1:
            return (1, w, w * w % p, pow(w, 3, p))
    raise LinAlgError(f"no order-8 root mod {p}")


_WPOWS = {p: _order8_powers(p) for p in PRIMES}


def _reduce_rows(rows: list[Vector], p: int) -> list[dict[int, int]] | None:
    """The rows under z -> w mod p as dicts of nonzero residues; None when a
    denominator vanishes."""
    wp = _WPOWS[p]
    out = []
    for row in rows:
        red = {}
        for j, v in row.items():
            r = v.residue(p, wp)
            if r is None:
                return None
            if r:
                red[j] = r
        out.append(red)
    return out


def _modp_eliminate(rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Sparse Gauss-Jordan mod p, the lowest column pivoting as in _eliminate.

    Returns {pivot_col: row} with each row normalised and every pivot column
    cleared from the other rows.
    """
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        row = dict(row)
        # a reduced row is zero at every other pivot, so subtracting it
        # leaves the row's other pivot entries as they were
        for pc in [j for j in row if j in reduced]:
            c = row[pc]
            for j, v in reduced[pc].items():
                nv = (row.get(j, 0) - c * v) % p
                if nv:
                    row[j] = nv
                else:
                    del row[j]
        if not row:
            continue
        pc = min(row)
        inv = pow(row[pc], -1, p)
        row = {j: v * inv % p for j, v in row.items()}
        for prow in reduced.values():
            c = prow.get(pc)
            if c is not None:
                for j, v in row.items():
                    nv = (prow.get(j, 0) - c * v) % p
                    if nv:
                        prow[j] = nv
                    else:
                        del prow[j]
        reduced[pc] = row
    return reduced


def full_rank_certificate(rows: list[Vector], ncols: int) -> bool:
    """True certifies rank == min(len(rows), ncols); False is inconclusive."""
    target = min(len(rows), ncols)
    for p in PRIMES:
        red = _reduce_rows(rows, p)
        if red is None:
            continue
        # False when the rank really dropped or p is unlucky: stay exact
        return len(_modp_eliminate(red, p)) == target
    return False


def span_rank(vectors: list[Vector], dim: int) -> int:
    """Exact rank of the span; shortcut when a certificate gives the max."""
    vectors = [v for v in vectors if v]
    if not vectors:
        return 0
    if full_rank_certificate(vectors, dim):
        return min(len(vectors), dim)
    return exact_rank(vectors)
