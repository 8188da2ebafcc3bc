"""Sparse exact linear algebra over Q(z), with a modular fast path.

Vectors are dicts {index: Cyc} holding only nonzero entries; matrices are
lists of such rows.  Everything user-visible is exact: ranks come from exact
elimination unless a one-sided modular certificate already settles them, and
modular solutions are rationally reconstructed and then re-verified over the
field before being returned.

The modular layer reduces Q(z) mod primes p == 1 (mod 8): any w of order 8
in Z/p gives a ring map z -> w, and the four odd powers w, w**3, w**5, w**7
give four independent scalar systems whose solutions are unmixed by a 4x4
Vandermonde solve.  Ranks can only drop under reduction, so a full-rank
reduction certifies full rank over the field.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cyclotomic import Cyc, ONE, ZERO

Vector = dict[int, Cyc]

# NTT-friendly primes, all == 1 mod 8, small enough that two int64 factors
# below p keep products under 2**62
PRIMES = (2013265921, 1811939329, 2113929217, 754974721, 469762049)


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


def exact_solve_unique(rows: list[Vector], rhs: list[Cyc], ncols: int) -> list[Cyc]:
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


# modular layer --------------------------------------------------------------

def _order8_root(p: int) -> int:
    for g in range(2, 100):
        w = pow(g, (p - 1) // 8, p)
        if pow(w, 4, p) == p - 1:
            return w
    raise LinAlgError(f"no order-8 root mod {p}")


_ROOTS = {p: _order8_root(p) for p in PRIMES}


def _wpows(p: int, t: int) -> tuple[int, int, int, int]:
    wt = pow(_ROOTS[p], t, p)
    return (1, wt, wt * wt % p, pow(wt, 3, p))


def _reduce_matrix(rows: list[Vector], rhs: list[Cyc] | None, ncols: int,
                   p: int, t: int) -> np.ndarray | None:
    wp = _wpows(p, t)
    width = ncols + (1 if rhs is not None else 0)
    a = np.zeros((len(rows), width), dtype=np.int64)
    for i, row in enumerate(rows):
        for j, v in row.items():
            r = v.residue(p, wp)
            if r is None:
                return None
            a[i, j] = r
        if rhs is not None and rhs[i]:
            r = rhs[i].residue(p, wp)
            if r is None:
                return None
            a[i, ncols] = r
    return a


def _modp_rref(a: np.ndarray, p: int, ncols: int) -> tuple[list[int], np.ndarray]:
    """Row reduce mod p over the first ncols columns; returns (pivot cols, a)."""
    a = a % p
    m = a.shape[0]
    pr = 0
    pivots = []
    for c in range(ncols):
        col = a[pr:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        r = pr + int(nz[0])
        if r != pr:
            a[[pr, r]] = a[[r, pr]]
        a[pr] = a[pr] * pow(int(a[pr, c]), -1, p) % p
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != pr]
        if rows.size:
            a[rows] = (a[rows] - np.outer(a[rows, c], a[pr])) % p
        pivots.append(c)
        pr += 1
        if pr == m:
            break
    return pivots, a


def full_rank_certificate(rows: list[Vector], ncols: int) -> bool:
    """True certifies rank == min(len(rows), ncols); False is inconclusive."""
    target = min(len(rows), ncols)
    for p in PRIMES[:2]:
        a = _reduce_matrix(rows, None, ncols, p, 1)
        if a is None:
            continue
        pivots, _ = _modp_rref(a, p, ncols)
        if len(pivots) == target:
            return True
        return False    # rank really dropped, or unlucky prime; stay exact
    return False


def span_rank(vectors: list[Vector], dim: int) -> int:
    """Exact rank of the span; shortcut when a certificate gives the max."""
    vectors = [v for v in vectors if v]
    if not vectors:
        return 0
    if full_rank_certificate(vectors, dim):
        return min(len(vectors), dim)
    return exact_rank(vectors)


def _rational_reconstruct(r: int, m: int) -> Fraction | None:
    # Wang's algorithm: n/d == r (mod m) with |n|, d <= sqrt(m/2)
    bound = math.isqrt(m // 2)
    u0, u1 = m, 0
    v0, v1 = r % m, 1
    while v0 > bound:
        q = u0 // v0
        u0, v0 = v0, u0 - q * v0
        u1, v1 = v1, u1 - q * v1
    if v1 == 0 or abs(v1) > bound or math.gcd(v0, v1) != 1:
        return None
    return Fraction(v0, v1) if v1 > 0 else Fraction(-v0, -v1)


def _solve_residues(rows: list[Vector], rhs: list[Cyc], ncols: int,
                    p: int) -> list[tuple[int, int, int, int]] | None:
    """Coordinates of the unique solution mod p, or None when this prime fails."""
    embedded = []
    for t in (1, 3, 5, 7):
        a = _reduce_matrix(rows, rhs, ncols, p, t)
        if a is None:
            return None
        pivots, red = _modp_rref(a, p, ncols)
        if len(pivots) < ncols:
            return None
        # inconsistent iff some leftover row has weight only in the aug column
        if red[len(pivots):, ncols].any():
            return None
        x = np.zeros(ncols, dtype=np.int64)
        x[pivots] = red[: len(pivots), ncols]
        embedded.append(x)
    # unmix: coordinate k of unknown j solves V a == (x_t[j])_t with
    # V[r][k] == (w**t_r)**k
    v = np.zeros((4, 4), dtype=np.int64)
    for r, t in enumerate((1, 3, 5, 7)):
        v[r] = _wpows(p, t)
    vp, vred = _modp_rref(np.hstack([v, np.eye(4, dtype=np.int64)]), p, 4)
    if len(vp) < 4:
        return None
    vinv = [[int(vred[k, 4 + r]) for r in range(4)] for k in range(4)]
    out = []
    for j in range(ncols):
        y = [int(embedded[r][j]) for r in range(4)]
        # python ints here, a 4-term sum of products can overflow int64
        out.append(tuple(sum(vinv[k][r] * y[r] for r in range(4)) % p
                         for k in range(4)))
    return out


def _crt(res_a: int, mod_a: int, res_b: int, mod_b: int) -> int:
    d = pow(mod_a, -1, mod_b)
    return (res_a + (res_b - res_a) * d % mod_b * mod_a) % (mod_a * mod_b)


def solve_unique(rows: list[Vector], rhs: list[Cyc], ncols: int) -> list[Cyc]:
    """Unique solution of a (possibly overdetermined) consistent system.

    Modular fast path with exact verification; falls back to exact
    elimination whenever reconstruction or verification fails.
    """
    residues = None
    modulus = 1
    for p in PRIMES:
        got = _solve_residues(rows, rhs, ncols, p)
        if got is None:
            continue
        if residues is None:
            residues, modulus = got, p
        else:
            residues = [tuple(_crt(a, modulus, b, p) for a, b in zip(ra, rb))
                        for ra, rb in zip(residues, got)]
            modulus *= p
        x = _lift(residues, modulus)
        if x is not None and _verifies(rows, rhs, x):
            return x
        if modulus > PRIMES[0] ** 3:
            break
    return exact_solve_unique(rows, rhs, ncols)


def _lift(residues, modulus) -> list[Cyc] | None:
    out = []
    for quad in residues:
        fracs = []
        for r in quad:
            f = _rational_reconstruct(r, modulus)
            if f is None:
                return None
            fracs.append(f)
        out.append(Cyc(fracs))
    return out


def _verifies(rows: list[Vector], rhs: list[Cyc], x: list[Cyc]) -> bool:
    for row, b in zip(rows, rhs):
        acc = ZERO
        for j, v in row.items():
            acc = acc + v * x[j]
        if acc != b:
            return False
    return True
