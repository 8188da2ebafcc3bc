"""Sparse exact linear algebra over Q(z), with a modular fast path.

Vectors are dicts {index: Cyc} holding only nonzero entries; matrices are
lists of such rows.  Everything user-visible is exact: ranks come from exact
elimination unless a one-sided modular certificate already settles them, and
modular solutions are rationally reconstructed and then re-verified over the
field before being returned.

The modular layer reduces Q(z) mod primes p == 1 (mod 8): any w of order 8
in Z/p gives a ring map z -> w, and the four odd powers w, w**3, w**5, w**7
give four independent scalar systems, each eliminated on sparse rows of
residues, whose solutions are unmixed by the closed-form inverse of their
4x4 Vandermonde matrix.  Ranks can only drop under reduction, so a full-rank
reduction certifies full rank over the field.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cyclotomic import Cyc, ONE, ZERO

Vector = dict[int, Cyc]

# NTT-friendly primes, all == 1 mod 8
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


def _reduce_rows(rows: list[Vector], rhs: list[Cyc] | None, ncols: int,
                 p: int, t: int) -> list[dict[int, int]] | None:
    """The system under z -> w**t mod p as dict rows of nonzero residues,
    with rhs (when given) in column ncols; None when a denominator vanishes."""
    wp = _wpows(p, t)
    out = []
    for i, row in enumerate(rows):
        red = {}
        for j, v in row.items():
            r = v.residue(p, wp)
            if r is None:
                return None
            if r:
                red[j] = r
        if rhs is not None and rhs[i]:
            r = rhs[i].residue(p, wp)
            if r is None:
                return None
            if r:
                red[ncols] = r
        out.append(red)
    return out


def _modp_eliminate(rows: list[dict[int, int]], p: int,
                    aug: int | None = None) -> dict[int, dict[int, int]] | None:
    """Sparse Gauss-Jordan mod p, the lowest column pivoting as in _eliminate.

    Returns {pivot_col: row} with each row normalised and every pivot column
    cleared from the other rows.  Column aug never hosts a pivot; a row that
    reduces to weight only there makes the system inconsistent: None.
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
        cand = [j for j in row if j != aug]
        if not cand:
            return None
        pc = min(cand)
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
    for p in PRIMES[:2]:
        red = _reduce_rows(rows, None, ncols, p, 1)
        if red is None:
            continue
        if len(_modp_eliminate(red, p)) == target:
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


def _unmixing(p: int) -> list[list[int]]:
    """V^-1 mod p for V[r][k] == (w**t_r)**k, t_r in (1, 3, 5, 7).

    The w**t_r are the four roots of x**4 + 1, and sum_r w**(t_r * m) is 4
    for m == 0 and vanishes for 0 < |m| < 4, so V^-1[k][r] == w**(-t_r k) / 4.
    """
    w, quarter = _ROOTS[p], pow(4, -1, p)
    return [[pow(w, -t * k % 8, p) * quarter % p for t in (1, 3, 5, 7)]
            for k in range(4)]


def _solve_residues(rows: list[Vector], rhs: list[Cyc], ncols: int,
                    p: int) -> list[tuple[int, int, int, int]] | None:
    """Coordinates of the unique solution mod p, or None when this prime fails."""
    embedded = []
    for t in (1, 3, 5, 7):
        red = _reduce_rows(rows, rhs, ncols, p, t)
        if red is None:
            return None
        reduced = _modp_eliminate(red, p, aug=ncols)
        if reduced is None or len(reduced) < ncols:
            return None
        x = [0] * ncols
        for pc, row in reduced.items():
            x[pc] = row.get(ncols, 0)
        embedded.append(x)
    # unmix: coordinate k of unknown j solves V a == (x_t[j])_t
    vinv = _unmixing(p)
    return [tuple(sum(vk[r] * embedded[r][j] for r in range(4)) % p
                  for vk in vinv)
            for j in range(ncols)]


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
