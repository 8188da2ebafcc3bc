"""Consistency equations for the rank-two module over the fusion category.

The module action is encoded by four 2x2 matrices, one per group element,
plus one 4x4 matrix for the extra simple, whose column g is the image of
the basis vector tagged (g, g rho) in the basis e_i (x) xi_j.  Each column
is pinned by a hook equation against its 2x2 matrix, and the group part
must satisfy one bilinear equation on its own.

The printed 4x4 matrix fails its equations: two columns are exchanged and
one entry has the wrong sign.  The checks here certify the failure, derive
the forced repair, measure its distance from the printed matrix, and show
no phase-only adjustment of the printed data could have worked.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import NamedTuple

from ..cyclotomic import (Cyc, HALF, IM, INV_SQRT2, ONE, SQRT2, ZERO,
                          is_unitary, mat_mul)

Matrix = list[list[Cyc]]

GROUP_LABELS = ("e", "a", "b", "c")
MU4 = (ONE, IM, -ONE, -IM)

PSI = {
    "e": [[ZERO, ONE], [ONE, ZERO]],
    "a": [[INV_SQRT2, -INV_SQRT2], [INV_SQRT2, INV_SQRT2]],
    "b": [[ONE, ZERO], [ZERO, -ONE]],
    "c": [[INV_SQRT2, INV_SQRT2], [-INV_SQRT2, INV_SQRT2]],
}

PSI_RHO_PRINTED: Matrix = [
    [ZERO, HALF, INV_SQRT2, HALF],
    [INV_SQRT2, HALF, ZERO, -HALF],
    [INV_SQRT2, -HALF, ZERO, HALF],
    [ZERO, HALF, INV_SQRT2, HALF],
]

_ID2: Matrix = [[ONE, ZERO], [ZERO, ONE]]


def _transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def _inv2(m: Matrix) -> Matrix:
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    di = det.inv()
    return [[m[1][1] * di, -m[0][1] * di],
            [-m[1][0] * di, m[0][0] * di]]


def hook_equation(column: list[Cyc], psi: Matrix) -> bool:
    """sqrt2 C psi^T == 1 with C the column reshaped to 2x2."""
    c = [[column[0], column[1]], [column[2], column[3]]]
    prod = mat_mul(c, _transpose(psi))
    return [[SQRT2 * v for v in row] for row in prod] == _ID2


def forced_column(psi: Matrix) -> list[Cyc]:
    """The unique column satisfying the hook equation for psi."""
    c = _inv2(_transpose(psi))
    return [v * INV_SQRT2 for row in c for v in row]


def group_equation(psis: dict[str, Matrix]) -> bool:
    """sum_g psi_g[j][m] conj(psi_g[i][k]) == 2 [i==j][k==m]."""
    two = Cyc.from_rational(2)
    for i, j, k, m in product(range(2), repeat=4):
        acc = ZERO
        for g in GROUP_LABELS:
            acc = acc + psis[g][j][m] * psis[g][i][k].conj()
        if acc != (two if (i == j and k == m) else ZERO):
            return False
    return True


def repaired_psi_rho() -> Matrix:
    cols = [forced_column(PSI[g]) for g in GROUP_LABELS]
    return [[cols[ci][r] for ci in range(4)] for r in range(4)]


def repair_distance() -> int:
    """Entries where the printed matrix differs from the forced one."""
    rep = repaired_psi_rho()
    return sum(1 for r in range(4) for c in range(4)
               if PSI_RHO_PRINTED[r][c] != rep[r][c])


class ModuleReport(NamedTuple):
    unitary: bool
    hooks: dict[str, bool]
    group_part: bool

    @property
    def passed(self) -> bool:
        return self.unitary and all(self.hooks.values()) and self.group_part


def module_report(source: str = "repaired") -> ModuleReport:
    """Evaluate all consistency equations for one choice of 4x4 matrix."""
    if source == "verbatim":
        m = PSI_RHO_PRINTED
    elif source == "repaired":
        m = repaired_psi_rho()
    else:
        raise ValueError(f"unknown source {source!r}")
    hooks = {}
    for ci, g in enumerate(GROUP_LABELS):
        hooks[g] = hook_equation([m[r][ci] for r in range(4)], PSI[g])
    return ModuleReport(is_unitary(m), hooks, group_equation(PSI))


def column_phase_search() -> dict:
    """Phase-only adjustments of the printed data: the whole space is empty.

    The space is a fourth root of unity on each printed column and on each
    2x2 matrix, 4**8 assignments in all.  Each hook equation involves only
    its own column and matrix and picks up the product of their two phases,
    so feasibility factors column by column; the count below is therefore
    exact for the full space even though it never enumerates it.
    """
    solutions = 1
    for col, g in zip(_transpose(PSI_RHO_PRINTED), GROUP_LABELS):
        solutions *= sum(hook_equation([wc * v for v in col],
                                       [[wg * v for v in r] for r in PSI[g]])
                         for wc in MU4 for wg in MU4)
    return {"space": 4 ** 8, "solutions": solutions}


def global_phase_family() -> dict:
    """Rescale each 2x2 matrix by a fourth root of unity and force the
    columns; every one of the 256 assignments must satisfy everything,
    and the identity assignment is the closest to the printed matrix.

    Each equation is a sum over the group of a term that depends only on
    g and its phase, so the 16 (g, phase) pairs are worked out once: the
    forced column and its hook verdict, the terms col[i] conj(col[j]) whose
    sum over g is m m* for the 4x4 matrix m of forced columns (the identity
    is_unitary tests), and the group equation's terms.  The group is then
    split into the pairs (e, a) and (b, c): an assignment passes when both
    its halves pass their hooks and the sums of its left half equal the
    targets minus the sums of its right half, compared exactly, so the
    passing assignments are counted from the 16 + 16 half sums.
    """
    two = Cyc.from_rational(2)
    idx4 = list(product(range(4), repeat=2))
    idx2 = list(product(range(2), repeat=4))
    target = ([ONE if i == j else ZERO for i, j in idx4]
              + [two if (i == j and k == m) else ZERO for i, j, k, m in idx2])
    pairs = []
    for g in GROUP_LABELS:
        per_phase = []
        for w in MU4:
            psi = [[w * v for v in row] for row in PSI[g]]
            col = forced_column(psi)
            per_phase.append((
                hook_equation(col, psi),
                [col[i] * col[j].conj() for i, j in idx4]
                + [psi[j][m] * psi[i][k].conj() for i, j, k, m in idx2],
            ))
        pairs.append(per_phase)
    left, right = ([(h1 and h2, [a + b for a, b in zip(s1, s2)])
                    for (h1, s1), (h2, s2) in product(*half)]
                   for half in (pairs[:2], pairs[2:]))
    wanted = Counter(tuple(sums) for hooks, sums in left if hooks)
    passing = sum(wanted[tuple(t - s for t, s in zip(target, sums))]
                  for hooks, sums in right if hooks)
    return {
        "assignments": 4 ** 4,
        "passing": passing,
        "identity_assignment_distance": repair_distance(),
    }
