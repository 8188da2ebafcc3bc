"""Skeletal Tambara-Yamagami category over the Klein four-group.

The simples are the group elements 0..3 under xor plus one extra simple
RHO.  Every fusion space is at most one-dimensional, so an associator is a
table of scalar F-symbols in closed form, and the pentagon identity is
checked exactly as the F-move equations over every quadruple of simples.
Each scan reads the admissible F-symbols once, through the module global
F, and evaluates each distinct identity once; nothing that depends on the
scale or on F outlives the call.
The normalization scale tau must be a square root of 1/4 for the pentagon
to close; tau == 1 is kept around as a negative control, as is the
misreading that drops the bicharacter from the middle associator.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import NamedTuple

from ..cyclotomic import Cyc, ONE, ZERO, is_unitary
from ..report import Report

RHO = 4
GROUP = (0, 1, 2, 3)
SIMPLES = (0, 1, 2, 3, RHO)

def chi(x: int, y: int) -> Cyc:
    """The symmetric nondegenerate bicharacter (-1)**(x1 y1 + x2 y2)."""
    return -ONE if (x & y).bit_count() % 2 else ONE


def bicharacter_checks() -> Report:
    """chi is symmetric, bimultiplicative and nondegenerate; a failing
    check's witness is the first tuple of group elements that breaks it."""
    report = Report()
    bad = next(((x, y) for x, y in product(GROUP, repeat=2)
                if chi(x, y) != chi(y, x)), None)
    report.record("symmetric", bad is None,
                  f"chi(x, y) != chi(y, x) at (x, y) = {bad}")
    bad = next(((x, y, z) for x, y, z in product(GROUP, repeat=3)
                if chi(x ^ y, z) != chi(x, z) * chi(y, z)), None)
    report.record("bimultiplicative", bad is None, "chi(x ^ y, z) != "
                  f"chi(x, z) chi(y, z) at (x, y, z) = {bad}")
    bad = next((x for x in GROUP if x
                and all(chi(x, y) == ONE for y in GROUP)), None)
    report.record("nondegenerate", bad is None,
                  f"chi(x, y) == 1 for every y at x = {bad}")
    return report


def fuse(s: int, t: int) -> list[int]:
    """Ordered decomposition of the product of two simples."""
    if s == RHO and t == RHO:
        return list(GROUP)
    if s == RHO or t == RHO:
        return [RHO]
    return [s ^ t]


# fuse() as a table, the one piece of the scans fixed across calls
_FUSE = tuple(tuple(tuple(fuse(s, t)) for t in SIMPLES) for s in SIMPLES)


def F(x: int, y: int, z: int, u: int, v: int, t: int, tau: Cyc,
      literal_middle: bool = False) -> Cyc:
    """F-symbol: the coefficient of the associator from (x y -> u) z -> t
    to x (y z -> v) -> t.

    Every label is a simple and every fusion channel is admissible.
    literal_middle replaces the bicharacter twist on (rho, g, rho) by one,
    the misreading used as a negative control.
    """
    if y == RHO and x != RHO and z != RHO:
        return chi(x, z)
    if x == RHO and z == RHO:
        if y == RHO:
            return tau * chi(u, v)
        return ONE if literal_middle else chi(y, t)
    return ONE


def _f_table(tau: Cyc, literal_middle: bool) -> tuple[dict, list[Cyc]]:
    """Every admissible F-symbol, read once through the module global F:
    the labels (x, y, z, u, v, t) mapped to an index into the list of the
    distinct values."""
    index: dict[Cyc, int] = {}
    table = {}
    for x, y, z in product(SIMPLES, repeat=3):
        for u in _FUSE[x][y]:
            for v in _FUSE[y][z]:
                for t in _FUSE[u][z]:
                    if t in _FUSE[x][v]:
                        value = F(x, y, z, u, v, t, tau, literal_middle)
                        table[x, y, z, u, v, t] = index.setdefault(
                            value, len(index))
    return table, list(index)


def _pentagon_identities(f: dict, w: int, x: int, y: int, z: int):
    """The F-move pentagon on ((w x -> a) y -> b) z -> t, read off at the
    target w (x (y z -> c) -> d) -> t: one identity per (a, b, t, c, d),
    as the value indices of its two-move product (None when a c cannot
    reach t) and of each term of its three-move sum over e."""
    for a in _FUSE[w][x]:
        for b in _FUSE[a][y]:
            for t in _FUSE[b][z]:
                for c in _FUSE[y][z]:
                    for d in _FUSE[x][c]:
                        if t not in _FUSE[w][d]:
                            continue
                        two = ((f[a, y, z, b, c, t], f[w, x, c, a, d, t])
                               if t in _FUSE[a][c] else None)
                        yield two, tuple(
                            (f[w, x, y, a, e, b], f[w, e, z, b, d, t],
                             f[x, y, z, e, c, d])
                            for e in _FUSE[x][y]
                            if b in _FUSE[w][e] and d in _FUSE[e][z])


class PentagonReport(NamedTuple):
    quadruples: int
    failures: list[tuple[int, int, int, int]]

    @property
    def holds(self) -> bool:
        return not self.failures


def pentagon_report(tau: Cyc, literal_middle: bool = False,
                    max_failures: int = 3) -> PentagonReport:
    """Check the pentagon identity over all quadruples of simples; each
    distinct identity of value indices is evaluated once, in Q(z)."""
    f, values = _f_table(tau, literal_middle)
    verdicts: dict[tuple, bool] = {}

    def holds(identity: tuple) -> bool:
        if identity not in verdicts:
            two, three = identity
            lhs = values[two[0]] * values[two[1]] if two else ZERO
            rhs = sum((values[i] * values[j] * values[k]
                       for i, j, k in three), ZERO)
            verdicts[identity] = lhs == rhs
        return verdicts[identity]

    failures: list[tuple[int, int, int, int]] = []
    count = 0
    for quadruple in product(SIMPLES, repeat=4):
        count += 1
        if not all(map(holds, _pentagon_identities(f, *quadruple))):
            failures.append(quadruple)
            if len(failures) >= max_failures:
                break
    return PentagonReport(count, failures)


def associator_unitarity(tau: Cyc) -> tuple[bool, tuple | None]:
    """Every simple associator must be unitary (the big block needs the
    right tau: it is one quarter of a real Hadamard pattern).  An associator
    preserves the total t, so it is unitary when each u x v block is; each
    distinct block of value indices is tested once per call."""
    f, values = _f_table(tau, False)
    verdicts: dict[tuple, bool] = {}
    for x, y, z, t in product(SIMPLES, repeat=4):
        block = tuple(tuple(f[x, y, z, u, v, t] for u in _FUSE[x][y]
                            if t in _FUSE[u][z])
                      for v in _FUSE[y][z] if t in _FUSE[x][v])
        if block not in verdicts:
            verdicts[block] = is_unitary([[values[i] for i in row]
                                          for row in block])
        if not verdicts[block]:
            return False, (x, y, z)
    return True, None


def fusion_ring_match(rules: dict) -> Report:
    """Match entered fusion data against this category's ring.

    rules holds the group table of the four invertibles plus the
    multiplicities of the two-dimensional simple in its products, as
    produced by the model layer.  A match is a bijection of the
    invertibles onto the group fixing the unit and turning the table into
    xor; every permutation of the three nontrivial elements should work,
    and the first that does not is the witness.
    """
    table = rules["table"]
    bad = next(((sigma, i, j)
                for sigma in ((0,) + p for p in permutations((1, 2, 3)))
                for i, j in product(range(4), repeat=2)
                if sigma[table[i][j]] != sigma[i] ^ sigma[j]), None)
    report = Report()
    report.record("relabelings_give_xor", bad is None, "sigma[table[i][j]] "
                  f"!= sigma[i] ^ sigma[j] at (sigma, i, j) = {bad}")
    after, before = rules["fund_after_line"], rules["fund_before_line"]
    report.record("big_absorbs_invertibles", after == before == [1, 1, 1, 1],
                  f"fund_after_line {after}, fund_before_line {before}")
    lines, fund = rules["lines_in_square"], rules["fund_in_square"]
    report.record("square_sums_invertibles",
                  lines == [1, 1, 1, 1] and fund == 0,
                  f"lines_in_square {lines}, fund_in_square {fund}")
    return report

