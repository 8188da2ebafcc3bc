"""Skeletal Tambara-Yamagami category over the Klein four-group.

Objects are ordered lists of simples: the group elements 0..3 under xor plus
one extra simple RHO.  Associators come from closed-form tables, and the
pentagon identity is checked exactly over every quadruple of simples.  The
normalization scale tau must be a square root of 1/4 for the pentagon to
close; tau == 1 is kept around as a negative control, as is the misreading
that drops the bicharacter from the middle associator.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from ..cyclotomic import Cyc, HALF, ONE, ZERO, is_unitary, mat_mul

RHO = 4
GROUP = (0, 1, 2, 3)
SIMPLES = (0, 1, 2, 3, RHO)

Matrix = list[list[Cyc]]


def chi(x: int, y: int) -> Cyc:
    """The symmetric nondegenerate bicharacter (-1)**(x1 y1 + x2 y2)."""
    return -ONE if (x & y).bit_count() % 2 else ONE


def bicharacter_checks() -> dict[str, bool]:
    return {
        "symmetric": all(chi(x, y) == chi(y, x)
                         for x in GROUP for y in GROUP),
        "bimultiplicative": all(chi(x ^ y, z) == chi(x, z) * chi(y, z)
                                for x in GROUP for y in GROUP for z in GROUP),
        "nondegenerate": all(any(chi(x, y) != ONE for y in GROUP)
                             for x in GROUP if x),
    }


def fuse(s: int, t: int) -> list[int]:
    """Ordered decomposition of the product of two simples."""
    if s == RHO and t == RHO:
        return list(GROUP)
    if s == RHO or t == RHO:
        return [RHO]
    return [s ^ t]


def tensor_obj(xs: list[int], ys: list[int]) -> list[int]:
    out: list[int] = []
    for x in xs:
        for y in ys:
            out.extend(fuse(x, y))
    return out


def assoc_simple(x: int, y: int, z: int, tau: Cyc,
                 literal_middle: bool = False) -> Matrix:
    """Associator on a triple of simples, (x y) z -> x (y z).

    Columns enumerate the source summands in (p, q) order: p over the
    decomposition of x y, then q over the decomposition of the result with
    z.  Rows enumerate the target in (q', p') order.  literal_middle
    replaces the bicharacter twist on (rho, g, rho) by the identity, the
    misreading used as a negative control.
    """
    rho = [s == RHO for s in (x, y, z)]
    if rho == [False, True, False]:
        return [[chi(x, z)]]
    if rho == [True, False, True]:
        if literal_middle:
            return [[ONE if k == l else ZERO for k in GROUP] for l in GROUP]
        return [[chi(y, k) if k == l else ZERO for k in GROUP] for l in GROUP]
    if rho == [False, True, True]:
        m = [[ZERO] * 4 for _ in range(4)]
        for q in GROUP:
            m[x ^ q][q] = ONE
        return m
    if rho == [True, True, False]:
        m = [[ZERO] * 4 for _ in range(4)]
        for p in GROUP:
            m[p ^ z][p] = ONE
        return m
    if rho == [True, True, True]:
        return [[tau * chi(k, l) for k in GROUP] for l in GROUP]
    # all remaining patterns have a one-dimensional source
    return [[ONE]]


def assoc(xs: list[int], ys: list[int], zs: list[int], tau: Cyc,
          literal_middle: bool = False) -> Matrix:
    """Associator (xs ys) zs -> xs (ys zs) on ordered sums of simples.

    The map splits as a direct sum over triples of summand indices; each
    piece is the simple associator, placed at the positions the two
    flattening orders assign to that triple.
    """
    lhs_pos: dict[tuple[int, int, int, int, int], int] = {}
    pos = 0
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            for p, v in enumerate(fuse(x, y)):
                for k, z in enumerate(zs):
                    for q in range(len(fuse(v, z))):
                        lhs_pos[(i, j, k, p, q)] = pos
                        pos += 1
    total = pos
    rhs_pos: dict[tuple[int, int, int, int, int], int] = {}
    pos = 0
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            for k, z in enumerate(zs):
                for qp, u in enumerate(fuse(y, z)):
                    for pp in range(len(fuse(x, u))):
                        rhs_pos[(i, j, k, qp, pp)] = pos
                        pos += 1
    m: Matrix = [[ZERO] * total for _ in range(total)]
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            for k, z in enumerate(zs):
                block = assoc_simple(x, y, z, tau, literal_middle)
                cols = [(p, q) for p, v in enumerate(fuse(x, y))
                        for q in range(len(fuse(v, z)))]
                rows = [(qp, pp) for qp, u in enumerate(fuse(y, z))
                        for pp in range(len(fuse(x, u)))]
                for r, (qp, pp) in enumerate(rows):
                    for c, (p, q) in enumerate(cols):
                        if block[r][c]:
                            m[rhs_pos[(i, j, k, qp, pp)]][
                                lhs_pos[(i, j, k, p, q)]] = block[r][c]
    return m


def tensor_mor_id(f: Matrix, a: list[int], b: list[int],
                  zs: list[int]) -> Matrix:
    """f (x) identity, as a matrix from a (x) zs to b (x) zs."""

    def positions(obj: list[int]) -> tuple[dict, int]:
        out: dict[tuple[int, int, int], int] = {}
        pos = 0
        for p, s in enumerate(obj):
            for k, z in enumerate(zs):
                for q in range(len(fuse(s, z))):
                    out[(p, k, q)] = pos
                    pos += 1
        return out, pos

    dom, ncols = positions(a)
    cod, nrows = positions(b)
    m: Matrix = [[ZERO] * ncols for _ in range(nrows)]
    for (p, k, q), c in dom.items():
        for pb, s in enumerate(b):
            # morphism components join equal simples, where the fusion
            # expansions agree position by position
            if s == a[p] and f[pb][p]:
                m[cod[(pb, k, q)]][c] = f[pb][p]
    return m


def id_tensor_mor(ws: list[int], f: Matrix, a: list[int],
                  b: list[int]) -> Matrix:
    """identity (x) f, as a matrix from ws (x) a to ws (x) b."""

    def positions(obj: list[int]) -> tuple[dict, int]:
        out: dict[tuple[int, int, int], int] = {}
        pos = 0
        for i, w in enumerate(ws):
            for p, s in enumerate(obj):
                for q in range(len(fuse(w, s))):
                    out[(i, p, q)] = pos
                    pos += 1
        return out, pos

    dom, ncols = positions(a)
    cod, nrows = positions(b)
    m: Matrix = [[ZERO] * ncols for _ in range(nrows)]
    for (i, p, q), c in dom.items():
        for pb, s in enumerate(b):
            if s == a[p] and f[pb][p]:
                m[cod[(i, pb, q)]][c] = f[pb][p]
    return m


def _pentagon_at(w: int, x: int, y: int, z: int, tau: Cyc,
                 literal_middle: bool) -> bool:
    s = fuse(w, x)
    mid = fuse(x, y)
    l = fuse(y, z)
    one_step = mat_mul(assoc([w], [x], l, tau, literal_middle),
                        assoc(s, [y], [z], tau, literal_middle))
    f1 = tensor_mor_id(assoc([w], [x], [y], tau, literal_middle),
                       tensor_obj(s, [y]), tensor_obj([w], mid), [z])
    f2 = assoc([w], mid, [z], tau, literal_middle)
    f3 = id_tensor_mor([w], assoc([x], [y], [z], tau, literal_middle),
                       tensor_obj(mid, [z]), tensor_obj([x], l))
    return one_step == mat_mul(f3, mat_mul(f2, f1))


@dataclass
class PentagonReport:
    tau: Cyc
    literal_middle: bool
    quadruples: int
    failures: list[tuple[int, int, int, int]]

    @property
    def holds(self) -> bool:
        return not self.failures


def pentagon_report(tau: Cyc, literal_middle: bool = False,
                    max_failures: int = 3) -> PentagonReport:
    """Check the pentagon identity over all quadruples of simples."""
    failures: list[tuple[int, int, int, int]] = []
    count = 0
    for w in SIMPLES:
        for x in SIMPLES:
            for y in SIMPLES:
                for z in SIMPLES:
                    count += 1
                    if not _pentagon_at(w, x, y, z, tau, literal_middle):
                        failures.append((w, x, y, z))
                        if len(failures) >= max_failures:
                            return PentagonReport(tau, literal_middle,
                                                  count, failures)
    return PentagonReport(tau, literal_middle, count, failures)


def associator_unitarity(tau: Cyc) -> tuple[bool, tuple | None]:
    """Every simple associator must be unitary (the big block needs the
    right tau: it is one quarter of a real Hadamard pattern)."""
    for x in SIMPLES:
        for y in SIMPLES:
            for z in SIMPLES:
                if not is_unitary(assoc_simple(x, y, z, tau)):
                    return False, (x, y, z)
    return True, None


def fusion_ring_match(rules: dict) -> dict:
    """Match entered fusion data against this category's ring.

    rules holds the group table of the four invertibles plus the
    multiplicities of the two-dimensional simple in its products, as
    produced by the model layer.  A match is a bijection of the
    invertibles onto the group fixing the unit and turning the table into
    xor; every relabeling of the three nontrivial elements should work.
    """
    table = rules["table"]
    found = []
    for perm in permutations((1, 2, 3)):
        sigma = (0,) + perm
        if all(sigma[table[i][j]] == sigma[i] ^ sigma[j]
               for i in range(4) for j in range(4)):
            found.append(perm)
    facts = {
        "big_absorbs_invertibles": (rules["fund_after_line"] == [1, 1, 1, 1]
                                    and rules["fund_before_line"] == [1, 1, 1, 1]),
        "square_sums_invertibles": (rules["lines_in_square"] == [1, 1, 1, 1]
                                    and rules["fund_in_square"] == 0),
    }
    return {
        "bijections": len(found),
        "facts": facts,
        "matches": bool(found) and all(facts.values()),
    }


TAU = HALF
