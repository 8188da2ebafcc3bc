"""Corepresentations: verification, tensor products, intertwiners, fusion.

A corepresentation is a square matrix of algebra elements with
Delta(u_ij) == sum_k u_ik tensor u_kj.  Intertwiner spaces are computed as
exact nullspaces, so multiplicities in fusion rules are proved, not
floating-point guesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import Cyc, ONE, ZERO, ROOTS_OF_UNITY_8, cyc_sqrt
from .hopf_core import HopfAlgebra, Report
from .linalg import LinAlgError, Vector, exact_nullspace, solve_unique
from .multimatrix import AlgElement, MultiMatrixAlgebra


class UnsupportedProfile(Exception):
    pass


@dataclass
class Corep:
    hopf: HopfAlgebra
    entries: list[list[AlgElement]]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if any(len(r) != n for r in self.entries):
            raise ValueError("corepresentation matrix must be square")
        alg = self.hopf.algebra
        if any(x.parent != alg for r in self.entries for x in r):
            raise ValueError("entries must live in the Hopf algebra")

    @property
    def size(self) -> int:
        return len(self.entries)


def verify_corep(u: Corep) -> Report:
    h = u.hopf
    n = u.size
    alg = h.algebra
    e = u.entries
    rep = Report()
    pairs = [(i, j) for i in range(n) for j in range(n)]

    def tensor_sum(i: int, j: int) -> AlgElement:
        got = h.coproduct.target.zero()
        for k in range(n):
            got = got + e[i][k].tensor(e[k][j])
        return got

    wit = next((f"coproduct of entry ({i},{j}) is not sum_k u[{i}k] tensor u[k{j}]"
                for i, j in pairs if tensor_sum(i, j) != h.coproduct(e[i][j])), "")
    rep.record("comultiplicative", not wit, wit)

    wit = next((f"counit of entry ({i},{j}) is not {ONE if i == j else ZERO}"
                for i, j in pairs
                if h.counit_value(e[i][j]) != (ONE if i == j else ZERO)), "")
    rep.record("counit", not wit, wit)

    one, zero = alg.unit(), alg.zero()

    def unitary_at(i: int, j: int) -> bool:
        want = one if i == j else zero
        left = alg.zero()
        right = alg.zero()
        for k in range(n):
            left = left + e[i][k] * e[j][k].star()
            right = right + e[k][i].star() * e[k][j]
        return left == want and right == want

    wit = next((f"unitarity fails at entry ({i},{j})"
                for i, j in pairs if not unitary_at(i, j)), "")
    rep.record("unitary", not wit, wit)
    return rep


def tensor_corep(u: Corep, v: Corep) -> Corep:
    if u.hopf is not v.hopf and u.hopf.algebra != v.hopf.algebra:
        raise ValueError("tensor product needs coreps of the same Hopf algebra")
    n, m = u.size, v.size
    entries = [[u.entries[i][j] * v.entries[k][l]
                for j in range(n) for l in range(m)]
               for i in range(n) for k in range(m)]
    return Corep(u.hopf, entries)


def intertwiners(u: Corep, v: Corep) -> list[list[list[Cyc]]]:
    """Basis of {T : T u == v T}, as size(v) x size(u) scalar matrices."""
    nu, nv = u.size, v.size
    dim = u.hopf.dim
    rows: list[Vector] = []
    for i in range(nv):
        for j in range(nu):
            eq: dict[int, Vector] = {}
            for k in range(nu):
                for c, val in u.entries[k][j].coords.items():
                    row = eq.setdefault(c, {})
                    key = i * nu + k
                    row[key] = row.get(key, ZERO) + val
            for l in range(nv):
                for c, val in v.entries[i][l].coords.items():
                    row = eq.setdefault(c, {})
                    key = l * nu + j
                    row[key] = row.get(key, ZERO) - val
            rows.extend(r for r in eq.values() if r)
    basis = exact_nullspace(rows, nv * nu)
    out = []
    for vec in basis:
        t = [[ZERO] * nu for _ in range(nv)]
        for key, val in vec.items():
            t[key // nu][key % nu] = val
        out.append(t)
    return out


def hom_dim(u: Corep, v: Corep) -> int:
    return len(intertwiners(u, v))


@dataclass
class OneDimGroup:
    elements: list[AlgElement]
    table: list[list[int]]
    identity_index: int

    @property
    def order(self) -> int:
        return len(self.elements)


def _characters(table: list[list[int]], identity: int) -> list[list[Cyc]]:
    """All homomorphisms into the eighth roots of unity, by backtracking."""
    m = len(table)
    results: list[list[Cyc]] = []

    def propagate(chi: list[Cyc | None]) -> bool:
        changed = True
        while changed:
            changed = False
            for a in range(m):
                if chi[a] is None:
                    continue
                for b in range(m):
                    if chi[b] is None:
                        continue
                    c = table[a][b]
                    want = chi[a] * chi[b]
                    if chi[c] is None:
                        chi[c] = want
                        changed = True
                    elif chi[c] != want:
                        return False
        return True

    def search(chi: list[Cyc | None]) -> None:
        try:
            s = chi.index(None)
        except ValueError:
            results.append(list(chi))
            return
        for w in ROOTS_OF_UNITY_8:
            trial = list(chi)
            trial[s] = w
            if propagate(trial):
                search(trial)

    start: list[Cyc | None] = [None] * m
    start[identity] = ONE
    if propagate(start):
        search(start)
    return results


def _abelianization_order(table: list[list[int]], identity: int) -> int:
    """Order of G/[G,G], read off the multiplication table."""
    m = len(table)
    inv = [next(b for b in range(m) if table[a][b] == identity) for a in range(m)]
    comm = {identity}
    frontier = {table[table[a][b]][table[inv[a]][inv[b]]]
                for a in range(m) for b in range(m)}
    while frontier - comm:
        comm |= frontier
        frontier = {table[x][y] for x in comm for y in comm}
        frontier |= {inv[x] for x in comm}
    return m // len(comm)


def one_dim_group(h: HopfAlgebra) -> OneDimGroup:
    """The group of unitary group-like elements, for supported block profiles.

    Supported: a multimatrix algebra with all blocks 1x1, or with exactly
    one 2x2 block.  The coproduct restricted to the 1x1 sector must be dual
    to a finite group; candidate characters are taken with values in the
    eighth roots of unity, and the 2x2 component is forced by a linear
    system plus one quadratic scale.  Anything else raises
    UnsupportedProfile.
    """
    alg = h.algebra
    if not isinstance(alg, MultiMatrixAlgebra):
        raise UnsupportedProfile("the search reads block sizes, which only a "
                                 "multimatrix algebra has")
    ones = [b for b, n in enumerate(alg.block_sizes) if n == 1]
    twos = [b for b, n in enumerate(alg.block_sizes) if n == 2]
    if len(twos) > 1 or any(n > 2 for n in alg.block_sizes):
        raise UnsupportedProfile(
            f"block profile {alg.block_sizes} is out of scope for the search")
    oneidx = [alg.index(b, 0, 0) for b in ones]
    pos_of = {p: s for s, p in enumerate(oneidx)}

    # group law on 1x1 blocks: Delta(e_r) must restrict to sum of e_s x e_t
    # with coefficient one, each (s, t) claimed exactly once
    m = len(ones)
    table = [[-1] * m for _ in range(m)]
    for r, p_r in enumerate(oneidx):
        for c, v in h.coproduct.cols[p_r].items():
            p, q = divmod(c, alg.dim)
            s, t = pos_of.get(p), pos_of.get(q)
            if s is None or t is None:
                continue
            if v != ONE or table[s][t] != -1:
                raise UnsupportedProfile(
                    "coproduct on the 1x1 sector is not dual to a group")
            table[s][t] = r
    if any(-1 in row for row in table):
        raise UnsupportedProfile(
            "coproduct on the 1x1 sector is not dual to a group")
    ident = next(e for e in range(m)
                 if all(table[e][s] == s and table[s][e] == s for s in range(m)))

    chars = _characters(table, ident)
    if len(chars) != _abelianization_order(table, ident):
        raise UnsupportedProfile(
            "the 1x1 sector has characters of order above eight; out of scope")

    unit = alg.unit()
    found: list[AlgElement] = []
    for chi in chars:
        scalar_part = alg.element({p: chi[s] for s, p in enumerate(oneidx)})
        for g in _complete_group_like(h, scalar_part, twos):
            if (h.coproduct(g) == g.tensor(g) and h.counit_value(g) == ONE
                    and g * g.star() == unit and g.star() * g == unit
                    and g not in found):
                found.append(g)
    return _assemble_group(found, unit)


def _complete_group_like(h: HopfAlgebra, scalar_part: AlgElement,
                         twos: list[int]) -> list[AlgElement]:
    """Candidates g == scalar_part + Y with Delta(g) == g tensor g.

    The coordinates of that identity which are linear in Y pin Y up to one
    scale; a single quadratic coordinate then fixes the scale up to the two
    square roots.  Every candidate is re-verified exactly by the caller.
    """
    alg = h.algebra
    if not twos:
        return [scalar_part]
    bm = twos[0]
    munits = [alg.index(bm, i, j) for i in range(2) for j in range(2)]
    mpos = {p: k for k, p in enumerate(munits)}
    scal = scalar_part.coords

    dy: dict[int, Vector] = {}          # coordinate -> linear form in y
    for k, p in enumerate(munits):
        for c, v in h.coproduct.cols[p].items():
            row = dy.setdefault(c, {})
            row[k] = row.get(k, ZERO) + v
    dconst = h.coproduct(scalar_part).coords

    sys_rows: list[Vector] = []
    sys_rhs: list[Cyc] = []
    quad_coords: list[int] = []
    for c in sorted(set(dy) | set(dconst)):
        p, q = divmod(c, alg.dim)
        kp_, kq = mpos.get(p), mpos.get(q)
        if kp_ is not None and kq is not None:
            quad_coords.append(c)
            continue
        row = dict(dy.get(c, {}))
        # g tensor g at this coordinate: scal*scal (both scalar) or scal*y
        want = ZERO
        if kp_ is None and kq is None:
            want = scal.get(p, ZERO) * scal.get(q, ZERO)
        if kp_ is not None and q in scal:
            row[kp_] = row.get(kp_, ZERO) - scal[q]
        if kq is not None and p in scal:
            row[kq] = row.get(kq, ZERO) - scal[p]
        rhs = want - dconst.get(c, ZERO)
        if not row:
            if rhs:
                return []
            continue
        sys_rows.append(row)
        sys_rhs.append(rhs)

    null = exact_nullspace(sys_rows, 4)
    if any(sys_rhs):
        if null:
            raise UnsupportedProfile(
                "matrix part of a group-like is affine in the unknowns; "
                "profile out of scope")
        try:
            base = solve_unique(sys_rows, sys_rhs, 4)
        except LinAlgError:
            return []
        ys = [base]
    elif not null:
        ys = [[ZERO] * 4]
    elif len(null) > 1:
        raise UnsupportedProfile(
            "matrix part of a group-like is not determined up to scale; "
            "profile out of scope")
    else:
        y0 = [null[0].get(k, ZERO) for k in range(4)]
        # scale t from a coordinate quadratic in y:
        # t**2 (y0 x y0)|_c - t <linear form, y0> - const|_c == 0
        ys = []
        for c in quad_coords:
            p, q = divmod(c, alg.dim)
            quad = y0[mpos[p]] * y0[mpos[q]]
            if not quad:
                continue
            lin = dy.get(c, {})
            lincoef = ZERO
            for k in range(4):
                lincoef = lincoef + lin.get(k, ZERO) * y0[k]
            constc = dconst.get(c, ZERO)
            disc = lincoef * lincoef + Cyc.from_rational(4) * quad * constc
            for root in cyc_sqrt(disc):
                t = (lincoef + root) * (Cyc.from_rational(2) * quad).inv()
                y = [t * v for v in y0]
                if y not in ys:
                    ys.append(y)
            break
    out = []
    for y in ys:
        out.append(scalar_part + alg.element(
            {munits[k]: y[k] for k in range(4) if y[k]}))
    return out


def _assemble_group(found: list[AlgElement], unit: AlgElement) -> OneDimGroup:
    if unit not in found:
        raise UnsupportedProfile("the unit is not among the group-likes found")
    rest = [g for g in found if g != unit]
    rest.sort(key=lambda g: tuple(sorted((p, v.sort_key()) for p, v in g.coords.items())))
    elements = [unit] + rest
    table: list[list[int]] = []
    for a in elements:
        row = []
        for b in elements:
            p = a * b
            if p not in elements:
                raise UnsupportedProfile("group-likes are not closed under product")
            row.append(elements.index(p))
        table.append(row)
    return OneDimGroup(elements, table, 0)


@dataclass
class FusionGraph:
    labels: list[str]
    dims: list[int]
    multiplicities: list[list[int]]
    weights: list[list[Cyc]]
    complete: bool
    irreducible: bool


def fusion_graph(h: HopfAlgebra, fund: Corep, irreps: list[Corep],
                 labels: list[str]) -> FusionGraph:
    """Multiplicity graph of tensoring with fund, over the given irreps."""
    dims = [u.size for u in irreps]
    complete = sum(d * d for d in dims) == h.dim
    irreducible = all(
        hom_dim(u, v) == (1 if i == j else 0)
        for i, u in enumerate(irreps) for j, v in enumerate(irreps))
    mult = [[hom_dim(y, tensor_corep(fund, x)) for y in irreps] for x in irreps]
    for i, x in enumerate(irreps):
        total = sum(mult[i][j] * dims[j] for j in range(len(irreps)))
        if total != fund.size * x.size:
            raise ValueError("fusion multiplicities do not exhaust the tensor product")
    weights = [[Cyc.from_rational(Fraction(mult[i][j] * dims[j], dims[i]))
                for j in range(len(irreps))] for i in range(len(irreps))]
    return FusionGraph(labels, dims, mult, weights, complete, irreducible)
