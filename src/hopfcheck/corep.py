"""Corepresentations: verification, tensor products, intertwiners, fusion.

A corepresentation is a square matrix of algebra elements with
Delta(u_ij) == sum_k u_ik tensor u_kj.  Intertwiner spaces are computed as
exact nullspaces, so multiplicities in fusion rules are proved, not
floating-point guesses.  The group of group-likes is certified from a
complete list of irreducible unitary corepresentations (Peter-Weyl).
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import Cyc, ONE, ZERO
from .hopf_core import HopfAlgebra, Report
from .linalg import Vector, axpy, exact_nullspace, sum_terms
from .multimatrix import AlgElement


class Corep:
    def __init__(self, hopf: HopfAlgebra,
                 entries: list[list[AlgElement]]) -> None:
        n = len(entries)
        if any(len(r) != n for r in entries):
            raise ValueError("corepresentation matrix must be square")
        if any(x.parent != hopf.algebra for r in entries for x in r):
            raise ValueError("entries must live in the Hopf algebra")
        self.hopf, self.entries = hopf, entries

    @property
    def size(self) -> int:
        return len(self.entries)


def verify_corep(u: Corep) -> Report:
    """Check that u is a unitary corepresentation.  Over a verified Hopf
    algebra comultiplicative gives u = eps(u) u, so eps(u) = 1 for an
    invertible u; unitary proves u invertible but is checked after counit,
    so counit fails first on a u that is not invertible, such as [[0]]."""
    h = u.hopf
    n = u.size
    alg = h.algebra
    e = u.entries
    rep = Report()
    pairs = [(i, j) for i in range(n) for j in range(n)]

    def tensor_sum(i: int, j: int) -> Vector:
        # e_p (x) e_q sits at p * dim + q
        acc: Vector = {}
        for k in range(n):
            for p, x in e[i][k].coords.items():
                axpy(acc, x, e[k][j].coords, p * alg.dim)
        return acc

    wit = next((f"coproduct of entry ({i},{j}) is not sum_k u[{i}k] tensor u[k{j}]"
                for i, j in pairs
                if tensor_sum(i, j) != h.coproduct.apply_coords(e[i][j].coords)), "")
    rep.record("comultiplicative", not wit, wit)

    wit = next((f"counit of entry ({i},{j}) is not {ONE if i == j else ZERO}"
                for i, j in pairs
                if h.counit_value(e[i][j]) != (ONE if i == j else ZERO)), "")
    rep.record("counit", not wit, wit)

    unit, st = alg.unit().coords, [[x.star() for x in r] for r in e]

    def unitary_at(i: int, j: int) -> bool:
        left: Vector = {}
        right: Vector = {}
        for k in range(n):
            axpy(left, ONE, (e[i][k] * st[j][k]).coords)
            axpy(right, ONE, (st[k][i] * e[k][j]).coords)
        return left == right == (unit if i == j else {})

    wit = next((f"unitarity fails at entry ({i},{j})"
                for i, j in pairs if not unitary_at(i, j)), "")
    rep.record("unitary", not wit, wit)
    return rep


def _require_same_hopf(u: Corep, v: Corep, what: str) -> None:
    if u.hopf is not v.hopf and u.hopf != v.hopf:
        raise ValueError(f"{what} needs coreps of the same Hopf algebra")


def tensor_corep(u: Corep, v: Corep) -> Corep:
    _require_same_hopf(u, v, "a tensor product")
    n, m = u.size, v.size
    entries = [[u.entries[i][j] * v.entries[k][l]
                for j in range(n) for l in range(m)]
               for i in range(n) for k in range(m)]
    return Corep(u.hopf, entries)


def intertwiners(u: Corep, v: Corep) -> list[list[list[Cyc]]]:
    """Basis of {T : T u == v T}, as size(v) x size(u) scalar matrices."""
    _require_same_hopf(u, v, "an intertwiner space")
    nu, nv = u.size, v.size
    rows: list[Vector] = []
    for i in range(nv):
        for j in range(nu):
            # per coordinate c: (T u)_ij - (v T)_ij, unknown T[a, b] at a * nu + b
            eq: dict[int, list] = {}
            for k in range(nu):
                for c, val in u.entries[k][j].coords.items():
                    eq.setdefault(c, []).append((i * nu + k, val))
            for l in range(nv):
                for c, val in v.entries[i][l].coords.items():
                    eq.setdefault(c, []).append((l * nu + j, -val))
            rows.extend(r for t in eq.values() if (r := sum_terms(t)))
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


class OneDimGroup(NamedTuple):
    irreps: list[Corep]
    elements: list[AlgElement]
    table: list[list[int]]


def one_dim_group(irreps: list[Corep]) -> OneDimGroup:
    """The group of group-likes of a Hopf *-algebra h, certified from a
    complete list of irreducible unitary corepresentations of h.

    The list is accepted only when every member is a corepresentation of
    one h that passes verify_corep, hom_dim(irreps[i], irreps[j]) == (i == j)
    for members of equal size, and the squared sizes sum to dim h; otherwise
    ValueError names the condition that failed.  The group is the entries of
    the 1x1 members, the unit first, and table[a][b] is the index of a * b;
    irreps is the certified list itself, which fusion_graph takes.

    Proof (Peter-Weyl; Woronowicz, Compact matrix pseudogroups, 1987).  A
    unitary corepresentation is completely reducible, since the orthogonal
    complement of a subcorepresentation is again one, so End(u) == C makes u
    irreducible, and hom_dim makes members of equal size inequivalent.  The
    matrix coefficients of inequivalent irreducibles u_i span simple
    subcoalgebras C(u_i) of dimension size(u_i)**2 whose sum is direct, so
    the size condition gives h == (+)_i C(u_i).  A group-like g spans a
    simple subcoalgebra, which in that sum is one of the C(u_i), of
    dimension one; so g == c u_i for a scalar c, and Delta(g) == g (x) g
    forces c == 1.  The unit is a group-like, and so is each product of two.
    For unitary u and v, T -> T* maps Hom(u, v) onto Hom(v, u), so each
    pair is checked once.
    """
    if not irreps:
        raise ValueError("an empty list of corepresentations is not complete")
    for u in irreps:
        _require_same_hopf(irreps[0], u, "the group of group-likes")
    h = irreps[0].hopf
    total = sum(u.size * u.size for u in irreps)
    if total != h.dim:
        raise ValueError(f"the squared sizes sum to {total}, not to the "
                         f"dimension {h.dim}")
    for i, u in enumerate(irreps):
        rep = verify_corep(u)
        if not rep.passed:
            raise ValueError(f"member {i} is not a unitary corepresentation: "
                             f"{rep.first_failure()}")
    for i, u in enumerate(irreps):
        for j in range(i, len(irreps)):
            v = irreps[j]
            if u.size == v.size and (d := hom_dim(u, v)) != (i == j):
                raise ValueError(f"hom_dim of members {i} and {j} is {d}, "
                                 f"not {int(i == j)}")
    unit = h.algebra.unit()
    elements = [unit] + [u.entries[0][0] for u in irreps
                         if u.size == 1 and u.entries[0][0] != unit]
    table = [[elements.index(a * b) for b in elements] for a in elements]
    return OneDimGroup(irreps, elements, table)


class FusionGraph(NamedTuple):
    dims: list[int]
    multiplicities: list[list[int]]


def fusion_graph(fund: Corep, certified: OneDimGroup) -> FusionGraph:
    """Multiplicity graph of tensoring with fund, over the irreducibles
    that one_dim_group certified as a complete list, in its order, so
    completeness and irreducibility of the vertices need no flag."""
    irreps = certified.irreps
    dims = [u.size for u in irreps]
    mult = [[hom_dim(y, fx) for y in irreps]
            for fx in (tensor_corep(fund, x) for x in irreps)]
    for i, x in enumerate(irreps):
        total = sum(mult[i][j] * dims[j] for j in range(len(irreps)))
        if total != fund.size * x.size:
            raise ValueError("fusion multiplicities do not exhaust the tensor product")
    return FusionGraph(dims, mult)
