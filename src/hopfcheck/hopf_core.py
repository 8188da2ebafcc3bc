"""Hopf *-algebra verification on multimatrix algebras.

A Hopf structure is a coproduct, counit and antipode as linear maps; every
axiom is checked as an exact identity of sparse linear maps or of elements,
and failures carry witnesses.  The counit and antipode are never entered by
hand: they are solved for from the coproduct, or restricted from a verified
ambient structure (group_twist.subalgebra_hopf).  Either way
verify_hopf_axioms accepts only the unique ones the coproduct determines, so
a typo in a coproduct table cannot be papered over by a matching typo in the
antipode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

from .cyclotomic import Cyc, ONE, ZERO
from .linalg import LinAlgError, Vector, solve_unique, span_rank
from .multimatrix import (SCALARS, AlgElement, LinearMap, MultiMatrixAlgebra,
                          flip_map, mult_map, tensor_algebra, tensor_map,
                          tensor_split)


@dataclass(frozen=True)
class HopfAlgebra:
    algebra: MultiMatrixAlgebra
    coproduct: LinearMap          # A -> A tensor A
    counit: LinearMap             # A -> scalars
    antipode: LinearMap           # A -> A

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def counit_value(self, x: AlgElement) -> Cyc:
        return self.counit(x).coords.get(0, ZERO)


@dataclass
class Report:
    """Named exact checks, with a witness for each failing one.

    ranks and info are recorded for the reader; only checks decide passed.
    """
    checks: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, str] = field(default_factory=dict)
    ranks: dict[str, int] = field(default_factory=dict)
    info: dict[str, bool] = field(default_factory=dict)

    def record(self, name: str, ok: bool, witness: str = "") -> None:
        self.checks[name] = ok
        if not ok and witness:
            self.witnesses[name] = witness

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def solve_counit_antipode(alg: MultiMatrixAlgebra, coproduct: LinearMap,
                          ) -> tuple[LinearMap, LinearMap]:
    """Unique counit and antipode for the given coproduct.

    Raises NoSolution / NonUniqueSolution when the coproduct does not admit
    them, which is itself a useful verdict for a defective table.
    """
    n = alg.dim
    rev = tensor_split(alg)

    # counit: (eps tensor id) Delta == id gives, per source j and target q,
    # sum_p Delta_j[p, q] eps_p == delta_{jq}
    rows: list[Vector] = []
    rhs: list[Cyc] = []
    for j in range(n):
        eq: dict[int, Vector] = {}
        for tindex, v in coproduct.cols[j].items():
            p, q = rev[tindex]
            row = eq.setdefault(q, {})
            row[p] = row.get(p, ZERO) + v
        for q in range(n):
            rows.append(eq.get(q, {}))
            rhs.append(ONE if q == j else ZERO)
    eps = solve_unique(rows, rhs, n)
    counit = LinearMap(alg, SCALARS, [{0: c} if c else {} for c in eps])

    # antipode: m (S tensor id) Delta == unit . eps, unknown s[r, p] flattened
    # as r * n + p
    unit = alg.unit().coords
    rows = []
    rhs = []
    for j in range(n):
        eq = {}
        for tindex, v in coproduct.cols[j].items():
            p, q = rev[tindex]
            for r in range(n):
                t = alg.mul_basis(r, q)
                if t is None:
                    continue
                row = eq.setdefault(t, {})
                key = r * n + p
                row[key] = row.get(key, ZERO) + v
        ej = eps[j]
        for t in range(n):
            row = eq.get(t, {})
            b = ej * unit.get(t, ZERO) if ej else ZERO
            if not row and not b:
                continue
            rows.append(row)
            rhs.append(b)
    s = solve_unique(rows, rhs, n * n)
    cols: list[Vector] = [{} for _ in range(n)]
    for r in range(n):
        for p in range(n):
            v = s[r * n + p]
            if v:
                cols[p][r] = v
    antipode = LinearMap(alg, alg, cols)
    return counit, antipode


def _diff_witness(alg, f: LinearMap, g: LinearMap) -> str:
    for j, (a, b) in enumerate(zip(f.cols, g.cols)):
        if a != b:
            keys = sorted(set(a) | set(b), key=lambda k: (k not in a, k))
            k = next(k for k in keys if a.get(k, ZERO) != b.get(k, ZERO))
            return (f"images of {alg.basis_name(j)} differ: coefficient "
                    f"{a.get(k, ZERO)} vs {b.get(k, ZERO)} at "
                    f"{f.target.basis_name(k)}")
    return ""


def verify_hopf_axioms(h: HopfAlgebra) -> Report:
    alg = h.algebra
    n = alg.dim
    delta, counit, antipode = h.coproduct, h.counit, h.antipode
    ta, _ = tensor_algebra(alg, alg)
    rep = Report()
    record = rep.record
    ident = LinearMap.identity(alg)

    lhs = tensor_map(delta, ident).compose(delta)
    rhs = tensor_map(ident, delta).compose(delta)
    record("coassociative", lhs == rhs, _diff_witness(alg, lhs, rhs))

    left = tensor_map(counit, ident).compose(delta)
    right = tensor_map(ident, counit).compose(delta)
    record("counit_left", left == ident, _diff_witness(alg, left, ident))
    record("counit_right", right == ident, _diff_witness(alg, right, ident))

    m = mult_map(alg)
    eta_eps = LinearMap(alg, alg, [
        {t: c * u for t, u in alg.unit().coords.items()} if (c := h.counit_value(b)) else {}
        for b in alg.basis()])
    s_left = m.compose(tensor_map(antipode, ident)).compose(delta)
    s_right = m.compose(tensor_map(ident, antipode)).compose(delta)
    record("antipode_left", s_left == eta_eps, _diff_witness(alg, s_left, eta_eps))
    record("antipode_right", s_right == eta_eps, _diff_witness(alg, s_right, eta_eps))

    dcol = [AlgElement(ta, col) for col in delta.cols]

    def product_of_coproducts(p: int, q: int) -> AlgElement:
        r = alg.mul_basis(p, q)
        return dcol[r] if r is not None else ta.zero()

    wit = next((f"coproduct of {alg.basis_name(p)}*{alg.basis_name(q)} is "
                "not the product of coproducts"
                for p in range(n) for q in range(n)
                if dcol[p] * dcol[q] != product_of_coproducts(p, q)), "")
    record("coproduct_multiplicative", not wit, wit)

    one = alg.unit()
    record("coproduct_unital", delta(one) == one.tensor(one),
           "coproduct of the unit is not 1 tensor 1")

    wit = next((f"coproduct does not commute with * on {alg.basis_name(p)}"
                for p in range(n)
                if delta.cols[alg.star_index(p)]
                != AlgElement(ta, delta.cols[p]).star().coords), "")
    record("coproduct_star", not wit, wit)

    def counit_failures():
        if h.counit_value(one) != ONE:
            yield "counit of the unit is not 1"
        vals = [h.counit_value(b) for b in alg.basis()]
        for p in range(n):
            if vals[alg.star_index(p)] != vals[p].conj():
                yield f"counit not *-compatible at {alg.basis_name(p)}"
            for q in range(n):
                r = alg.mul_basis(p, q)
                want = vals[r] if r is not None else ZERO
                if vals[p] * vals[q] != want:
                    yield (f"counit not multiplicative at "
                           f"{alg.basis_name(p)}, {alg.basis_name(q)}")

    wit = next(counit_failures(), "")
    record("counit_character", not wit, wit)

    basis = alg.basis()
    left_vecs = [(basis[p].tensor(one) * dcol[q]).coords
                 for p in range(n) for q in range(n)]
    right_vecs = [(one.tensor(basis[p]) * dcol[q]).coords
                  for p in range(n) for q in range(n)]
    for side, vecs in (("left", left_vecs), ("right", right_vecs)):
        rank = rep.ranks[f"cancellation_{side}"] = span_rank(vecs, ta.dim)
        record(f"cancellation_{side}", rank == n * n,
               f"{side} cancellation span has rank {rank}, expected {n * n}")

    # recorded, not asserted: these hold for the models here but are not
    # part of the axiom gate
    rep.info["antipode_squared_identity"] = antipode.compose(antipode) == ident
    rep.info["antipode_star_involution"] = all(
        antipode(antipode(basis[p]).star()).star() == basis[p] for p in range(n))
    return rep


Requirement = Literal["hom", "surjective", "iso"]


def check_hopf_morphism(f: LinearMap, h1: HopfAlgebra, h2: HopfAlgebra,
                        require: Requirement = "hom") -> Report:
    """Check that f is a morphism of Hopf *-algebras, plus rank conditions."""
    if require not in ("hom", "surjective", "iso"):
        raise ValueError(f"unknown requirement {require!r}")
    a1, a2 = h1.algebra, h2.algebra
    if f.source != a1 or f.target != a2:
        raise ValueError("map endpoints do not match the Hopf algebras")
    rep = Report()
    n = a1.dim
    imgs = [AlgElement(a2, col) for col in f.cols]

    def image_of_product(p: int, q: int) -> AlgElement:
        r = a1.mul_basis(p, q)
        return imgs[r] if r is not None else a2.zero()

    wit = next((f"f({a1.basis_name(p)} * {a1.basis_name(q)}) != f(..) * f(..)"
                for p in range(n) for q in range(n)
                if imgs[p] * imgs[q] != image_of_product(p, q)), "")
    rep.record("multiplicative", not wit, wit)
    rep.record("unital", f(a1.unit()) == a2.unit())
    rep.record("star", all(
        f.cols[a1.star_index(p)] == imgs[p].star().coords for p in range(n)))

    lhs = tensor_map(f, f).compose(h1.coproduct)
    rhs = h2.coproduct.compose(f)
    rep.record("comultiplicative", lhs == rhs, _diff_witness(a1, lhs, rhs))
    rep.record("counit", h2.counit.compose(f) == h1.counit)

    rank = rep.ranks["image"] = span_rank([c for c in f.cols], a2.dim)
    if require in ("surjective", "iso"):
        rep.record("surjective", rank == a2.dim)
    if require == "iso":
        rep.record("injective", rank == n and n == a2.dim)

    rep.info["antipode_compatible"] = f.compose(h1.antipode) == h2.antipode.compose(f)
    return rep


def commutativity_flags(h: HopfAlgebra) -> tuple[bool, bool, dict[str, str]]:
    """(commutative, cocommutative) with witnesses for whichever fails."""
    alg = h.algebra
    witnesses: dict[str, str] = {}
    commutative = all(n == 1 for n in alg.block_sizes)
    if not commutative:
        b = next(k for k, n in enumerate(alg.block_sizes) if n > 1)
        x, y = alg.basis_element(b, 0, 1), alg.basis_element(b, 1, 0)
        witnesses["commutative"] = (
            f"{x.describe()} * {y.describe()} = {(x * y).describe()} but "
            f"{y.describe()} * {x.describe()} = {(y * x).describe()}")
    flip = flip_map(alg)
    flipped = flip.compose(h.coproduct)
    cocommutative = flipped == h.coproduct
    if not cocommutative:
        j = next(j for j in range(alg.dim)
                 if flipped.cols[j] != h.coproduct.cols[j])
        witnesses["cocommutative"] = (
            f"coproduct of {alg.basis_name(j)} is not flip-invariant")
    return commutative, cocommutative, witnesses


# serialization ---------------------------------------------------------------

def hopf_to_dict(h: HopfAlgebra) -> dict:
    return {
        "block_sizes": list(h.algebra.block_sizes),
        "labels": list(h.algebra.labels),
        "coproduct_matrix": [[v.to_strings() for v in row]
                             for row in h.coproduct.matrix()],
        "counit_matrix": [[v.to_strings() for v in row]
                          for row in h.counit.matrix()],
        "antipode_matrix": [[v.to_strings() for v in row]
                            for row in h.antipode.matrix()],
    }


def hopf_from_dict(data: dict) -> HopfAlgebra:
    """Load a stored structure, re-deriving its counit and antipode.

    The stored counit and antipode must equal the unique ones the stored
    coproduct determines; a mismatch raises ValueError naming the map.
    """
    alg = MultiMatrixAlgebra(data["block_sizes"], data.get("labels"))
    ta, _ = tensor_algebra(alg, alg)

    def read(key: str, target: MultiMatrixAlgebra) -> LinearMap:
        mat = [[Cyc.from_strings(cell) for cell in row] for row in data[key]]
        return LinearMap.from_matrix(alg, target, mat)

    coproduct = read("coproduct_matrix", ta)
    try:
        counit, antipode = solve_counit_antipode(alg, coproduct)
    except LinAlgError as exc:
        raise ValueError("stored coproduct admits no unique counit and "
                         "antipode") from exc
    for name, derived in (("counit", counit), ("antipode", antipode)):
        if read(f"{name}_matrix", derived.target) != derived:
            raise ValueError(f"stored {name} differs from the {name} the "
                             "coproduct determines")
    return HopfAlgebra(alg, coproduct, counit, antipode)
