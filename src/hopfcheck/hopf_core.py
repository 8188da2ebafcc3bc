"""Hopf *-algebra verification on algebras given by a basis table.

The algebra is a multimatrix or a groupoid algebra (multimatrix), read only
through its basis table: a product of basis elements is one basis element
or zero, and star permutes the basis.  A Hopf structure is a coproduct,
counit and antipode as linear maps; every axiom is checked as an exact
identity of sparse vectors, summed by linalg.sum_terms, in integers when
all coefficients are, and failures carry witnesses.  The counit and antipode
are never entered by hand: they are solved for from the coproduct (entered
tables), written in closed form from the group table (the crossed product
of a function algebra by an order-2 action, group_twist), restricted from a
verified ambient structure (group_twist.subalgebra_hopf), or read from a
dump (hopf_from_dict).  Whatever the source, only the unique ones the
coproduct determines are accepted, since a bialgebra has at most one counit
and one antipode, so a typo in a coproduct table cannot be papered over by
a matching typo in the antipode.  verify_hopf_axioms checks them on every
structure but the restricted ones (a function algebra, a graded twist, a
crossed product's blocks): those are accepted when their inclusion into the
verified ambient is a *-bialgebra map, which holds their counit and
antipode to the ambient's (see group_twist.subalgebra_hopf).

The coproduct is checked multiplicative and a *-map, and a Hopf
*-morphism a unital *-algebra map, by the same two witness routines; the
other algebra laws of the coproduct and counit follow (verify_hopf_axioms).
A Report (hopfcheck.report) holds named checks and a witness for each
failing one.

A (x) A has e_p (x) e_q at index p * n + q, and A (x) A (x) A has
e_a (x) e_b (x) e_c at (a * n + b) * n + c (multimatrix.tensor_algebra), so
every law below keys its vectors by these indices and a witness names
them as <e_p>(x)<e_q>.  Only a dump (hopf_to_dict, hopf_from_dict) lists
the rows of A (x) A in another order, the Kronecker order of the blocks.
"""

from __future__ import annotations

from typing import NamedTuple

from .cyclotomic import Cyc, ONE, ZERO
from .linalg import Vector, solve_unique, sum_terms
from .multimatrix import (SCALARS, AlgElement, Algebra, LinearMap,
                          MultiMatrixAlgebra, partners, tensor_algebra,
                          tensor_compose)
from .report import Report


class HopfAlgebra(NamedTuple):
    algebra: Algebra
    coproduct: LinearMap          # A -> A tensor A
    counit: LinearMap             # A -> scalars
    antipode: LinearMap           # A -> A

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def counit_value(self, x: AlgElement) -> Cyc:
        return self.counit(x).coords.get(0, ZERO)


def solve_counit_antipode(alg: Algebra, coproduct: LinearMap,
                          ) -> tuple[LinearMap, LinearMap]:
    """Unique counit and antipode for the given coproduct.

    Raises NoSolution / NonUniqueSolution when the coproduct does not admit
    them, which is itself a useful verdict for a defective table.
    """
    n = alg.dim

    # counit: (eps tensor id) Delta == id gives, per source j and target q,
    # sum_p Delta_j[p, q] eps_p == delta_{jq}; a column holds each (p, q)
    # once, so each coefficient is one term
    rows: list[Vector] = []
    rhs: list[Cyc] = []
    for j in range(n):
        eq: dict[int, Vector] = {}
        for tindex, v in coproduct.cols[j].items():
            p, q = divmod(tindex, n)
            eq.setdefault(q, {})[p] = v
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
        terms: dict[int, list] = {}
        for tindex, v in coproduct.cols[j].items():
            p, q = divmod(tindex, n)
            for r in range(n):
                if (t := alg.mul_basis(r, q)) is not None:
                    terms.setdefault(t, []).append((r * n + p, v))
        ej = eps[j]
        for t in range(n):
            row = sum_terms(terms.get(t, ()))
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


def _column_witness(alg, j: int, a: Vector, b: Vector,
                    target: Algebra) -> str:
    """Witness for differing images a, b of basis vector j of alg: the first
    index of a, then of b, at which they differ, named in target."""
    keys = sorted(set(a) | set(b), key=lambda k: (k not in a, k))
    k = next(k for k in keys if a.get(k, ZERO) != b.get(k, ZERO))
    return (f"images of {alg.basis_name(j)} differ: coefficient "
            f"{a.get(k, ZERO)} vs {b.get(k, ZERO)} at "
            f"{target.basis_name(k)}")


def _diff_witness(alg, f: LinearMap, g: LinearMap) -> str:
    for j, (a, b) in enumerate(zip(f.cols, g.cols)):
        if a != b:
            return _column_witness(alg, j, a, b, f.target)
    return ""


def _conj(v):
    # an int coefficient is its own conjugate
    return v if type(v) is int else v.conj()


def _multiplicative_witness(alg, imgs: list[Vector], partners) -> str:
    """The first e_p, e_q of alg with f(e_p e_q) != f(e_p) f(e_q), for
    f: e_p -> imgs[p], as a witness, or "" when there is none.  In the
    target, partners[k] lists the (l, m) with e_k e_l = e_m."""
    n, mul = alg.dim, alg.mul_basis
    # reach[p]: the basis elements that f(e_p) multiplies to nonzero on
    # the right; f(e_p) f(e_q) = 0 unless f(e_q) meets it
    reach = [{l for k in x for l, _ in partners[k]} for x in imgs]

    def product_differs(p: int, q: int) -> bool:
        x, y, r = imgs[p], imgs[q], mul(p, q)
        want = imgs[r] if r is not None else {}
        if reach[p].isdisjoint(y):
            return bool(want)
        return want != sum_terms((m, v * w) for k, v in x.items()
                                 for l, m in partners[k] if (w := y.get(l)))

    return next((f"image of {alg.basis_name(p)} * {alg.basis_name(q)} is "
                 "not the product of images"
                 for p in range(n) for q in range(n)
                 if product_differs(p, q)), "")


def _star_witness(alg, imgs: list[Vector], star) -> str:
    """The first e_p of alg with f(e_p^*) != f(e_p)^*, for f: e_p ->
    imgs[p], as a witness, or "" when there is none; star(k) indexes e_k^*
    in the target."""
    return next((f"*-structure mismatch at {alg.basis_name(p)}"
                 for p in range(alg.dim)
                 if imgs[alg.star_index(p)]
                 != {star(k): _conj(v) for k, v in imgs[p].items()}), "")


def verify_hopf_axioms(h: HopfAlgebra) -> Report:
    """Check every Hopf *-algebra axiom of h exactly, with witnesses.

    Only the algebra's basis table is read (dim, mul_basis, star_index,
    unit and basis_name).  The coalgebra, counit and antipode laws are
    checked one basis column at a time from the (p, q) terms of the
    coproduct, keyed by their own indices in the tensor square and cube, so
    no map on them is built; a witness names the first failing column in
    the basis of the composite's target (A (x) A (x) A, k (x) A, A (x) k or
    A), which is built only then.  Then Delta is checked multiplicative
    and a *-map, products in A (x) A taken factorwise through mul_basis.

    Five laws follow from the checks that come before them, so no
    structure could fail one of them first; A is associative and unital,
    as every basis table the library builds is.
    - antipode_right, m(id (x) S)Delta = eta eps: coassociative and the
      counit laws make End(A), under f * g = m(f (x) g)Delta, an associative
      finite-dimensional algebra with unit eta eps; antipode_left says
      S * id = eta eps, and there a one-sided inverse is two-sided
      (Larson and Sweedler, below).
    - coproduct_unital, Delta(1) = 1 (x) 1: the Galois map T(x (x) y) =
      (x (x) 1) Delta(y) is onto, as R(x (x) y) = x S(y1) (x) y2 has
      TR(x (x) y) = x S(y1) y2 (x) y3 = x (x) y by coassociative,
      antipode_left and counit_left.  T(w) = T(w) Delta(1) by
      coproduct_multiplicative, so w = w Delta(1) for all w: take
      w = 1 (x) 1.  So a weak bialgebra with Delta(1) != 1 (x) 1 (Boehm,
      Nill and Szlachanyi, J. Algebra 221, 1999) fails by antipode_left
      at the latest.
    - counit_multiplicative, eps(xy) = eps(x) eps(y): the same argument in
      the dual algebra A*, with product (f (x) g)Delta and unit eps
      (coassociative, the counit laws), coproduct m^T, counit f -> f(1) and
      antipode S^T, whose laws hold as A is associative and unital, by
      antipode_left and by coproduct_multiplicative; m^T(eps) = eps (x) eps
      is the law.
    - counit_unital, eps(1) = 1: apply eps (x) id to Delta(1) = 1 (x) 1,
      then counit_left.
    - counit_star, eps(x^*) = conj(eps(x)): by coproduct_star, x ->
      conj(eps(x^*)) is again a two-sided counit, and a counit is unique.
    Cancellation, that the Galois maps a (x) b -> (a (x) 1) Delta(b) and
    b (x) a -> (1 (x) a) Delta(b) are bijective, follows too: R inverts
    the left map by the coalgebra and both antipode laws, and b (x) a ->
    b1 (x) a S^-1(b2) the right map, where S^-1 = *S* by the coproduct's
    algebra laws (Schauenburg, Hopf-Galois and bi-Galois extensions, 2004;
    in finite dimension S is bijective anyway, Larson and Sweedler, Amer.
    J. Math. 91, 1969).

    When every coefficient of Delta, eps, S and the unit is a rational
    integer (C(G), a crossed product's groupoid basis), the same laws run
    on ints: exact, since Z is a subring of Q(z), and an int compares and
    prints like the equal Cyc, so checks and witnesses do not change.
    """
    alg = h.algebra
    n = alg.dim
    mul, star = alg.mul_basis, alg.star_index
    unit = alg.unit().coords
    coeffs = {ZERO, ONE, *unit.values(),
              *(v for f in (h.coproduct, h.counit, h.antipode)
                for col in f.cols for v in col.values())}
    ints = {v: int(v.coords[0]) for v in coeffs
            if v.is_rational() and v.coords[0].denominator == 1}
    num = ints.__getitem__ if len(ints) == len(coeffs) else (lambda v: v)
    # terms[j]: Delta(e_j) as (p, q, coefficient of e_p (x) e_q)
    terms = [[(*divmod(t, n), num(v)) for t, v in col.items()]
             for col in h.coproduct.cols]
    eps = [num(col.get(0, ZERO)) for col in h.counit.cols]
    scols = [{r: num(v) for r, v in col.items()} for col in h.antipode.cols]
    unit = {u: num(c) for u, c in unit.items()}
    one = num(ONE)
    rep = Report()
    record = rep.record

    def law(name, image, want, target=lambda: alg):
        """Record image(j) == want(j) for every basis vector e_j; a witness
        names the first failing column in the algebra target() builds."""
        for j in range(n):
            got, exp = image(j), want(j)
            if got != exp:
                record(name, False,
                       _column_witness(alg, j, got, exp, target()))
                return
        record(name, True)

    law("coassociative",
        lambda j: sum_terms(((a * n + b) * n + q, v * w)
                            for p, q, v in terms[j] for a, b, w in terms[p]),
        lambda j: sum_terms(((p * n + a) * n + b, v * w)
                            for p, q, v in terms[j] for a, b, w in terms[q]),
        lambda: tensor_algebra(tensor_algebra(alg, alg), alg))

    # k (x) A and A (x) k have the indices of A
    ident = [{j: one} for j in range(n)]
    law("counit_left",
        lambda j: sum_terms((q, v * eps[p]) for p, q, v in terms[j] if eps[p]),
        ident.__getitem__, lambda: tensor_algebra(SCALARS, alg))
    law("counit_right",
        lambda j: sum_terms((p, v * eps[q]) for p, q, v in terms[j] if eps[q]),
        ident.__getitem__, lambda: tensor_algebra(alg, SCALARS))

    eta_eps = [{t: eps[j] * u for t, u in unit.items()} if eps[j] else {}
               for j in range(n)]
    law("antipode_left",
        lambda j: sum_terms((t, v * s) for p, q, v in terms[j]
                            for r, s in scols[p].items()
                            if (t := mul(r, q)) is not None),
        eta_eps.__getitem__)

    # Delta is multiplicative and a *-map
    part = partners(alg)
    dimgs = [{a * n + b: v for a, b, v in col} for col in terms]
    tpart = {k: [(c * n + d, r * n + s) for c, r in part[k // n]
                 for d, s in part[k % n]] for col in dimgs for k in col}
    wit = _multiplicative_witness(alg, dimgs, tpart)
    record("coproduct_multiplicative", not wit, wit)
    wit = _star_witness(alg, dimgs, lambda k: star(k // n) * n + star(k % n))
    record("coproduct_star", not wit, wit)
    return rep


def check_hopf_morphism(f: LinearMap, h1: HopfAlgebra, h2: HopfAlgebra,
                        delta_f: LinearMap) -> Report:
    """Check that f: h1 -> h2 is a morphism of Hopf *-algebras, given
    delta_f = Delta_2 f, which group_twist.subalgebra_hopf has built
    already for its coproduct.

    Records multiplicative, unital, star and comultiplicative,
    (f (x) f) Delta_1 = delta_f; a failing check's witness names a basis
    element of h1.  That f preserves the counit and the antipode follows
    when both ends are Hopf algebras, as for both callers (phi's ends are
    verified, and a transport is a Hopf algebra once its inclusion passes
    these four).  chi = eps_2 f is a character, and (chi (x) chi) Delta_1 =
    (eps_2 (x) eps_2) Delta_2 f = chi; a character is invertible under
    convolution (by chi S_1), so chi = eps_1.  Under f * g = m_2 (f (x) g)
    Delta_1, with unit eta_2 eps_1, f * f S_1 = f eta_1 eps_1 = eta_2 eps_1
    and S_2 f * f = m_2 (S_2 (x) id) Delta_2 f = eta_2 chi = eta_2 eps_1:
    f S_1 and S_2 f are a right and a left inverse of f, so equal.
    """
    a1, a2 = h1.algebra, h2.algebra
    if f.source != a1 or f.target != a2:
        raise ValueError("map endpoints do not match the Hopf algebras")
    rep = Report()
    wit = _multiplicative_witness(a1, f.cols, partners(a2))
    rep.record("multiplicative", not wit, wit)
    rep.record("unital", f.apply_coords(a1.unit().coords) == a2.unit().coords,
               "image of the unit is not the unit")
    wit = _star_witness(a1, f.cols, a2.star_index)
    rep.record("star", not wit, wit)
    wit = _diff_witness(a1, tensor_compose(f, f, h1.coproduct), delta_f)
    rep.record("comultiplicative", not wit, wit)
    return rep


def commutativity_flags(h: HopfAlgebra) -> tuple[bool, bool, dict[str, str]]:
    """(commutative, cocommutative) with witnesses for whichever fails,
    read from the basis table and the flip e_p (x) e_q -> e_q (x) e_p."""
    alg = h.algebra
    n, mul, name = alg.dim, alg.mul_basis, alg.basis_name
    witnesses: dict[str, str] = {}

    def product(p: int, q: int) -> str:
        r = mul(p, q)
        return "0" if r is None else name(r)

    pair = next(((p, q) for p in range(n) for q in range(p + 1, n)
                 if mul(p, q) != mul(q, p)), None)
    if pair is not None:
        p, q = pair
        witnesses["commutative"] = (
            f"{name(p)} * {name(q)} = {product(p, q)} but "
            f"{name(q)} * {name(p)} = {product(q, p)}")
    j = next((j for j, col in enumerate(h.coproduct.cols)
              if {t % n * n + t // n: v for t, v in col.items()} != col), None)
    if j is not None:
        witnesses["cocommutative"] = (
            f"coproduct of {name(j)} is not flip-invariant")
    return pair is None, j is None, witnesses


# serialization ---------------------------------------------------------------

def _dump_order(alg: MultiMatrixAlgebra) -> list[int]:
    """The index p * dim + q of the e_p (x) e_q on each coproduct row of a
    dump, which lists A (x) A in the Kronecker order of its blocks: blocks
    (b1, b2) in lex order, each of size n1 * n2 and row-major, with row
    (i1, i2) at i1 * n2 + i2 and column (j1, j2) at j1 * n2 + j2."""
    index, dim = alg.index, alg.dim
    return [index(b1, i1, j1) * dim + index(b2, i2, j2)
            for b1, n1 in enumerate(alg.block_sizes)
            for b2, n2 in enumerate(alg.block_sizes)
            for i1 in range(n1) for i2 in range(n2)
            for j1 in range(n1) for j2 in range(n2)]


def hopf_to_dict(h: HopfAlgebra) -> dict:
    """The dump of a structure on a multimatrix algebra: its block sizes,
    labels and the dense matrices of its maps, the coproduct's rows in the
    order of _dump_order.  A structure on a groupoid algebra has no block
    sizes, and raises TypeError (smash exports the crossed product's blocks).
    """
    if not isinstance(h.algebra, MultiMatrixAlgebra):
        raise TypeError("a dump needs a multimatrix algebra; smash exports "
                        "the crossed product's block structure")
    coproduct = h.coproduct.matrix()
    return {
        "block_sizes": list(h.algebra.block_sizes),
        "labels": list(h.algebra.labels),
        "coproduct_matrix": [[v.to_strings() for v in coproduct[t]]
                             for t in _dump_order(h.algebra)],
        "counit_matrix": [[v.to_strings() for v in row]
                          for row in h.counit.matrix()],
        "antipode_matrix": [[v.to_strings() for v in row]
                            for row in h.antipode.matrix()],
    }


def hopf_from_dict(data: dict) -> HopfAlgebra:
    """Load a stored structure and verify it.

    The dump is read in full before anything is built, so it gets work
    bounded by its own size: block sizes must be ints >= 1, labels (when
    present) one str per block, and each matrix must have the shape the
    block sizes fix, with a list of four coordinate strings in every cell.
    The coproduct's rows are read in the order of _dump_order, the
    Kronecker order of the blocks of A (x) A; nowhere else is that order
    used.  The stored maps must then pass verify_hopf_axioms, which holds
    only for the unique counit and antipode of the stored coproduct.
    Anything else raises ValueError, naming the malformed field or the
    first failing check, so a returned structure is a verified one.
    """
    try:
        sizes, labels = data["block_sizes"], data.get("labels")
        # bool is an int subclass, and int() would truncate 2.5
        if any(type(n) is not int or n < 1 for n in sizes):
            raise ValueError(f"block sizes must be positive integers, not "
                             f"{sizes!r:.40}")
        if labels is not None and (
                type(labels) is not list or len(labels) != len(sizes)
                or any(type(label) is not str for label in labels)):
            raise ValueError(f"labels must be one string per block, not "
                             f"{labels!r:.40}")
        dim = sum(n * n for n in sizes)
        mats = []
        for key, rows in (("coproduct_matrix", dim * dim),
                          ("counit_matrix", 1), ("antipode_matrix", dim)):
            mat = data[key]
            if len(mat) != rows or any(len(row) != dim for row in mat):
                raise ValueError(f"{key} is not {rows} x {dim}")
            mats.append([[Cyc.from_strings(cell) for cell in row]
                         for row in mat])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed dump: {exc!r}") from exc
    alg = MultiMatrixAlgebra(sizes, labels)
    ta = tensor_algebra(alg, alg)
    coproduct = mats[0][:]
    for row, t in zip(mats[0], _dump_order(alg)):
        coproduct[t] = row
    mats[0] = coproduct
    h = HopfAlgebra(alg, *(LinearMap.from_matrix(alg, target, mat)
                           for target, mat in zip((ta, SCALARS, alg), mats)))
    report = verify_hopf_axioms(h)
    if not report.passed:
        raise ValueError(f"stored structure fails {report.first_failure()}")
    return h
