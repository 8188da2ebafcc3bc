"""The eight-dimensional Kac-Paljutkin algebra and its graded-twist picture.

Two constructions of the same Hopf *-algebra are entered here from
closed-form tables and machine-verified against each other:

  * a direct model on C^4 + M_2(C), with the coproduct given blockwise;
  * a graded twist of the function algebra of an order-8 group of 2x2
    unitaries, presented on the basis dictated by the explicit dictionary
    between delta-function combinations and the direct model's basis.

Each builder takes what it builds on as arguments; a Build record holds one
run's structures, each built once.  A builder raises when a structure that
others build on fails (the direct model, the group, the crossed product,
the twist and its entered coproduct table, compared coefficient-exactly),
so a structure that comes back is a checked one.  Every further claim is
recorded, with a witness where it fails, in the one Report of its record.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from .corep import (Corep, FusionGraph, OneDimGroup, fusion_graph, hom_dim,
                    one_dim_group, tensor_corep, verify_corep)
from .cyclotomic import Cyc, HALF, IM, INV_SQRT2, ONE, ZERO
from .group_twist import (AxiomFailure, CentralGrading, ConjugationAction,
                          FiniteMatrixGroup, Mat2, SmashProduct,
                          conjugation_action, coset_basis, generate_group,
                          subalgebra_hopf)
from .hopf_core import (HopfAlgebra, Report, _diff_witness,
                        check_hopf_morphism, commutativity_flags,
                        solve_counit_antipode, verify_hopf_axioms)
from .linalg import exact_rank
from .multimatrix import (AlgElement, LinearMap, MultiMatrixAlgebra,
                          tensor_algebra)


class ModelMismatchError(Exception):
    """A transported structure disagrees with its entered table."""


# conjugating unitaries for the direct model's coproduct on the matrix block
U_ALPHA = Mat2([[ZERO, IM], [ONE, ZERO]])
U_BETA = Mat2([[ZERO, ONE], [IM, ZERO]])
U_GAMMA = Mat2([[-ONE, ZERO], [ZERO, ONE]])

# their counterparts in the twist presentation, and the base change between
W_ALPHAP = Mat2([[-ONE, ZERO], [ZERO, ONE]])
W_BETAP = Mat2([[ZERO, ONE], [IM, ZERO]])
W_GAMMAP = Mat2([[ZERO, -IM], [-ONE, ZERO]])
V_CONJ = Mat2([[-ONE, ZERO], [ZERO, IM]])

# generators of the order-8 unitary group and the order-2 conjugation
_IHALF = IM * INV_SQRT2
S1 = Mat2([[_IHALF, _IHALF], [_IHALF, -_IHALF]])
S2 = Mat2([[-_IHALF, _IHALF], [_IHALF, _IHALF]])
S3 = Mat2([[ZERO, -ONE], [ONE, ZERO]])
U_ACT = Mat2([[IM, ZERO], [ZERO, -IM]])

# scalar sector of the coproduct: dual to the Klein four-group in the basis
# order (counital, a, b, ab)
_K4_PAIRS = (
    ((0, 0), (1, 1), (2, 2), (3, 3)),
    ((0, 1), (1, 0), (2, 3), (3, 2)),
    ((0, 2), (2, 0), (1, 3), (3, 1)),
    ((0, 3), (3, 0), (1, 2), (2, 1)),
)

# matrix-sector summands, each a tuple (i, j, k, l, c) standing for the term
# (c/2) e_ij tensor e_kl
_ALL_PLUS = ((0, 0, 0, 0, ONE), (0, 1, 0, 1, ONE),
             (1, 0, 1, 0, ONE), (1, 1, 1, 1, ONE))
_DIAG_SIGN = ((0, 0, 0, 0, ONE), (0, 1, 0, 1, -ONE),
              (1, 0, 1, 0, -ONE), (1, 1, 1, 1, ONE))
_CROSS_PLUS_I = ((0, 0, 1, 1, ONE), (0, 1, 1, 0, IM),
                 (1, 0, 0, 1, -IM), (1, 1, 0, 0, ONE))
_CROSS_MINUS_I = ((0, 0, 1, 1, ONE), (0, 1, 1, 0, -IM),
                  (1, 0, 0, 1, IM), (1, 1, 0, 0, ONE))

_DIRECT_QUADS = (_ALL_PLUS, _CROSS_PLUS_I, _CROSS_MINUS_I, _DIAG_SIGN)
_TWIST_QUADS = (_DIAG_SIGN, _ALL_PLUS, _CROSS_PLUS_I, _CROSS_MINUS_I)
_DIRECT_CONJUGATORS = (U_ALPHA, U_BETA, U_GAMMA)
_TWIST_CONJUGATORS = (W_ALPHAP, W_BETAP, W_GAMMAP)


def conjugated_unit(alg: MultiMatrixAlgebra, m: Mat2, k: int,
                    l: int) -> AlgElement:
    """m e_kl m^* expanded in the 2x2 block (block 4) of alg."""
    out = alg.zero()
    for i in range(2):
        for j in range(2):
            c = m[i, k] * m[j, l].conj()
            if c:
                out = out + alg.basis_element(4, i, j).scale(c)
    return out


def _table_coproduct(alg: MultiMatrixAlgebra, quads, mats) -> LinearMap:
    """The entered coproduct for a (1,1,1,1,2) algebra.

    quads[r] is the matrix-sector part for scalar r; mats are the three
    unitaries conjugating the matrix block in the legs of the non-counital
    scalars.
    """
    ta = tensor_algebra(alg, alg)
    scal = [alg.basis_element(r, 0, 0) for r in range(4)]
    cols = []
    for r in range(4):
        acc = ta.zero()
        for s, t in _K4_PAIRS[r]:
            acc = acc + scal[s].tensor(scal[t])
        for i, j, k, l, c in quads[r]:
            acc = acc + (alg.basis_element(4, i, j)
                         .tensor(alg.basis_element(4, k, l))).scale(c * HALF)
        cols.append(acc.coords)
    # column order must follow the basis: scalars first, then row-major units
    for k in range(2):
        for l in range(2):
            x = alg.basis_element(4, k, l)
            acc = scal[0].tensor(x) + x.tensor(scal[0])
            for r, m in enumerate(mats, start=1):
                acc = acc + scal[r].tensor(conjugated_unit(alg, m, k, l))
                acc = acc + conjugated_unit(alg, m.conj_entries(), k, l).tensor(scal[r])
            cols.append(acc.coords)
    return LinearMap(alg, ta, cols)


class KPModel(NamedTuple):
    hopf: HopfAlgebra
    handles: dict[str, AlgElement]


def build_kp() -> KPModel:
    """The direct model on C^4 + M_2(C); raises if any axiom fails."""
    alg = MultiMatrixAlgebra((1, 1, 1, 1, 2),
                             labels=("eps", "alpha", "beta", "gamma", "m"))
    delta = _table_coproduct(alg, _DIRECT_QUADS, _DIRECT_CONJUGATORS)
    counit, antipode = solve_counit_antipode(alg, delta)
    hopf = HopfAlgebra(alg, delta, counit, antipode)
    report = verify_hopf_axioms(hopf)
    if not report.passed:
        raise AxiomFailure("direct eight-dimensional model", report)
    # the basis lists the four scalars, then the matrix units row by row
    handles = dict(zip(("eps", "alpha", "beta", "gamma",
                        "e11", "e12", "e21", "e22"), alg.basis()))
    return KPModel(hopf, handles)


class VtildeModel(NamedTuple):
    """The order-8 group with its action and grading; its function
    algebra is build_smash(vtilde).function_hopf."""
    group: FiniteMatrixGroup
    action: ConjugationAction
    grading: CentralGrading
    indices: dict[str, int]


def build_vtilde() -> VtildeModel:
    """The order-8 group of 2x2 unitaries with its grading and action.

    generate_group raises unless the named list is closed, and
    conjugation_action unless conjugating by U_ACT, which is multiplicative,
    permutes it and squares to one, so the report need not record four
    claims.  s1 s2 = s3 and s2 s1 = -s3 give -I = (s2 s1)(s1 s2)^-1, so s1
    and s2 generate all eight.  The action fixes the scalar -I, the grading;
    it sends -s2 -> s1 (it is involutive), so s2 = (-I)(-s2) -> -s1; and
    s1 -> -s2 != s1, so it has order two.
    """
    named = [("I", Mat2.identity()), ("-I", -Mat2.identity()),
             ("s1", S1), ("-s1", -S1), ("s2", S2), ("-s2", -S2),
             ("s3", S3), ("-s3", -S3)]
    # closed, the named list is its own breadth-first order
    group = generate_group([m for _, m in named], cap=len(named),
                           names=[n for n, _ in named])
    if group.elements != [m for _, m in named]:
        raise ModelMismatchError("named elements repeat, so names would shift")
    idx = {n: k for k, (n, _) in enumerate(named)}
    action = conjugation_action(group, U_ACT)
    grading = CentralGrading(group, idx["-I"])
    report = Report()
    report.record("s3_is_s1_s2", S1 * S2 == S3)
    report.record("s2_s1_is_minus_s3", S2 * S1 == -S3)
    report.record("action_sends_s1_to_minus_s2",
                  action.perm[idx["s1"]] == idx["-s2"])
    report.record("dense_entry_witness_s1",
                  all(S1[i, j] for i in range(2) for j in range(2)))
    if not report.passed:
        raise ModelMismatchError(f"group model fails {report.first_failure()}")
    return VtildeModel(group, action, grading, idx)


def build_smash(vtilde: VtildeModel) -> SmashProduct:
    """Crossed product of the function algebra by the order-2 action."""
    sm = SmashProduct(vtilde.action)
    if sorted(sm.hopf.algebra.block_sizes) != [1, 1, 1, 1, 2, 2, 2]:
        raise ModelMismatchError(
            f"crossed product has blocks {sm.hopf.algebra.block_sizes}, "
            "expected four lines and three 2x2 blocks")
    return sm


def build_coset_twist(smash: SmashProduct,
                      vtilde: VtildeModel) -> list[AlgElement]:
    """The twist's generic coset-block basis, as crossed-product elements."""
    return coset_basis(smash, vtilde.grading)[1]


class TwistModel(NamedTuple):
    hopf: HopfAlgebra
    handles: dict[str, AlgElement]
    dictionary: dict[str, AlgElement]
    vtilde: VtildeModel
    smash: SmashProduct
    report: Report
    # coordinates of a crossed-product element in the twist basis
    to_twist: Callable[[AlgElement], AlgElement]


def build_vtilde_twist(vtilde: VtildeModel, smash: SmashProduct,
                       coset: list[AlgElement]) -> TwistModel:
    """The graded twist on the dictionary basis, checked against the table.

    The dictionary sends each basis vector of the direct model's shape to a
    combination of delta-functions (times the adjoined order-2 group-like) in
    the crossed product.  The transported coproduct must reproduce the entered
    table coefficient for coefficient.

    Four claims hold for every input, so the report does not record them.
    The even functions delta_h + delta_-h (e11, e22, eps + alphap, betap +
    gammap) commute: subalgebra_hopf raises unless the inclusion is
    injective and multiplicative, and delta_a delta_b = [a = b] delta_a.
    The target is fixed, blocks (1, 1, 1, 1, 2) with its matrix units as
    handles, so it is noncommutative, e11 e21 == 0 and e21 e11 == e21.
    """
    dl = smash.delta_lambda
    ix = vtilde.indices

    def even(nm: str) -> AlgElement:
        return dl(ix[nm], 0) + dl(ix["-" + nm], 0)

    def odd_lam(nm: str) -> AlgElement:
        return dl(ix[nm], 1) - dl(ix["-" + nm], 1)

    dictionary = {
        "eps": (even("I") + odd_lam("I")).scale(HALF),
        "alphap": (even("I") - odd_lam("I")).scale(HALF),
        "betap": (even("s3") - odd_lam("s3").scale(IM)).scale(HALF),
        "gammap": (even("s3") + odd_lam("s3").scale(IM)).scale(HALF),
        "e11": even("s1"),
        "e12": -odd_lam("s1"),
        "e21": odd_lam("s2"),
        "e22": even("s2"),
    }
    order = ["eps", "alphap", "betap", "gammap", "e11", "e12", "e21", "e22"]
    target = MultiMatrixAlgebra((1, 1, 1, 1, 2),
                                labels=("eps", "alphap", "betap", "gammap", "m"))
    basis = [dictionary[n] for n in order]
    hopf, solver = subalgebra_hopf(smash.groupoid_hopf, basis, target)
    wit = _diff_witness(target, hopf.coproduct, _table_coproduct(
        target, _TWIST_QUADS, _TWIST_CONJUGATORS))
    if wit:
        raise ModelMismatchError(
            f"coproduct differs from the entered table: {wit}")

    handles = dict(zip(order, target.basis()))

    report = Report()
    # the corrected expansion of the coproduct on the odd part of the
    # noncentral self-paired coset (the sign pattern the twist forces)
    odd = {nm: solver(odd_lam(nm)) for nm in ("I", "s1", "s2", "s3")}
    want = (odd["I"].tensor(odd["s3"]) + odd["s3"].tensor(odd["I"])
            + odd["s1"].tensor(odd["s2"]) - odd["s2"].tensor(odd["s1"]))
    report.record("odd_coproduct_display", hopf.coproduct(odd["s3"]) == want,
                  "coproduct of odd(s3) is not the corrected expansion")

    # same subspace as the generic coset-block presentation: adding the
    # coset basis to the (independent) dictionary basis must not raise the rank
    rank = exact_rank([x.coords for x in basis + coset])
    report.record("matches_coset_presentation", rank == target.dim,
                  f"with the coset basis the rank is {rank}, not {target.dim}")

    report.record("noncocommutative", not commutativity_flags(hopf)[1],
                  "every coproduct column is flip-invariant")
    return TwistModel(hopf, handles, dictionary, vtilde, smash, report, solver)


class PhiResult(NamedTuple):
    map: LinearMap
    report: Report


def build_phi_and_verify(twist: TwistModel, kp: KPModel) -> PhiResult:
    """The base-change isomorphism from the twist onto the direct model.

    Scalars map by a cyclic permutation (counital fixed, the other three
    rotated); the matrix block is conjugated by the fixed 2x2 unitary.  The
    same unitary must also align the three coproduct conjugators.

    Both ends are verified, so phi preserves the counit and the antipode
    once it passes check_hopf_morphism (see there); both have dimension 8,
    so phi is injective when it is surjective, the one rank check.
    """
    kalg = kp.hopf.algebra
    images = [kp.handles["eps"], kp.handles["gamma"],
              kp.handles["alpha"], kp.handles["beta"]]
    for k in range(2):
        for l in range(2):
            images.append(conjugated_unit(kalg, V_CONJ, k, l))
    phi = LinearMap.from_images(twist.hopf.algebra, images)
    report = check_hopf_morphism(phi, twist.hopf, kp.hopf,
                                 kp.hopf.coproduct.compose(phi))
    rank = exact_rank(phi.cols)
    report.record("surjective", rank == kp.hopf.dim,
                  f"image has rank {rank}, source dimension "
                  f"{twist.hopf.dim}, target dimension {kp.hopf.dim}")
    vs = V_CONJ.star()
    aligned = (("alphap", W_ALPHAP, U_GAMMA), ("betap", W_BETAP, U_ALPHA),
               ("gammap", W_GAMMAP, U_BETA))
    for name, w, u in aligned:
        report.record(f"v_aligns_{name}_conjugator", V_CONJ * w * vs == u,
                      f"V W_{name} V* is not the direct model's conjugator")
    return PhiResult(phi, report)


class FundamentalResult(NamedTuple):
    uprime: Corep
    ukp: Corep
    report: Report
    word_ranks: list[tuple[int, int]]


def build_fundamental(twist: TwistModel, phi: PhiResult,
                      kp: KPModel) -> FundamentalResult:
    """The 2x2 corepresentation carried by the odd part of the twist.

    Entry (i, j) is the sum over the group of the (i, j) matrix entry times
    the corresponding delta-function, times the adjoined group-like.  The
    entries satisfy the q = -1 deformation relations of the 2x2 special
    unitary group and generate the twist as an algebra; transporting along
    the isomorphism gives the fundamental corepresentation of the direct
    model, ukp.  phi is a unital *-algebra map commuting with the coproducts
    and counits, so ukp is a unitary corepresentation as uprime is; it is
    verified where it is used, by one_dim_group.

    The SU_q(2) relations say that U = [[a, -q c^*], [c, a^*]] is unitary
    (Woronowicz, Twisted SU(2) group, Publ. RIMS 23, 1987).  So given
    d = a^* and b = c^*, the rest are entries of U^* U = 1 = U U^*, which
    verify_corep's unitary checks: (U^* U)_12 = 0 gives a c = -c a,
    (U U^*)_12 = 0 gives a c^* = -c^* a, the diagonals give
    a^* a + c^* c = 1 = a a^* + c c^*, and (U U^*)_11 = (U^* U)_22 gives
    c c^* = c^* c.
    """
    sm = twist.smash
    group = twist.vtilde.group
    zero = AlgElement(sm.groupoid_hopf.algebra, {})
    raw = [[zero, zero], [zero, zero]]
    for k, h in enumerate(group.elements):
        lam = sm.delta_lambda(k, 1)
        for i in range(2):
            for j in range(2):
                if h[i, j]:
                    raw[i][j] = raw[i][j] + lam.scale(h[i, j])
    entries = [[twist.to_twist(x) for x in row] for row in raw]
    uprime = Corep(twist.hopf, entries)
    report = verify_corep(uprime)

    a, b, c, d = entries[0][0], entries[0][1], entries[1][0], entries[1][1]
    unit = twist.hopf.algebra.unit()
    report.record("star_11_22", d == a.star())
    report.record("star_12_21", b == c.star())

    # algebra span of words in the entries, raising the length until the
    # rank stops growing
    ents = [a, b, c, d]
    words, vecs = [unit], [unit.coords]
    word_ranks = [(0, exact_rank(vecs))]
    for length in range(1, 9):
        words = [w * e for w in words for e in ents]
        vecs.extend(w.coords for w in words)
        word_ranks.append((length, rank := exact_rank(vecs)))
        if rank == word_ranks[-2][1]:
            break
    else:
        raise ModelMismatchError("word span did not stabilize by length 8")
    report.record("surjective", rank == twist.hopf.dim,
                  f"the words reach rank {rank}, not the dimension "
                  f"{twist.hopf.dim}")

    ukp = Corep(kp.hopf, [[phi.map(x) for x in row] for row in entries])
    (a, b), (c, d) = ukp.entries
    report.record("image_star_11_22", d == a.star())
    report.record("image_star_12_21", b == c.star())
    return FundamentalResult(uprime, ukp, report, word_ranks)


# rank-one projections decomposing the tensor square of the fundamental,
# entered as (denominator, integer matrix)
_P_TABLES = (
    (2, ((0, 0, 0, 0), (0, 1, 1, 0), (0, 1, 1, 0), (0, 0, 0, 0))),
    (4, ((1, 1, -1, 1), (1, 1, -1, 1), (-1, -1, 1, -1), (1, 1, -1, 1))),
    (2, ((1, 0, 0, -1), (0, 0, 0, 0), (0, 0, 0, 0), (-1, 0, 0, 1))),
    (4, ((1, -1, 1, 1), (-1, 1, -1, -1), (1, -1, 1, 1), (1, -1, 1, 1))),
)


class TensorSquareResult(NamedTuple):
    projections: list[list[list[Cyc]]]
    group: OneDimGroup
    printed: list[AlgElement]
    report: Report


def kp_tensor_square(kp: KPModel, fund: Corep) -> TensorSquareResult:
    """Decomposition of the fundamental's tensor square into four lines.

    The four entered projections must have trace one, and U (x) U must
    equal the sum of P_k (x) u_k with u_k the entered one-dimensional
    corepresentations.  The u_k and the fundamental are certified by
    one_dim_group as a complete list of irreducible unitary
    corepresentations (4 * 1**2 + 2**2 == 8), so the u_k are all the
    group-likes; it raises unless each u_k passes verify_corep
    (Delta g = g (x) g, eps(g) = 1, g g^* = g^* g = 1).

    The rest holds whenever one_dim_group returns, so it is not recorded.
    Distinct group-likes are linearly independent, so
    tensor_square_decomposes fixes each P_k, and for the unitary
    corepresentation W = U (x) U: Delta(W) gives P_k P_l = [k = l] P_k;
    eps(W) = 1 gives sum_k P_k = 1; S(w_rs) = w_sr^* and S(u_k) = u_k^*
    give P_k^* = P_k.  The u_k are all the group-likes, the unit among
    them, so they are the certified group; and with u_0 = 1 and
    u_k u_k = 1, u_1 u_3 is a group-like other than 1, u_1 and u_3: u_2.
    """
    hnd = kp.handles
    unit = kp.hopf.algebra.unit()
    diag = {(s1, s2): hnd["e11"].scale(Cyc.from_rational(s1))
            + hnd["e22"].scale(Cyc.from_rational(s2))
            for s1 in (1, -1) for s2 in (1, -1)}
    plus = hnd["eps"] + hnd["alpha"] + hnd["beta"] + hnd["gamma"]
    minus = hnd["eps"] - hnd["alpha"] - hnd["beta"] + hnd["gamma"]
    printed = [plus + diag[(1, 1)], minus + diag[(1, -1)],
               plus + diag[(-1, -1)], minus + diag[(-1, 1)]]

    projections = [[[Cyc.from_rational(Fraction(v, den)) for v in row]
                    for row in mat] for den, mat in _P_TABLES]
    report = Report()
    report.record("projections_rank_one", all(
        sum((p[i][i] for i in range(4)), ZERO) == ONE for p in projections))
    report.record("unit_is_first", printed[0] == unit)
    report.record("klein_squares", all(g * g == unit for g in printed))

    found = one_dim_group([Corep(kp.hopf, [[g]]) for g in printed] + [fund])

    def summed(r: int, s: int) -> AlgElement:
        out = kp.hopf.algebra.zero()
        for k in range(4):
            if projections[k][r][s]:
                out = out + printed[k].scale(projections[k][r][s])
        return out

    square = tensor_corep(fund, fund)
    bad = next(((r, s) for r in range(4) for s in range(4)
                if square.entries[r][s] != summed(r, s)), None)
    report.record("tensor_square_decomposes", bad is None,
                  f"entry {bad} of U (x) U is not sum_k P_k{bad} u_k")
    return TensorSquareResult(projections, found, printed, report)


def kp_fusion_graph(fund: Corep,
                    tensor_square: TensorSquareResult) -> FusionGraph:
    """Multiplicity graph of tensoring with the fundamental, over the
    vertices u1, u2, u3, u4 (the entered lines) and fund."""
    return fusion_graph(fund, tensor_square.group)


def star_shape_checks(graph: FusionGraph) -> Report:
    """The graph must be the four-leaf star.

    Completeness and irreducibility of its vertices are not checked: the
    graph is taken over one_dim_group's certified complete list.  Nor are
    its edge weights w_ij = m_ij d_j / d_i: that list has sizes 1, 1, 1, 1, 2
    (four lines and the fundamental, 4 * 1 + 2**2 == 8), so a star whose
    edges have multiplicity 1 has weights 2 inward and 1/2 outward.  Each
    check reads a whole row: fusion_graph takes a fund of any size, and a
    larger one than the fundamental can keep every star edge and add more.
    """
    m = graph.multiplicities
    report = Report()
    report.record("leaves_feed_center",
                  all(m[i] == [0, 0, 0, 0, 1] for i in range(4)))
    report.record("center_feeds_leaves", m[4] == [1, 1, 1, 1, 0])
    return report


def kp_fusion_rules(tensor_square: TensorSquareResult,
                    graph: FusionGraph) -> dict:
    """Fusion data of the direct model, for comparing against a fusion ring.

    Returns the table of the group one_dim_group certified (the unit, then
    the other entered lines in their order), and the multiplicities of the
    fundamental in its products with the lines and of everything in the
    fundamental's square; all but line (x) fund are read off the fusion
    graph, whose row x counts fund (x) x.
    """
    # the four lines and the fundamental, as one_dim_group certified them
    *lines, fund = tensor_square.group.irreps
    mult = graph.multiplicities
    return {
        "table": tensor_square.group.table,
        "fund_after_line": [hom_dim(fund, tensor_corep(x, fund))
                            for x in lines],
        "fund_before_line": [mult[i][4] for i in range(4)],
        "lines_in_square": [mult[4][i] for i in range(4)],
        "fund_in_square": mult[4][4],
    }


class Build:
    """One run's structures: each property calls its builder (looked up in
    this module when first read) on the properties it builds on, once."""

    kp = cached_property(lambda b: build_kp())
    vtilde = cached_property(lambda b: build_vtilde())
    smash = cached_property(lambda b: build_smash(b.vtilde))
    coset = cached_property(lambda b: build_coset_twist(b.smash, b.vtilde))
    twist = cached_property(lambda b: build_vtilde_twist(b.vtilde, b.smash, b.coset))
    phi = cached_property(lambda b: build_phi_and_verify(b.twist, b.kp))
    fundamental = cached_property(lambda b: build_fundamental(b.twist, b.phi, b.kp))
    tensor_square = cached_property(lambda b: kp_tensor_square(b.kp, b.fundamental.ukp))
    fusion_graph = cached_property(
        lambda b: kp_fusion_graph(b.fundamental.ukp, b.tensor_square))
    fusion_rules = cached_property(
        lambda b: kp_fusion_rules(b.tensor_square, b.fusion_graph))
