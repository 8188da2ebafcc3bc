"""Matrix groups, function algebras, crossed products, graded twists."""

import gc
import json
import random
import sys
import weakref
from fractions import Fraction

import pytest

from hopfcheck.cyclotomic import IM, INV_SQRT2, ONE, ZERO, ZETA
from hopfcheck.group_twist import (ActionError, AxiomFailure, CentralGrading,
                                   ConjugationAction,
                                   FiniteMatrixGroup, GradedTwist,
                                   GradingError, GroupClosureError, Mat2,
                                   SmashProduct, SubalgebraError,
                                   block_basis, conjugation_action, coset_basis,
                                   function_basis, generate_group,
                                   subalgebra_hopf, twist_from_model_dict)
from hopfcheck import hopf_core, linalg, models, multimatrix
from hopfcheck.hopf_core import (HopfAlgebra, solve_counit_antipode,
                                 verify_hopf_axioms)
from hopfcheck.linalg import exact_rank
from hopfcheck.models import (S1, S2, S3, U_ACT, build_smash, build_vtilde,
                              build_vtilde_twist)
from hopfcheck.multimatrix import AlgElement, LinearMap, MultiMatrixAlgebra

I2 = Mat2([[ONE, ZERO], [ZERO, ONE]])
ROT = Mat2([[ZERO, -ONE], [ONE, ZERO]])
REFL = Mat2([[ONE, ZERO], [ZERO, -ONE]])


def test_mat2_basics():
    assert S1 * S1 == -I2
    assert S3 == S1 * S2
    assert S1.star() * S1 == I2
    assert S1.is_unitary() and U_ACT.is_unitary()
    assert Mat2.from_strings(S2.to_strings()) == S2
    assert (-S3)[(0, 1)] == ONE


def test_generate_group():
    g = generate_group([S1, S2], cap=16)
    assert g.order == 8
    assert g.inverse[g.index[S1]] == g.index[-S1]
    with pytest.raises(GroupClosureError):
        generate_group([S1, S2], cap=3)


def test_infinite_order_generator_is_rejected():
    # a rational rotation of infinite order fails before the closure loop
    rot = Mat2([[Fraction(3, 5), Fraction(-4, 5)],
                [Fraction(4, 5), Fraction(3, 5)]])
    assert rot.is_unitary()
    with pytest.raises(GroupClosureError, match="has infinite order"):
        generate_group([rot], cap=2000)


def test_group_closure_is_bounded():
    # two finite-order reflections generating an infinite dihedral group
    r1 = Mat2([[ONE, ZERO], [ZERO, -ONE]])
    r2 = Mat2([[Fraction(3, 5), Fraction(4, 5)],
               [Fraction(4, 5), Fraction(-3, 5)]])
    assert r1.is_unitary() and r2.is_unitary()
    with pytest.raises(GroupClosureError, match="480"):
        generate_group([r1, r2], cap=2000)


def test_group_table_is_a_latin_square():
    g = build_vtilde().group
    n = g.order
    for i in range(n):
        assert sorted(g.table[i]) == list(range(n))
        assert sorted(g.table[j][i] for j in range(n)) == list(range(n))


def test_conjugation_action_rejections():
    g = build_vtilde().group
    with pytest.raises(ActionError):
        conjugation_action(g, Mat2([[ZETA, ZERO], [ZERO, ONE]]))
    # the 45-degree rotation stabilizes the group but squares to an inner
    # non-identity automorphism
    with pytest.raises(ActionError):
        conjugation_action(
            g, Mat2([[INV_SQRT2, -INV_SQRT2], [INV_SQRT2, INV_SQRT2]]))


def test_hand_made_action_is_checked_when_built():
    vt = build_vtilde()
    g, ix = vt.group, vt.indices
    swap = list(range(g.order))
    swap[ix["s1"]], swap[ix["I"]] = ix["I"], ix["s1"]
    with pytest.raises(ActionError, match="not an automorphism"):
        ConjugationAction(g, U_ACT, swap)
    cycle = list(range(g.order))
    a, b, c = ix["s1"], ix["s2"], ix["s3"]
    cycle[a], cycle[b], cycle[c] = b, c, a
    with pytest.raises(ActionError, match="not an involution"):
        ConjugationAction(g, U_ACT, cycle)
    with pytest.raises(ActionError, match="not a permutation"):
        ConjugationAction(g, U_ACT, list(range(g.order - 1)))


def test_function_algebra_is_pointwise():
    alg = build_smash().function_hopf.algebra
    n = build_vtilde().group.order
    delta = [alg.basis_element(k, 0, 0) for k in range(n)]
    for k in range(min(n, 3)):
        for l in range(n):
            assert delta[k] * delta[l] == (delta[k] if k == l else alg.zero())
    total = delta[0]
    for k in range(1, n):
        total = total + delta[k]
    assert total == alg.unit()


def test_smash_product_structure():
    vt = build_vtilde()
    sm = SmashProduct(vt.action)
    assert sorted(sm.hopf.algebra.block_sizes) == [1, 1, 1, 1, 2, 2, 2]
    assert verify_hopf_axioms(sm.groupoid_hopf).passed
    # the verified structure is the groupoid algebra on delta_h lam^k, whose
    # product is not the commutative one of sixteen 1x1 blocks
    dlam = sm.groupoid_hopf.algebra
    assert dlam != MultiMatrixAlgebra((1,) * 16)
    assert MultiMatrixAlgebra((1,) * 16) != dlam
    assert [dlam.basis_name(i) for i in (0, 1, 5)] == ["dI", "dI*lam",
                                                       "ds1*lam"]
    s1, s1_lam = 2 * vt.indices["s1"], 2 * vt.indices["s1"] + 1
    assert dlam.mul_basis(s1_lam, s1) is None
    assert dlam.mul_basis(s1_lam, 2 * vt.indices["-s2"]) == s1_lam
    n = vt.group.order
    unit = dlam.unit()
    lam = sm.delta_lambda(0, 1)
    for k in range(1, n):
        lam = lam + sm.delta_lambda(k, 1)
    assert lam * lam == unit
    assert lam.star() == lam
    # lam f lam == theta(f) on delta functions
    k = vt.indices["s1"]
    moved = vt.action.perm[k]
    assert moved == vt.indices["-s2"]
    assert lam * sm.delta_lambda(k, 0) * lam == sm.delta_lambda(moved, 0)
    # delta lam elements hash by their algebra and coordinates
    assert len({lam, lam * unit, unit, sm.delta_lambda(k, 0)}) == 3


def test_tables_of_a_crossed_product_go_with_it():
    # its tensor square, reverse index and product table are cached on the
    # groupoid algebra, so a process that builds many keeps none of them
    sm = SmashProduct(build_vtilde().action)
    unit = sm.groupoid_hopf.algebra.unit()
    assert unit * unit == unit and sm.hopf.algebra.dim == 16
    ref = weakref.ref(sm.groupoid_hopf.algebra)
    del sm, unit
    gc.collect()
    assert ref() is None


def test_central_grading():
    vt = build_vtilde()
    g = vt.group
    grading = CentralGrading(g, vt.indices["-I"])
    assert not grading.is_trivial
    assert grading.partner(vt.indices["s1"]) == vt.indices["-s1"]
    assert len(grading.cosets()) == 4
    with pytest.raises(GradingError):
        CentralGrading(g, vt.indices["s1"])


def test_noncentral_involution_is_rejected():
    d4 = generate_group([ROT, REFL], cap=16)
    assert d4.order == 8
    with pytest.raises(GradingError):
        CentralGrading(d4, d4.index[REFL])


def test_trivial_grading_gives_back_the_function_algebra():
    # the trivial grading's twist is C(G), restricted from its crossed
    # product like every other twist, and its solver refuses the lam part
    vt = build_vtilde()
    tw = GradedTwist(CentralGrading(vt.group, vt.group.identity_index),
                     vt.action)
    assert isinstance(tw.smash, SmashProduct)
    target, basis = function_basis(tw.smash)
    assert tw.hopf == subalgebra_hopf(tw.smash.groupoid_hopf, basis,
                                      target)[0]
    for h in range(vt.group.order):
        assert tw.to_twist(tw.smash.delta_lambda(h, 0)) == \
            tw.hopf.algebra.basis_element(h, 0, 0)
        with pytest.raises(SubalgebraError):
            tw.to_twist(tw.smash.delta_lambda(h, 1))
    fa = build_smash().function_hopf
    assert tw.hopf.algebra == fa.algebra
    for part in ("coproduct", "counit", "antipode"):
        assert getattr(tw.hopf, part).cols == getattr(fa, part).cols


def test_coset_twist_blocks_and_axioms():
    """The transport proves a twist's axioms through its inclusion, and
    verifies none of them itself; every twist the library transports must
    pass them all here: the dictionary-basis and coset-basis order-8 twists,
    the order-16 twist of <S1, S2, iI> and the sample model's."""
    vt = build_vtilde()
    tw = GradedTwist(vt.grading, vt.action)
    assert sorted(tw.hopf.algebra.block_sizes) == [1, 1, 1, 1, 2]
    group = generate_group([S1, S2, Mat2([[IM, ZERO], [ZERO, IM]])], cap=32)
    assert group.order == 16
    order16 = GradedTwist(CentralGrading(group, group.index[-I2]),
                          conjugation_action(group, U_ACT))
    assert sorted(order16.hopf.algebra.block_sizes) == [1] * 8 + [2, 2]
    for hopf in (build_vtilde_twist().hopf, tw.hopf, order16.hopf,
                 twist_from_model_dict(sample_model()).hopf):
        rep = verify_hopf_axioms(hopf)
        assert rep.passed, rep.first_failure()


def test_solver_rejects_elements_outside_the_twist():
    vt = build_vtilde()
    tw = GradedTwist(vt.grading, vt.action)
    stray = tw.smash.delta_lambda(0, 1)    # a lone delta lam is not graded
    with pytest.raises(SubalgebraError):
        tw.to_twist(stray)


def test_transport_rejects_a_non_coalgebra_and_a_dependent_basis():
    sm = build_smash()
    gh = sm.groupoid_hopf
    d_e = sm.delta_lambda(sm.action.group.identity_index, 0)
    target = MultiMatrixAlgebra((1, 1))
    # a *-subalgebra, but the coproduct of delta_e leaves its span
    with pytest.raises(SubalgebraError,
                       match="^inclusion fails comultiplicative: "):
        subalgebra_hopf(gh, [d_e, gh.algebra.unit() - d_e], target)
    with pytest.raises(SubalgebraError,
                       match="^chosen elements are not linearly independent$"):
        subalgebra_hopf(gh, [d_e, d_e], target)


def test_transport_rejects_elements_of_another_algebra():
    # the blocks and sixteen 1x1 blocks share dimension 16 with delta_h
    # lam^k; coordinates of one algebra read in another prove nothing
    sm = build_smash()
    blocks = sm.hopf.algebra
    lines = MultiMatrixAlgebra((1,) * 16)
    one = MultiMatrixAlgebra((1,))
    for ambient, unit in ((sm.hopf, lines.element(blocks.unit().coords)),
                          (sm.hopf, sm.groupoid_hopf.algebra.unit()),
                          (sm.groupoid_hopf, blocks.unit())):
        with pytest.raises(SubalgebraError, match="^chosen elements do not "
                                                  "lie in the ambient algebra$"):
            subalgebra_hopf(ambient, [unit], one)
    # the unit in its own algebra is a Hopf subalgebra
    hopf, _ = subalgebra_hopf(sm.hopf, [blocks.unit()], one)
    assert verify_hopf_axioms(hopf).passed


def test_coset_basis_mutants_are_rejected():
    """Seeded single-coefficient edits of the order-8 coset basis, of the
    crossed product's block basis and of C(G)'s function basis (+ 1, or
    zero <-> z) never pass the transport, and never crash it.  A block or
    function basis element is a single delta_h lam^k, which zero <-> z can
    make zero."""
    sm = build_smash()
    gh = sm.groupoid_hopf
    amb = gh.algebra
    for (target, basis), rejected in (
            (coset_basis(sm, build_vtilde().grading), "^inclusion fails "),
            (block_basis(sm), "^(inclusion fails |chosen elements are not "
                              "linearly independent$)"),
            (function_basis(sm), "^(inclusion fails |chosen elements are not "
                                 "linearly independent$)")):
        rng = random.Random(0)
        for _ in range(40):
            t, c = rng.randrange(len(basis)), rng.randrange(amb.dim)
            coords = dict(basis[t].coords)
            v = coords.get(c, ZERO)
            coords[c] = v + ONE if rng.randrange(2) else (ZERO if v else ZETA)
            edited = list(basis)
            edited[t] = AlgElement(amb, coords)
            with pytest.raises(SubalgebraError, match=rejected):
                subalgebra_hopf(gh, edited, target)


def sample_model() -> dict:
    with open("tests/data/sample_model.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_twist_from_model_dict():
    data = sample_model()
    tw = twist_from_model_dict(data)
    assert sorted(tw.hopf.algebra.block_sizes) == [1, 1, 1, 1, 2]
    assert verify_hopf_axioms(tw.hopf).passed
    with pytest.raises(ValueError):
        twist_from_model_dict({"generators": []})
    bad = dict(data)
    bad["central_element"] = Mat2([[ZETA, ZERO], [ZERO, ZETA]]).to_strings()
    with pytest.raises(GradingError):
        twist_from_model_dict(bad)


def test_duplicate_elements_are_rejected():
    g = generate_group([S1, S2], cap=16)
    assert len(set(g.names)) == g.order


def test_non_closed_elements_are_rejected():
    # S1 squares to -I, which is the third element
    with pytest.raises(GroupClosureError,
                       match="^group not closed within 2 elements$"):
        generate_group([I2, S1], cap=2)


IIM = Mat2([[IM, ZERO], [ZERO, IM]])
D48 = Mat2([[ZETA, ZERO], [ZERO, ZETA.conj()]])    # diag(z, z^7)


def product_table(g):
    """The reference table: every pair of elements multiplied as matrices."""
    return [[g.index[a * b] for b in g.elements] for a in g.elements]


@pytest.mark.parametrize("gens, order", [
    ([S1, S2], 8), ([S1, S2, IIM], 16), ([S1, S2, D48], 48),
], ids=["order-8", "order-16", "order-48"])
def test_closure_table_is_the_product_table(gens, order):
    g = generate_group(gens, cap=order)
    assert g.order == order
    assert g.table == product_table(g)
    assert g.elements[g.identity_index] == I2
    assert all(g.table[a][g.inverse[a]] == 0 for a in range(order))


def test_elements_are_the_identity_then_the_generators():
    g = generate_group([S2, I2, S1, S2, -I2], cap=8)
    assert g.elements[:4] == [I2, S2, S1, -I2]
    assert g.names[:4] == ["g0", "g1", "g2", "g3"]


def test_vtilde_names_follow_the_named_matrices():
    g = build_vtilde().group
    named = {"I": I2, "s1": S1, "s2": S2, "s3": S3}
    named.update({"-" + nm: -m for nm, m in named.items()})
    assert g.names == ["I", "-I", "s1", "-s1", "s2", "-s2", "s3", "-s3"]
    assert g.elements == [named[nm] for nm in g.names]
    assert g.table == product_table(g)


def test_seeded_generator_lists_give_the_same_group():
    # permuted, repeated generators with the identity inserted
    ref = generate_group([S1, S2, D48], cap=48)
    rng = random.Random(19)
    for _ in range(5):
        gens = [S1, S2, D48] + rng.choices([S1, S2, D48], k=2)
        rng.shuffle(gens)
        gens.insert(rng.randrange(len(gens) + 1), I2)
        g = generate_group(gens, cap=48)
        assert set(g.elements) == set(ref.elements)
        assert g.table == product_table(g)
        firsts = list(dict.fromkeys(m for m in gens if m != I2))
        assert g.elements[:4] == [I2] + firsts


@pytest.mark.parametrize("names", [["a"], [f"g{k}" for k in range(9)]])
def test_names_must_match_the_elements(names):
    # a short list once built an order-8 group that failed later, with an
    # IndexError in its function algebra
    with pytest.raises(ValueError, match=f"^{len(names)} names for 8 elements$"):
        generate_group([S1, S2], cap=8, names=names)


def test_latin_square_check_rejects_a_swapped_row():
    g = generate_group([S1, S2], cap=8)
    table = [list(r) for r in g.table]
    table[1][2], table[1][3] = table[1][3], table[1][2]
    with pytest.raises(GroupClosureError, match="not a Latin square"):
        FiniteMatrixGroup(g.elements, table, g.names)


@pytest.mark.parametrize("s3, error, match", [
    (IIM, GroupClosureError, "^group not closed within 8 elements$"),
    (S1, models.ModelMismatchError, "^named elements repeat"),
], ids=["not-closed", "repeated"])
def test_vtilde_rejects_a_wrong_named_list(monkeypatch, s3, error, match):
    # with iI for s3 the named list misses S1 S2; with S1 for s3 it lists
    # +-S1 twice, so its closure is not the named list in order
    monkeypatch.setattr(models, "S3", s3)
    with pytest.raises(error, match=match):
        build_vtilde.__wrapped__()


@pytest.mark.parametrize("build", [
    build_smash, lambda: twist_from_model_dict(sample_model()).smash,
], ids=["order-8", "sample-model"])
def test_closed_forms_are_the_solved_maps(build):
    sm = build()
    for hopf in (sm.function_hopf, sm.hopf):
        counit, antipode = solve_counit_antipode(hopf.algebra, hopf.coproduct)
        assert hopf.counit == counit
        assert hopf.antipode == antipode


def test_wrong_closed_form_antipode_is_caught(monkeypatch):
    h = build_smash().hopf
    alg = h.algebra
    n = alg.dim
    cols = list(h.antipode.cols)
    cols[0] = cols[1]
    ranks = []

    def spy(vecs):
        ranks.append(exact_rank(vecs))
        return ranks[-1]

    monkeypatch.setattr(hopf_core, "exact_rank", spy)
    rep = verify_hopf_axioms(HopfAlgebra(alg, h.coproduct, h.counit,
                                         LinearMap(alg, alg, cols)))
    assert not rep.checks["antipode_left"] and rep.witnesses["antipode_left"]
    # antipode_right follows from the checks before it, so it is not recorded
    assert "antipode_right" not in rep.checks
    # cancellation follows from the recorded checks, so no rank is taken;
    # the coproduct alone decides it, and both spans have full rank
    assert ranks == []
    ta = h.coproduct.target
    one = alg.unit()
    dcol = [ta.element(c) for c in h.coproduct.cols]
    for factor in (lambda b: b.tensor(one), lambda b: one.tensor(b)):
        vecs = [(factor(b) * dcol[q]).coords
                for b in alg.basis() for q in range(n)]
        assert exact_rank(vecs) == n * n
    # the failure a builder raises names the first failing check's witness
    assert str(AxiomFailure("crossed product", rep)) == (
        f"crossed product fails antipode_left: {rep.witnesses['antipode_left']}")


def _wrap_everywhere(monkeypatch, fn, wrapper):
    """Install wrapper wherever a hopfcheck module binds fn by name."""
    for name, mod in list(sys.modules.items()):
        if name == "hopfcheck" or name.startswith("hopfcheck."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)


def test_model_twist_builds_no_square_sized_objects(monkeypatch):
    """Building the sample model's twist solves for no counit or antipode,
    and its axiom checks build no map on the tensor square and rank no n^2
    vectors (n = 8 is the smallest structure verified).  The axioms are
    verified once, on the crossed product's groupoid basis; its blocks are
    never built, and its coproduct is composed with the twist's inclusion
    once."""
    calls = {"solve": 0, "tensor_map": 0}
    ranked: list[int] = []
    inside = [0]
    verified: list[HopfAlgebra] = []
    composed: list[tuple[LinearMap, LinearMap]] = []
    compose = LinearMap.compose

    def counting(key, fn, during_verify=False):
        def wrapper(*args, **kwargs):
            if not during_verify or inside[0]:
                calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def verify(h):
        verified.append(h)
        inside[0] += 1
        try:
            return verify_hopf_axioms(h)
        finally:
            inside[0] -= 1

    def rank(vectors):
        ranked.append(len(vectors))
        return exact_rank(vectors)

    def composing(f, g):
        composed.append((f, g))
        return compose(f, g)

    _wrap_everywhere(monkeypatch, solve_counit_antipode,
                     counting("solve", solve_counit_antipode))
    _wrap_everywhere(monkeypatch, verify_hopf_axioms, verify)
    _wrap_everywhere(monkeypatch, multimatrix.tensor_map,
                     counting("tensor_map", multimatrix.tensor_map, True))
    _wrap_everywhere(monkeypatch, linalg.exact_rank, rank)
    monkeypatch.setattr(LinearMap, "compose", composing)
    tw = twist_from_model_dict(sample_model())
    assert calls == {"solve": 0, "tensor_map": 0}
    assert all(k < 8 * 8 for k in ranked)
    gh = tw.smash.groupoid_hopf
    assert verified == [gh]
    assert "hopf" not in vars(tw.smash)
    assert [g.source for f, g in composed
            if f is gh.coproduct] == [tw.hopf.algebra]
