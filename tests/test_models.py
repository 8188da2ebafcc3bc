"""The two eight-dimensional models, their isomorphism, and their fusion."""

import pytest

from hopfcheck.cyclotomic import IM, INV_SQRT2, ONE, ZERO
from hopfcheck import models
from hopfcheck.group_twist import Mat2
from hopfcheck.hopf_core import HopfAlgebra, check_hopf_morphism, \
    commutativity_flags, verify_hopf_axioms
from hopfcheck.models import (build_fundamental, build_kp,
                              build_phi_and_verify, build_smash,
                              build_vtilde, build_vtilde_twist,
                              kp_fusion_graph, kp_fusion_rules,
                              kp_tensor_square, star_shape_checks)
from hopfcheck.multimatrix import LinearMap, MultiMatrixAlgebra, tensor_map
from test_hopf_core import cancellation_ranks
from test_multimatrix import decompose

IHALF = IM * INV_SQRT2


def test_kp_shape_and_axioms():
    kp = build_kp()
    assert kp.hopf.algebra.block_sizes == (1, 1, 1, 1, 2)
    assert verify_hopf_axioms(kp.hopf).passed
    assert cancellation_ranks(kp.hopf) == (64, 64)
    # S S = id and *S*S = id hold here, though no axiom asks for them
    s = kp.hopf.antipode
    assert s.compose(s) == LinearMap.identity(kp.hopf.algebra)
    assert all(s(s(b).star()).star() == b for b in kp.hopf.algebra.basis())


def test_kp_handle_arithmetic():
    h = build_kp().handles
    unit = build_kp().hopf.algebra.unit()
    assert h["eps"] + h["alpha"] + h["beta"] + h["gamma"] \
        + h["e11"] + h["e22"] == unit
    assert h["alpha"] * h["beta"] == build_kp().hopf.algebra.zero()
    assert h["e12"] * h["e21"] == h["e11"]
    assert h["e12"].star() == h["e21"]


def test_kp_counit_and_antipode_on_lines():
    kp = build_kp()
    assert kp.hopf.counit_value(kp.handles["eps"]) == ONE
    for name in ("alpha", "beta", "gamma", "e11", "e12"):
        assert kp.hopf.counit_value(kp.handles[name]) == ZERO
    for g in kp_tensor_square().printed:
        # each line squares to the unit, so it is its own antipode image
        assert kp.hopf.antipode(g) == g


def test_vtilde_model_checks():
    vt = build_vtilde()
    assert vt.group.order == 8
    assert vt.action.order == 2
    assert vt.action.perm[vt.indices["s1"]] == vt.indices["-s2"]
    assert set(vt.indices) == {"I", "-I", "s1", "-s1", "s2", "-s2",
                               "s3", "-s3"}


def test_vtilde_names_its_first_failing_check(monkeypatch):
    # the identity action is an automorphism, but not the one entered
    monkeypatch.setattr(models, "U_ACT", Mat2.identity())
    with pytest.raises(models.ModelMismatchError, match=(
            "^group model fails action_sends_s1_to_minus_s2$")):
        build_vtilde.__wrapped__()


def test_vtilde_function_algebra_flags():
    comm, cocomm, _ = commutativity_flags(build_smash().function_hopf)
    assert comm and not cocomm


def test_smash_blocks():
    sm = build_smash()
    assert sorted(sm.hopf.algebra.block_sizes) == [1, 1, 1, 1, 2, 2, 2]
    assert verify_hopf_axioms(sm.groupoid_hopf).passed


def test_twist_model_checks():
    tw = build_vtilde_twist()
    assert tw.report.passed
    assert verify_hopf_axioms(tw.hopf).passed
    assert tw.hopf.algebra.block_sizes == (1, 1, 1, 1, 2)


def test_coset_presentation_mismatch_is_detected(monkeypatch):
    coset = list(models.build_coset_twist())
    coset[0] = build_smash().delta_lambda(0, 1)    # not in the twist
    monkeypatch.setattr(models, "build_coset_twist", lambda: coset)
    tw = models.build_vtilde_twist.__wrapped__()
    assert not tw.report.checks["matches_coset_presentation"]
    assert build_vtilde_twist().report.checks["matches_coset_presentation"]


def test_twist_dictionary_aligns_with_handles():
    tw = build_vtilde_twist()
    for name, elt in tw.dictionary.items():
        assert tw.to_twist(elt) == tw.handles[name]


def test_twist_noncommutativity_witnesses():
    tw = build_vtilde_twist()
    h = tw.handles
    zero = tw.hopf.algebra.zero()
    # even(s1) kills odd(s2) from the left but not from the right
    assert h["e11"] * h["e21"] == zero
    assert h["e21"] * h["e11"] == h["e21"]
    comm, cocomm, _ = commutativity_flags(tw.hopf)
    assert not comm and not cocomm


def test_twist_odd_coproduct_display():
    assert build_vtilde_twist().report.checks["odd_coproduct_display"]


def test_phi_is_an_isomorphism():
    phi = build_phi_and_verify()
    assert phi.report.passed
    assert phi.report.checks["injective"]
    assert all(phi.report.checks[f"v_aligns_{w}_conjugator"]
               for w in ("alphap", "betap", "gammap"))
    tw = build_vtilde_twist()
    kp = build_kp()
    assert phi.map(tw.hopf.algebra.unit()) == kp.hopf.algebra.unit()


# the fundamental matrix over the twist, frozen entry by entry; handles are
# the twist basis, ih is i over root 2

def expected_uprime(tw):
    h = tw.handles
    eps, alphap = h["eps"], h["alphap"]
    betap, gammap = h["betap"], h["gammap"]
    e12, e21 = h["e12"], h["e21"]
    return [
        [eps - alphap - e12.scale(IHALF) - e21.scale(IHALF),
         -e12.scale(IHALF) + e21.scale(IHALF) - betap.scale(IM)
         + gammap.scale(IM)],
        [-e12.scale(IHALF) + e21.scale(IHALF) + betap.scale(IM)
         - gammap.scale(IM),
         eps - alphap + e12.scale(IHALF) + e21.scale(IHALF)],
    ]


def expected_ukp(kp):
    h = kp.handles
    eps, alpha, beta, gamma = h["eps"], h["alpha"], h["beta"], h["gamma"]
    e12, e21 = h["e12"], h["e21"]
    return [
        [eps - gamma + (e12 - e21).scale(INV_SQRT2),
         -alpha.scale(IM) + beta.scale(IM) + (e12 + e21).scale(INV_SQRT2)],
        [alpha.scale(IM) - beta.scale(IM) + (e12 + e21).scale(INV_SQRT2),
         eps - gamma - (e12 - e21).scale(INV_SQRT2)],
    ]


def test_fundamental_matches_frozen_entries():
    f = build_fundamental()
    tw = build_vtilde_twist()
    kp = build_kp()
    assert f.uprime.entries == expected_uprime(tw)
    assert f.ukp.entries == expected_ukp(kp)


def test_fundamental_relations_and_span():
    f = build_fundamental()
    assert f.report.passed
    assert f.word_ranks == [(0, 1), (1, 5), (2, 8), (3, 8)]
    assert f.report.checks["surjective"]


def test_tensor_square_checks():
    ts = kp_tensor_square()
    assert ts.report.passed
    assert len(ts.report.checks) == 10
    unit = build_kp().hopf.algebra.unit()
    assert ts.printed[0] == unit
    # trace of each projection is exactly one
    for p in ts.projections:
        total = ZERO
        for i in range(4):
            total = total + p[i][i]
        assert total == ONE


def test_one_dim_group_multiplication():
    ts = kp_tensor_square()
    found = ts.group
    idx = [found.elements.index(g) for g in ts.printed]
    # the printed order is unit, then the three involutions; their products
    # follow the Klein table
    assert found.table[idx[1]][idx[3]] == idx[2]
    assert found.table[idx[1]][idx[2]] == idx[3]
    assert found.table[idx[2]][idx[3]] == idx[1]


def test_fusion_graph_is_the_star():
    g = kp_fusion_graph()
    assert star_shape_checks(g).passed
    assert g.multiplicities == [[0, 0, 0, 0, 1],
                                [0, 0, 0, 0, 1],
                                [0, 0, 0, 0, 1],
                                [0, 0, 0, 0, 1],
                                [1, 1, 1, 1, 0]]
    assert g.dims == [1, 1, 1, 1, 2]


def test_fusion_rules_export():
    rules = kp_fusion_rules()
    assert rules["table"] == [[0, 1, 2, 3], [1, 0, 3, 2],
                              [2, 3, 0, 1], [3, 2, 1, 0]]
    assert rules["fund_after_line"] == [1, 1, 1, 1]
    assert rules["fund_before_line"] == [1, 1, 1, 1]
    assert rules["lines_in_square"] == [1, 1, 1, 1]
    assert rules["fund_in_square"] == 0


def permuted_model(perm):
    """The direct model with its blocks listed in a different order."""
    kp = build_kp().hopf
    alg = kp.algebra
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    newalg = MultiMatrixAlgebra(tuple(alg.block_sizes[b] for b in perm),
                                labels=tuple(alg.labels[b] for b in perm))
    fwd = LinearMap.from_images(newalg, [
        alg.basis_element(perm[b], i, j)
        for b, i, j in (decompose(newalg, p) for p in range(newalg.dim))])
    back = LinearMap.from_images(alg, [
        newalg.basis_element(inv[b], i, j)
        for b, i, j in (decompose(alg, p) for p in range(alg.dim))])
    delta = tensor_map(back, back).compose(kp.coproduct).compose(fwd)
    counit = kp.counit.compose(fwd)
    antipode = back.compose(kp.antipode).compose(fwd)
    return HopfAlgebra(newalg, delta, counit, antipode), fwd


@pytest.mark.parametrize("perm", [(3, 1, 2, 0, 4), (1, 2, 3, 0, 4),
                                  (4, 0, 1, 2, 3)])
def test_basis_order_does_not_matter(perm):
    kp = build_kp().hopf
    moved, fwd = permuted_model(perm)
    assert verify_hopf_axioms(moved).passed
    assert check_hopf_morphism(fwd, moved, kp, require="iso").passed


def test_entered_table_mismatch_is_named(monkeypatch):
    # flip the sign of the second matrix-sector term for alphap
    quad = list(models._TWIST_QUADS[1])
    i, j, k, l, c = quad[1]
    quad[1] = (i, j, k, l, -c)
    quads = list(models._TWIST_QUADS)
    quads[1] = tuple(quad)
    monkeypatch.setattr(models, "_TWIST_QUADS", tuple(quads))
    with pytest.raises(models.ModelMismatchError, match=(
            r"^coproduct differs from the entered table: images of alphap "
            r"differ: coefficient 1/2 vs -1/2 at m\[0,1\]\(x\)m\[0,1\]$")):
        build_vtilde_twist.__wrapped__()
