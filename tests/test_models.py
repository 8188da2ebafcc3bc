"""The two eight-dimensional models, their isomorphism, and their fusion."""

import pathlib
from fractions import Fraction

import pytest

from hopfcheck.cyclotomic import IM, INV_SQRT2, ONE, ZERO
from hopfcheck import models
from hopfcheck.group_twist import coset_basis, generate_group
from hopfcheck.hopf_core import HopfAlgebra, commutativity_flags, \
    verify_hopf_axioms
from hopfcheck.linalg import exact_rank
from hopfcheck.models import Build, star_shape_checks
from hopfcheck.multimatrix import LinearMap, MultiMatrixAlgebra, tensor_map
from test_hopf_core import cancellation_ranks, check_morphism
from test_multimatrix import decompose

BUILT = Build()
IHALF = IM * INV_SQRT2


def test_kp_shape_and_axioms():
    kp = BUILT.kp
    assert kp.hopf.algebra.block_sizes == (1, 1, 1, 1, 2)
    assert verify_hopf_axioms(kp.hopf).passed
    assert cancellation_ranks(kp.hopf) == (64, 64)
    # S S = id and *S*S = id hold here, though no axiom asks for them
    s = kp.hopf.antipode
    assert s.compose(s) == LinearMap.identity(kp.hopf.algebra)
    assert all(s(s(b).star()).star() == b for b in kp.hopf.algebra.basis())


def test_kp_handle_arithmetic():
    h = BUILT.kp.handles
    unit = BUILT.kp.hopf.algebra.unit()
    assert h["eps"] + h["alpha"] + h["beta"] + h["gamma"] \
        + h["e11"] + h["e22"] == unit
    assert h["alpha"] * h["beta"] == BUILT.kp.hopf.algebra.zero()
    assert h["e12"] * h["e21"] == h["e11"]
    assert h["e12"].star() == h["e21"]


def test_kp_counit_and_antipode_on_lines():
    kp = BUILT.kp
    assert kp.hopf.counit_value(kp.handles["eps"]) == ONE
    for name in ("alpha", "beta", "gamma", "e11", "e12"):
        assert kp.hopf.counit_value(kp.handles[name]) == ZERO
    for g in BUILT.tensor_square.printed:
        # each line squares to the unit, so it is its own antipode image
        assert kp.hopf.antipode(g) == g


def test_vtilde_model_checks():
    vt = BUILT.vtilde
    assert vt.group.order == 8
    ix, perm = vt.indices, vt.action.perm
    # the action facts build_vtilde proves in its docstring
    assert perm[ix["s1"]] == ix["-s2"] and perm[ix["s2"]] == ix["-s1"]
    assert perm[ix["-I"]] == ix["-I"]
    assert perm != list(range(8))
    generated = generate_group([models.S1, models.S2], cap=8)
    assert set(generated.elements) == set(vt.group.elements)
    assert set(vt.indices) == {"I", "-I", "s1", "-s1", "s2", "-s2",
                               "s3", "-s3"}


def test_vtilde_function_algebra_flags():
    comm, cocomm, _ = commutativity_flags(BUILT.smash.function_hopf)
    assert comm and not cocomm


def test_smash_blocks():
    sm = BUILT.smash
    assert sorted(sm.hopf.algebra.block_sizes) == [1, 1, 1, 1, 2, 2, 2]
    assert verify_hopf_axioms(sm.groupoid_hopf).passed


def test_twist_model_checks():
    tw = BUILT.twist
    assert tw.report.passed
    assert verify_hopf_axioms(tw.hopf).passed
    assert tw.hopf.algebra.block_sizes == (1, 1, 1, 1, 2)


def test_coset_presentation_mismatch_is_detected():
    coset = list(BUILT.coset)
    coset[0] = BUILT.smash.delta_lambda(0, 1)    # not in the twist
    tw = models.build_vtilde_twist(BUILT.vtilde, BUILT.smash, coset)
    assert not tw.report.checks["matches_coset_presentation"]
    assert BUILT.twist.report.checks["matches_coset_presentation"]


def test_coset_basis_is_the_dictionary():
    """The orbit-block rule gives the paper's dictionary elements themselves,
    in block order, not only their span."""
    d = BUILT.twist.dictionary
    assert coset_basis(BUILT.smash, BUILT.vtilde.grading)[1] == [
        d["eps"], d["alphap"], d["e11"], -d["e12"], -d["e21"], d["e22"],
        d["betap"], d["gammap"]]


def test_twist_dictionary_aligns_with_handles():
    tw = BUILT.twist
    for name, elt in tw.dictionary.items():
        assert tw.to_twist(elt) == tw.handles[name]


def test_twist_noncommutativity_witnesses():
    tw = BUILT.twist
    h = tw.handles
    zero = tw.hopf.algebra.zero()
    # even(s1) kills odd(s2) from the left but not from the right
    assert h["e11"] * h["e21"] == zero
    assert h["e21"] * h["e11"] == h["e21"]
    comm, cocomm, _ = commutativity_flags(tw.hopf)
    assert not comm and not cocomm


def test_twist_odd_coproduct_display():
    assert BUILT.twist.report.checks["odd_coproduct_display"]


def test_phi_is_an_isomorphism():
    phi = BUILT.phi
    assert phi.report.passed
    assert phi.report.checks["surjective"]
    assert all(phi.report.checks[f"v_aligns_{w}_conjugator"]
               for w in ("alphap", "betap", "gammap"))
    tw = BUILT.twist
    kp = BUILT.kp
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
    f = BUILT.fundamental
    tw = BUILT.twist
    kp = BUILT.kp
    assert f.uprime.entries == expected_uprime(tw)
    assert f.ukp.entries == expected_ukp(kp)


def test_fundamental_relations_and_span():
    f = BUILT.fundamental
    assert f.report.passed
    assert f.word_ranks == [(0, 1), (1, 5), (2, 8), (3, 8)]
    assert f.report.checks["surjective"]
    # the relations build_fundamental proves from unitarity
    (a, b), (c, d) = f.uprime.entries
    one = a.parent.unit()
    assert a * c == -(c * a) and a * b == -(b * a)
    assert c * b == b * c
    assert a.star() * a + b * c == one == a * d + c * b


def test_tensor_square_checks():
    ts = BUILT.tensor_square
    assert ts.report.passed
    assert list(ts.report.checks) == ["projections_rank_one", "unit_is_first",
                                      "klein_squares",
                                      "tensor_square_decomposes"]
    unit = BUILT.kp.hopf.algebra.unit()
    assert ts.printed[0] == unit
    # trace of each projection is exactly one
    for p in ts.projections:
        total = ZERO
        for i in range(4):
            total = total + p[i][i]
        assert total == ONE


def test_one_dim_group_multiplication():
    ts = BUILT.tensor_square
    found = ts.group
    idx = [found.elements.index(g) for g in ts.printed]
    # the printed order is unit, then the three involutions; their products
    # follow the Klein table
    assert found.table[idx[1]][idx[3]] == idx[2]
    assert found.table[idx[1]][idx[2]] == idx[3]
    assert found.table[idx[2]][idx[3]] == idx[1]


def test_fusion_graph_is_the_star():
    g = BUILT.fusion_graph
    assert star_shape_checks(g).passed
    assert g.multiplicities == [[0, 0, 0, 0, 1],
                                [0, 0, 0, 0, 1],
                                [0, 0, 0, 0, 1],
                                [0, 0, 0, 0, 1],
                                [1, 1, 1, 1, 0]]
    assert g.dims == [1, 1, 1, 1, 2]
    # so the edge weights m_ij d_j / d_i are 2 inward and 1/2 outward
    m, d = g.multiplicities, g.dims
    assert [Fraction(m[i][4] * d[4], d[i]) for i in range(4)] == [2] * 4
    assert [Fraction(m[4][j] * d[j], d[4]) for j in range(4)] == [
        Fraction(1, 2)] * 4


def test_fusion_rules_export():
    rules = BUILT.fusion_rules
    assert rules["table"] == [[0, 1, 2, 3], [1, 0, 3, 2],
                              [2, 3, 0, 1], [3, 2, 1, 0]]
    assert rules["fund_after_line"] == [1, 1, 1, 1]
    assert rules["fund_before_line"] == [1, 1, 1, 1]
    assert rules["lines_in_square"] == [1, 1, 1, 1]
    assert rules["fund_in_square"] == 0


def test_fusion_table_is_the_certified_group_table():
    assert BUILT.fusion_rules["table"] is BUILT.tensor_square.group.table


def permuted_model(perm):
    """The direct model with its blocks listed in a different order."""
    kp = BUILT.kp.hopf
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
    kp = BUILT.kp.hopf
    moved, fwd = permuted_model(perm)
    assert verify_hopf_axioms(moved).passed
    assert check_morphism(fwd, moved, kp).passed
    assert exact_rank(fwd.cols) == kp.dim


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
        models.build_vtilde_twist(BUILT.vtilde, BUILT.smash, BUILT.coset)


def test_readme_library_example_prints_its_comments(capsys):
    # README's example runs as written, and each print shows the value its
    # comment names
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Typical library use:\n\n```python\n")[1]
    block = block.split("```")[0]
    exec(block, {})
    comments = [line.split("# ")[1].split(":")[0]
                for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == comments == ["True"] * 2
