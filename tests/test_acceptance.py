"""Acceptance run: nine criteria, one verdict line each (run with -s)."""

import importlib.util
import json
import pathlib

from hopfcheck import cli
from hopfcheck.category_checks import modcat, ty
from hopfcheck.cyclotomic import HALF, ONE, ZERO, mat_mul
from hopfcheck.hopf_core import commutativity_flags, hopf_from_dict, \
    verify_hopf_axioms
from hopfcheck.models import Build, star_shape_checks
from test_hopf_core import cancellation_ranks
from test_multimatrix import flip_map

HERE = pathlib.Path(__file__).parent
BUILT = Build()


def report(k, text):
    print(f"CRITERION {k}: PASS  {text}")


def test_criterion_1_direct_model_axioms():
    kp = BUILT.kp
    rep = verify_hopf_axioms(kp.hopf)
    assert rep.passed
    assert all(rep.checks.values())
    # cancellation follows from the recorded checks; the spans confirm it
    assert cancellation_ranks(kp.hopf) == (64, 64)
    report(1, "direct model satisfies every Hopf *-algebra axiom, "
              "cancellation on both sides")


def test_criterion_2_twist_flags_and_witnesses():
    tw = BUILT.twist
    assert tw.hopf.dim == 8
    assert verify_hopf_axioms(tw.hopf).passed
    comm, cocomm, _ = commutativity_flags(tw.hopf)
    assert (comm, cocomm) == (False, False)

    dl = tw.smash.delta_lambda
    ix = tw.vtilde.indices
    even_s1 = tw.to_twist(dl(ix["s1"], 0) + dl(ix["-s1"], 0))
    odd_s2 = tw.to_twist(dl(ix["s2"], 1) - dl(ix["-s2"], 1))
    assert even_s1 * odd_s2 == tw.hopf.algebra.zero()
    assert odd_s2 * even_s1 == odd_s2

    odd_s3 = tw.to_twist(dl(ix["s3"], 1) - dl(ix["-s3"], 1))
    image = tw.hopf.coproduct(odd_s3)
    flipped = flip_map(tw.hopf.algebra)(image)
    assert image != flipped
    report(2, "twist is dimension 8, passes all axioms, and is neither "
              "commutative nor cocommutative, with the exact product and "
              "coproduct witnesses")


def test_criterion_3_isomorphism():
    phi = BUILT.phi
    assert phi.report.passed
    assert all(phi.report.checks.values())
    assert len([k for k in phi.report.checks if k.startswith("v_aligns_")]) == 3
    report(3, "base change is a Hopf *-isomorphism between the models and "
              "aligns all three coproduct conjugators")


def test_criterion_4_quotient_relations():
    f = BUILT.fundamental
    assert f.report.checks["unitary"] and f.report.checks["comultiplicative"]
    assert f.report.checks["star_11_22"]
    assert f.report.checks["star_12_21"]
    assert f.report.passed
    assert f.report.checks["surjective"]
    assert f.word_ranks[-1][1] == 8
    report(4, "fundamental matrix is a unitary corepresentation, satisfies "
              "the q == -1 star relations, and its entries generate all 8 "
              "dimensions")


def test_criterion_5_one_dimensional_corepresentations():
    ts = BUILT.tensor_square
    checks = ts.report.checks
    # the certificate verified each printed line as a unitary corepresentation
    assert [u.entries[0][0] for u in ts.group.irreps if u.size == 1] \
        == ts.printed
    assert ts.group.elements == ts.printed
    assert checks["klein_squares"] and checks["unit_is_first"]
    assert ts.printed[1] * ts.printed[3] == ts.printed[2]
    report(5, "exactly four one-dimensional corepresentations, matching the "
              "entered list and forming the Klein group with the unit first")


def test_criterion_6_tensor_square_and_fusion():
    ts = BUILT.tensor_square
    for key in ("projections_rank_one", "tensor_square_decomposes"):
        assert ts.report.checks[key]
    # the laws kp_tensor_square proves from the decomposition
    ps = ts.projections
    zero = [[ZERO] * 4 for _ in range(4)]
    assert all(mat_mul(p, q) == (p if p is q else zero)
               for p in ps for q in ps)
    assert all(p[i][j].conj() == p[j][i] for p in ps
               for i in range(4) for j in range(4))
    assert [[sum((p[i][j] for p in ps), ZERO) for j in range(4)]
            for i in range(4)] == [[ONE if i == j else ZERO for j in range(4)]
                                   for i in range(4)]
    assert star_shape_checks(BUILT.fusion_graph).passed
    report(6, "tensor square of the fundamental splits through the four "
              "entered rank-one projections and the fusion graph is the "
              "four-leaf star")


def test_criterion_7_pentagon_and_fusion_ring():
    good = ty.pentagon_report(HALF)
    assert good.holds and good.quadruples == 625
    bad = ty.pentagon_report(ONE)
    assert not bad.holds
    assert ty.fusion_ring_match(BUILT.fusion_rules).passed
    report(7, "pentagon holds exhaustively at scale 1/2, fails at scale 1, "
              "and the category's fusion ring matches the direct model's")


def test_criterion_8_module_category():
    verbatim = modcat.module_report("verbatim")
    assert not verbatim.unitary
    repaired = modcat.module_report("repaired")
    assert repaired.unitary
    assert all(repaired.hooks.values())
    assert repaired.group_part
    assert modcat.repair_distance() == 5
    # the worked vector: the image of the basis vector tagged (b, b rho)
    # and its hook composite, the identity
    image = [row[2] for row in modcat.repaired_psi_rho()]
    assert modcat.hook_equation(image, modcat.PSI["b"])
    assert [str(v) for v in image] == ["1/2*z - 1/2*z^3", "0", "0",
                                       "-1/2*z + 1/2*z^3"]
    report(8, "printed action matrix fails unitarity as documented; the "
              "5-entry repair satisfies every hook and group equation and "
              "reproduces the worked intermediate vector")


def _suite_budget(filename, names):
    spec = importlib.util.spec_from_file_location(filename, HERE / filename)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    total = 0
    for name in names:
        fn = getattr(mod, name)
        total += fn._hypothesis_internal_use_settings.max_examples
    return total


def test_criterion_9_tooling(tmp_path, capsys):
    assert cli.main(["verify", "--all"]) == 0
    capsys.readouterr()

    first, second = tmp_path / "m.json", tmp_path / "m2.json"
    assert cli.main(["export", "kp", str(first)]) == 0
    assert cli.main(["export", "kp", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert verify_hopf_axioms(hopf_from_dict(json.loads(first.read_text()))).passed

    suites = {
        "field axioms": _suite_budget("test_cyclotomic.py", [
            "test_addition_group", "test_multiplication_monoid",
            "test_distributivity", "test_multiplicative_inverse",
            "test_galois_action", "test_conj_is_ring_map"]),
        "star anti-automorphism": _suite_budget("test_multimatrix.py", [
            "test_star_reverses_products", "test_star_involutive",
            "test_star_additive", "test_star_antilinear"]),
        "tensor functoriality": _suite_budget("test_multimatrix.py", [
            "test_tensor_map_on_pure_tensors", "test_tensor_map_composes"]),
        "intertwiner dimensions": _suite_budget("test_corep.py", [
            "test_hom_dimension_is_symmetric",
            "test_intertwiners_actually_intertwine"]),
    }
    for name, budget in suites.items():
        assert budget >= 1000, f"{name} suite runs only {budget} cases"
    report(9, "verify --all exits 0, exports are byte-identical on reload, "
              "and all four randomized suites budget at least 1000 cases "
              f"({', '.join(str(v) for v in suites.values())})")
