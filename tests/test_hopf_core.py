"""Hopf axiom verification, morphism checks, and serialization."""

import pytest

from hopfcheck.cyclotomic import ZERO
from hopfcheck.hopf_core import (HopfAlgebra, check_hopf_morphism,
                                 commutativity_flags, hopf_from_dict,
                                 hopf_to_dict, solve_counit_antipode,
                                 verify_hopf_axioms)
from hopfcheck.linalg import LinAlgError
from hopfcheck.models import build_kp
from hopfcheck.multimatrix import LinearMap, MultiMatrixAlgebra


def two_point_hopf():
    """Functions on the 2-element group, built by hand."""
    alg = MultiMatrixAlgebra((1, 1), labels=("de", "dg"))
    d0, d1 = alg.basis()
    delta = LinearMap.from_images(
        alg, [d0.tensor(d0) + d1.tensor(d1), d0.tensor(d1) + d1.tensor(d0)])
    counit, antipode = solve_counit_antipode(alg, delta)
    return HopfAlgebra(alg, delta, counit, antipode)


def test_two_point_hopf_passes():
    h = two_point_hopf()
    rep = verify_hopf_axioms(h)
    assert rep.passed
    assert rep.ranks["cancellation_left"] == 4
    assert rep.ranks["cancellation_right"] == 4
    assert rep.info["antipode_squared_identity"]
    assert rep.info["antipode_star_involution"]
    comm, cocomm, _ = commutativity_flags(h)
    assert comm and cocomm


def test_solved_maps_match_stored_ones():
    kp = build_kp().hopf
    counit, antipode = solve_counit_antipode(kp.algebra, kp.coproduct)
    assert counit == kp.counit
    assert antipode == kp.antipode


def test_defective_coproduct_has_no_counit():
    alg = MultiMatrixAlgebra((1, 1))
    d0, d1 = alg.basis()
    # both images hit d0 tensor d0, so no counit can separate them
    delta = LinearMap.from_images(
        alg, [d0.tensor(d0), d0.tensor(d0) + d1.tensor(d1)])
    with pytest.raises(LinAlgError):
        solve_counit_antipode(alg, delta)


def test_perturbed_coproduct_fails_with_witness():
    h = two_point_hopf()
    d0, d1 = h.algebra.basis()
    bad = LinearMap.from_images(
        h.algebra,
        [d0.tensor(d0) + d1.tensor(d1),
         d0.tensor(d1) + d1.tensor(d0) + d0.tensor(d0)])
    rep = verify_hopf_axioms(HopfAlgebra(h.algebra, bad, h.counit, h.antipode))
    assert not rep.passed
    failing = [k for k, v in rep.checks.items() if not v]
    assert "counit_left" in failing or "coassociative" in failing
    assert any(rep.witnesses[k] for k in failing if k in rep.witnesses)


def test_perturbed_kp_coproduct_fails():
    kp = build_kp().hopf
    alpha = build_kp().handles["alpha"]
    eps = build_kp().handles["eps"]
    cols = [dict(c) for c in kp.coproduct.cols]
    extra = eps.tensor(alpha)
    for t, v in extra.coords.items():
        cols[1][t] = cols[1].get(t, ZERO) + v
    bad = LinearMap(kp.algebra, kp.coproduct.target, cols)
    rep = verify_hopf_axioms(HopfAlgebra(kp.algebra, bad, kp.counit,
                                         kp.antipode))
    assert not rep.passed
    assert any(not v for v in rep.checks.values())
    # the witness names the tensor basis element, not a raw index
    witness = rep.witnesses["coassociative"]
    assert "position" not in witness
    assert "(x)" in witness


def test_identity_is_an_isomorphism():
    kp = build_kp().hopf
    rep = check_hopf_morphism(LinearMap.identity(kp.algebra), kp, kp,
                              require="iso")
    assert rep.passed
    assert rep.info["antipode_compatible"]


def test_counit_section_is_a_hom_but_not_surjective():
    # x -> eps(x) 1 preserves every piece of structure yet collapses the
    # algebra onto scalars, so only the rank requirement can reject it
    kp = build_kp().hopf
    unit = kp.algebra.unit()
    images = [unit.scale(kp.counit_value(b)) for b in kp.algebra.basis()]
    f = LinearMap.from_images(kp.algebra, images)
    assert check_hopf_morphism(f, kp, kp, require="hom").passed
    rep = check_hopf_morphism(f, kp, kp, require="surjective")
    assert not rep.passed
    assert not rep.checks["surjective"]
    assert rep.ranks["image"] == 1


def test_transpose_is_not_multiplicative():
    kp = build_kp().hopf
    alg = kp.algebra
    images = []
    for p in range(alg.dim):
        b, i, j = alg.decompose(p)
        images.append(alg.basis_element(b, j, i))
    rep = check_hopf_morphism(LinearMap.from_images(alg, images), kp, kp)
    assert not rep.checks["multiplicative"]
    assert rep.witnesses["multiplicative"]


def test_morphism_endpoint_mismatch():
    kp = build_kp().hopf
    other = MultiMatrixAlgebra((1, 1))
    with pytest.raises(ValueError):
        check_hopf_morphism(LinearMap.identity(other), kp, kp)


def test_serialization_round_trip():
    kp = build_kp().hopf
    data = hopf_to_dict(kp)
    back = hopf_from_dict(data)
    assert back.algebra == kp.algebra
    assert back.coproduct == kp.coproduct
    assert back.counit == kp.counit
    assert back.antipode == kp.antipode
    assert verify_hopf_axioms(back).passed


@pytest.mark.parametrize("name, row", [("counit", 0), ("antipode", 4)])
def test_tampered_load_is_rejected(name, row):
    data = hopf_to_dict(build_kp().hopf)
    data[f"{name}_matrix"][row][4] = ["7", "0", "0", "0"]
    with pytest.raises(ValueError, match=f"stored {name} differs"):
        hopf_from_dict(data)


def test_commutativity_flags_on_kp():
    comm, cocomm, wit = commutativity_flags(build_kp().hopf)
    assert not comm and not cocomm
    assert wit
