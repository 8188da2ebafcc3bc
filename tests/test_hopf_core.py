"""Hopf axiom verification, morphism checks, and serialization."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfcheck import cli, hopf_core
from hopfcheck.cyclotomic import Cyc, ONE, ZERO, ZETA
from hopfcheck.hopf_core import (HopfAlgebra, Report, check_hopf_morphism,
                                 commutativity_flags, hopf_from_dict,
                                 hopf_to_dict, solve_counit_antipode,
                                 verify_hopf_axioms)
from hopfcheck.linalg import LinAlgError, exact_rank
from hopfcheck.models import Build
from hopfcheck.multimatrix import (AlgElement, LinearMap, MultiMatrixAlgebra,
                                   tensor_algebra, tensor_map)
from test_multimatrix import decompose

BUILT = Build()


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
    assert cancellation_ranks(h) == (4, 4)
    # S S = id and *S*S = id hold here, though no axiom asks for them
    s = h.antipode
    assert s.compose(s) == LinearMap.identity(h.algebra)
    assert all(s(s(b).star()).star() == b for b in h.algebra.basis())
    comm, cocomm, _ = commutativity_flags(h)
    assert comm and cocomm


def test_solved_maps_match_stored_ones():
    kp = BUILT.kp.hopf
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
    kp = BUILT.kp.hopf
    alpha = BUILT.kp.handles["alpha"]
    eps = BUILT.kp.handles["eps"]
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


def check_morphism(f, h1, h2):
    """check_hopf_morphism with Delta_2 f composed here."""
    return check_hopf_morphism(f, h1, h2, h2.coproduct.compose(f))


def test_identity_is_an_isomorphism():
    kp = BUILT.kp.hopf
    ident = LinearMap.identity(kp.algebra)
    rep = check_morphism(ident, kp, kp)
    assert rep.passed
    assert exact_rank(ident.cols) == kp.dim


def test_identity_is_a_morphism_of_the_groupoid_structure():
    # (f (x) f) Delta lands in the tensor square of a groupoid algebra,
    # which must be the same algebra as the target of Delta f
    gh = BUILT.smash.groupoid_hopf
    dlam = gh.algebra
    assert tensor_algebra(dlam, dlam) is gh.coproduct.target
    rep = check_morphism(LinearMap.identity(dlam), gh, gh)
    assert rep.passed, rep.first_failure()


def test_counit_section_is_a_hom_but_not_surjective():
    # x -> eps(x) 1 preserves every piece of structure yet collapses the
    # algebra onto scalars, so only a rank can reject it
    kp = BUILT.kp.hopf
    unit = kp.algebra.unit()
    images = [unit.scale(kp.counit_value(b)) for b in kp.algebra.basis()]
    f = LinearMap.from_images(kp.algebra, images)
    assert check_morphism(f, kp, kp).passed
    assert exact_rank(f.cols) == 1


def test_transpose_is_not_multiplicative():
    kp = BUILT.kp.hopf
    alg = kp.algebra
    images = []
    for p in range(alg.dim):
        b, i, j = decompose(alg, p)
        images.append(alg.basis_element(b, j, i))
    rep = check_morphism(LinearMap.from_images(alg, images), kp, kp)
    assert not rep.checks["multiplicative"]
    assert rep.witnesses["multiplicative"]


def test_non_unitary_conjugation_is_not_a_star_map():
    # conjugating the matrix block by diag(2, 1) is a unital algebra map
    # that sends e12 -> 2 e12 and e21 -> e21 / 2
    kp = BUILT.kp.hopf
    alg = kp.algebra
    images = []
    for p in range(alg.dim):
        b, i, j = decompose(alg, p)
        scale = Cyc.from_rational(Fraction(2) ** (j - i) if b == 4 else 1)
        images.append(alg.basis_element(b, i, j).scale(scale))
    rep = check_morphism(LinearMap.from_images(alg, images), kp, kp)
    assert rep.checks["multiplicative"] and rep.checks["unital"]
    assert rep.witnesses["star"] == "*-structure mismatch at m[0,1]"
    # a morphism check takes no rank
    assert "surjective" not in rep.checks


def test_morphism_endpoint_mismatch():
    kp = BUILT.kp.hopf
    other = MultiMatrixAlgebra((1, 1))
    with pytest.raises(ValueError, match="^map endpoints do not match"):
        check_hopf_morphism(LinearMap.identity(other), kp, kp, kp.coproduct)


@pytest.mark.parametrize("model_id", sorted(cli._EXPORTS))
def test_serialization_round_trip(model_id):
    # a dump lists the tensor square's rows in the Kronecker block order;
    # smash's three 2x2 blocks would show a wrong row map
    h = cli._EXPORTS[model_id](BUILT)
    back = hopf_from_dict(hopf_to_dict(h))
    assert back.algebra == h.algebra
    assert back.algebra.labels == h.algebra.labels
    assert back.coproduct == h.coproduct
    assert back.counit == h.counit
    assert back.antipode == h.antipode
    assert verify_hopf_axioms(back).passed


@pytest.mark.parametrize("name, row", [("counit", 0), ("antipode", 4)])
def test_tampered_load_is_rejected(name, row):
    data = hopf_to_dict(BUILT.kp.hopf)
    data[f"{name}_matrix"][row][4] = ["7", "0", "0", "0"]
    with pytest.raises(ValueError, match=f"stored structure fails {name}_left"):
        hopf_from_dict(data)


def _two_point_dump(**fields):
    return {**hopf_to_dict(two_point_hopf()), **fields}


def _with_cell(cell):
    data = _two_point_dump()
    data["counit_matrix"] = [[["1", "0", "0", "0"], cell]]
    return data


@pytest.mark.parametrize("data", [
    *(pytest.param(_two_point_dump(block_sizes=sizes), id=f"sizes={sizes!r}")
      for sizes in ([1, 1.5], [1, "1"], [1, True])),
    pytest.param(_two_point_dump(labels=[0, 1]), id="int-labels"),
    pytest.param(_two_point_dump(labels="ab"), id="str-labels"),
    *(pytest.param({k: v for k, v in _two_point_dump().items() if k != key},
                   id=f"no-{key}")
      for key in ("block_sizes", "coproduct_matrix")),
    # the counit's second cell, eps(dg) = 0, in forms that are not a list
    pytest.param(_with_cell(0), id="int-cell"),
    pytest.param(_with_cell("0000"), id="str-cell"),
])
def test_malformed_dump_is_a_value_error(monkeypatch, data):
    def refuse(*args, **kwargs):
        raise AssertionError("built before the dump was read")

    monkeypatch.setattr(hopf_core, "MultiMatrixAlgebra", refuse)
    with pytest.raises(ValueError):
        hopf_from_dict(data)


def test_load_checks_shapes_before_building(monkeypatch):
    # building the algebra and its tensor square costs n**4 for a block of
    # size n, whatever the matrices hold
    def refuse(*args, **kwargs):
        raise AssertionError("built before the matrix shapes were checked")

    monkeypatch.setattr(hopf_core, "MultiMatrixAlgebra", refuse)
    monkeypatch.setattr(hopf_core, "tensor_algebra", refuse)
    data = {"block_sizes": [30], "coproduct_matrix": [], "counit_matrix": [],
            "antipode_matrix": []}
    with pytest.raises(ValueError):
        hopf_from_dict(data)


def test_dump_of_a_groupoid_structure_is_a_type_error():
    # a dump lists block sizes, which a groupoid algebra does not have
    with pytest.raises(TypeError, match="^a dump needs a multimatrix algebra"):
        hopf_to_dict(BUILT.smash.groupoid_hopf)


@pytest.mark.parametrize("model_id", sorted(cli._EXPORTS))
def test_coproduct_mutants_of_the_exports_are_rejected(model_id):
    # seeded single-coefficient edits of the stored coproduct: coefficient
    # + 1, or zero <-> z; several of them still admit a unique counit and
    # antipode equal to the stored ones, so only the axioms reject them
    data = hopf_to_dict(cli._EXPORTS[model_id](BUILT))
    rng = random.Random(model_id)
    mat = data["coproduct_matrix"]
    for _ in range(4):
        r, c = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
        old = Cyc.from_strings(mat[r][c])
        if rng.random() < 0.5:
            new = old + ONE
        else:
            new = ZETA if old == ZERO else ZERO
        mutant = copy.deepcopy(data)
        mutant["coproduct_matrix"][r][c] = new.to_strings()
        with pytest.raises(ValueError, match="^stored structure fails "
                                             "coassociative: images of "):
            hopf_from_dict(mutant)


def test_commutativity_flags_on_kp():
    comm, cocomm, wit = commutativity_flags(BUILT.kp.hopf)
    assert not comm and not cocomm
    assert wit


def test_commutativity_flags_on_the_groupoid_structure():
    # read from the basis table alone, so a groupoid algebra has them too:
    # delta_s1 lam delta_s1 = 0, since the action moves s1
    assert commutativity_flags(BUILT.smash.groupoid_hopf) == (False, False, {
        "commutative": "ds1 * ds1*lam = ds1*lam but ds1*lam * ds1 = 0",
        "cocommutative": "coproduct of ds1 is not flip-invariant"})


# matrix-level reference ------------------------------------------------------

def mult_map(alg):
    """Multiplication as a linear map from the tensor square."""
    n = alg.dim
    ta = tensor_algebra(alg, alg)
    cols = [{} for _ in range(ta.dim)]
    for p in range(n):
        for q in range(n):
            r = alg.mul_basis(p, q)
            if r is not None:
                cols[p * n + q] = {r: ONE}
    return LinearMap(ta, alg, cols)


def _reference_witness(alg, f, g):
    for j, (a, b) in enumerate(zip(f.cols, g.cols)):
        if a != b:
            keys = sorted(set(a) | set(b), key=lambda k: (k not in a, k))
            k = next(k for k in keys if a.get(k, ZERO) != b.get(k, ZERO))
            return (f"images of {alg.basis_name(j)} differ: coefficient "
                    f"{a.get(k, ZERO)} vs {b.get(k, ZERO)} at "
                    f"{f.target.basis_name(k)}")
    return ""


def cancellation_ranks(h):
    """The ranks of the n^2 vectors (e_p (x) 1) Delta(e_q) and of the n^2
    vectors (1 (x) e_p) Delta(e_q): cancellation holds when both are n^2."""
    alg = h.algebra
    one, basis = alg.unit(), alg.basis()
    dcol = [AlgElement(h.coproduct.target, col) for col in h.coproduct.cols]
    return tuple(exact_rank([(factor(b) * d).coords for b in basis
                             for d in dcol])
                 for factor in (lambda b: b.tensor(one),
                                lambda b: one.tensor(b)))


def reference_axioms(h):
    """The axioms as identities of materialized maps on the tensor square
    and cube, and cancellation as ranks of the n^2 spanning vectors."""
    alg = h.algebra
    n = alg.dim
    delta, counit, antipode = h.coproduct, h.counit, h.antipode
    rep = Report()
    ident = LinearMap.identity(alg)

    def law(name, f, g):
        # k (x) A and A (x) k are A, and (A (x) A) (x) A is A (x) (A (x) A),
        # on the same indices but not as the same algebra objects
        assert f.source == g.source and f.target.dim == g.target.dim
        rep.record(name, f.cols == g.cols, _reference_witness(alg, f, g))

    law("coassociative", tensor_map(delta, ident).compose(delta),
        tensor_map(ident, delta).compose(delta))
    law("counit_left", tensor_map(counit, ident).compose(delta), ident)
    law("counit_right", tensor_map(ident, counit).compose(delta), ident)
    m = mult_map(alg)
    eta_eps = LinearMap(alg, alg, [alg.unit().scale(h.counit_value(b)).coords
                                   for b in alg.basis()])
    law("antipode_left",
        m.compose(tensor_map(antipode, ident)).compose(delta), eta_eps)
    law("antipode_right",
        m.compose(tensor_map(ident, antipode)).compose(delta), eta_eps)

    one = alg.unit()
    basis = alg.basis()
    for prefix, f in (("coproduct_", delta), ("counit_", counit)):
        # f m = m (f (x) f), f(1) = 1 and f * = * f, column by column
        tgt = f.target
        lhs = f.compose(m)
        rhs = mult_map(tgt).compose(tensor_map(f, f))
        wit = next((f"image of {alg.basis_name(p)} * {alg.basis_name(q)} is "
                    "not the product of images"
                    for p in range(n) for q in range(n)
                    if lhs.cols[p * n + q] != rhs.cols[p * n + q]), "")
        rep.record(f"{prefix}multiplicative", not wit, wit)
        rep.record(f"{prefix}unital", f(one) == tgt.unit(),
                   "image of the unit is not the unit")
        wit = next((f"*-structure mismatch at {alg.basis_name(p)}"
                    for p in range(n)
                    if f(basis[p].star()) != f(basis[p]).star()), "")
        rep.record(f"{prefix}star", not wit, wit)
    for side, rank in zip(("left", "right"), cancellation_ranks(h)):
        rep.record(f"cancellation_{side}", rank == n * n,
                   f"{side} cancellation span has rank {rank}, expected {n * n}")
    return rep


# laws that follow from checks recorded before them (see verify_hopf_axioms)
DERIVED = ("antipode_right", "coproduct_unital", "counit_multiplicative",
           "counit_unital", "counit_star", "cancellation_left",
           "cancellation_right")


def assert_matches_reference(h):
    """verify_hopf_axioms records the reference's checks and witnesses but
    the derived laws, which follow from them: the verdict and the first
    failure are the reference's, which computes all of them."""
    rep, ref = verify_hopf_axioms(h), reference_axioms(h)
    assert rep.checks == {k: ok for k, ok in ref.checks.items()
                          if k not in DERIVED}
    assert rep.witnesses == {k: w for k, w in ref.witnesses.items()
                             if k not in DERIVED}
    assert rep.passed == ref.passed
    assert rep.first_failure() == ref.first_failure()
    return rep


@pytest.mark.parametrize("build", [lambda: BUILT.kp.hopf,
                                   lambda: BUILT.smash.hopf])
def test_axioms_match_the_matrix_level_form(build):
    assert assert_matches_reference(build()).passed


def mutant(h, which, j, k, mode):
    """h with one coefficient of one map changed: + 1, or zero <-> z."""
    parts = {"coproduct": h.coproduct, "counit": h.counit,
             "antipode": h.antipode}
    f = parts[which]
    cols = [dict(c) for c in f.cols]
    v = cols[j].get(k, ZERO)
    cols[j][k] = v + ONE if mode == "plus" else (ZERO if v else ZETA)
    parts[which] = LinearMap(f.source, f.target, cols)
    return HopfAlgebra(h.algebra, **parts)


@pytest.mark.parametrize("which, j, k, mode", [
    (which, j, k, mode)
    for which, j, k in random.Random(7).sample(
        [("coproduct", j, k) for j in range(8) for k in range(64)]
        + [("counit", j, 0) for j in range(8)]
        + [("antipode", j, k) for j in range(8) for k in range(8)], 12)
    for mode in ("plus", "swap")])
def test_function_algebra_mutants_match_the_matrix_level_form(which, j, k,
                                                              mode):
    # + 1 keeps C(G) integral, so its laws run on ints; z makes them Q(z)
    fa = BUILT.smash.function_hopf
    rep = assert_matches_reference(mutant(fa, which, j, k, mode))
    assert not rep.passed
    assert set(rep.witnesses) == {k for k, ok in rep.checks.items() if not ok}


def test_integral_structures_do_no_q_z_arithmetic(monkeypatch):
    # every coefficient of C(G) and of the crossed product on its groupoid
    # basis is 0 or 1, so their laws run on ints
    structures = [BUILT.smash.function_hopf, BUILT.smash.groupoid_hopf]
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counting(*args, op=getattr(Cyc, name)):
            calls.append(op)
            return op(*args)

        monkeypatch.setattr(Cyc, name, counting)
    assert ONE + ONE and calls    # the counter sees an operation
    calls.clear()
    for h in structures:
        assert verify_hopf_axioms(h).passed
    assert not calls


@st.composite
def kp_mutants(draw):
    which = draw(st.sampled_from(["coproduct", "counit", "antipode"]))
    f = getattr(BUILT.kp.hopf, which)
    return (which, draw(st.integers(0, f.source.dim - 1)),
            draw(st.integers(0, f.target.dim - 1)),
            draw(st.sampled_from(["plus", "swap"])))


@settings(max_examples=40)
@given(kp_mutants())
# counit witnesses name k (x) A and A (x) k, down to a 2x2 block
@example(("counit", 5, 0, "plus"))
# both reference cancellation ranks fall to 63, and earlier checks fail
@example(("coproduct", 1, 1, "swap"))
# the right reference rank alone falls, to 63
@example(("coproduct", 4, 44, "swap"))
def test_kp_mutants_match_the_matrix_level_form(m):
    rep = assert_matches_reference(mutant(BUILT.kp.hopf, *m))
    assert not rep.passed
    assert set(rep.witnesses) == {k for k, ok in rep.checks.items() if not ok}
