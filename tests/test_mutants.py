"""Seeded mutants of entered and loaded tables.

Every mutant must flip its verdict with a witness, and none may be accepted
or crash the check.  The census assertions record which check catches a
mutant when it is the only one to do so.
"""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hopfcheck import cli, hopf_core, models
from hopfcheck.category_checks import ty
from hopfcheck.corep import Corep, fusion_graph, verify_corep
from hopfcheck.cyclotomic import Cyc, HALF, IM, INV_SQRT2, ONE, ZERO, ZETA
from hopfcheck.group_twist import FiniteMatrixGroup, Mat2, SubalgebraError, \
    block_basis, coset_basis, function_basis, subalgebra_hopf
from hopfcheck.hopf_core import HopfAlgebra, Report, hopf_from_dict, \
    hopf_to_dict, verify_hopf_axioms
from hopfcheck.linalg import left_inverse
from hopfcheck.models import Build, star_shape_checks
from hopfcheck.multimatrix import (SCALARS, AlgElement, LinearMap,
                                   MultiMatrixAlgebra, tensor_compose)
from test_hopf_core import assert_matches_reference, check_morphism, mutant

BUILT = Build()


def test_every_phi_mutant_is_rejected_with_a_witness():
    # each coefficient of the 8 x 8 base change, + 1 or zero <-> z
    phi = BUILT.phi.map
    tw, kp = BUILT.twist.hopf, BUILT.kp.hopf
    mutants = list(itertools.product(range(phi.source.dim),
                                     range(phi.target.dim), ("plus", "swap")))
    assert len(mutants) == 128
    for j, k, mode in mutants:
        cols = [dict(c) for c in phi.cols]
        v = cols[j].get(k, ZERO)
        cols[j][k] = v + ONE if mode == "plus" else (ZERO if v else ZETA)
        rep = check_morphism(LinearMap(phi.source, phi.target, cols), tw, kp)
        failing = [name for name, ok in rep.checks.items() if not ok]
        assert failing and rep.witnesses.get(failing[0]), (j, k, mode)


def _admissible_f_symbols():
    return [(x, y, z, u, v, t) for x in ty.SIMPLES for y in ty.SIMPLES
            for z in ty.SIMPLES for u in ty.fuse(x, y) for v in ty.fuse(y, z)
            for t in ty.fuse(u, z) if t in ty.fuse(x, v)]


def test_seeded_f_symbol_mutants_fail_at_half(monkeypatch):
    # one F-symbol with its sign flipped or 1 added; all 352 take ~3 s
    keys = _admissible_f_symbols()
    assert len(keys) == 176
    original = ty.F
    mutants = [(key, mode) for key in keys for mode in ("sign", "plus")]
    for key, mode in random.Random(11).sample(mutants, 48):
        def mutant(*args, key=key, mode=mode):
            c = original(*args)
            if args[:6] != key:
                return c
            return -c if mode == "sign" else c + ONE

        monkeypatch.setattr(ty, "F", mutant)
        # the pentagon catches every one, with or without unitarity
        assert ty.pentagon_report(HALF).failures, (key, mode)


@pytest.mark.parametrize("model_id, total, tried", [
    ("kp", 4, 4), ("vtilde-twist", 4, 4), ("smash", 34, 6)])
def test_block_size_permutations_are_rejected(model_id, total, tried):
    # a dump has no star field: the *-structure is fixed by the block sizes
    data = hopf_to_dict(cli._EXPORTS[model_id](BUILT))
    sizes = data["block_sizes"]
    perms = sorted(set(itertools.permutations(sizes)) - {tuple(sizes)})
    assert len(perms) == total
    for perm in random.Random(model_id).sample(perms, tried):
        with pytest.raises(ValueError, match="^stored structure fails "):
            hopf_from_dict({**data, "block_sizes": list(perm)})


def test_labels_are_names_that_a_load_keeps():
    # a load verifies structure; labels name blocks, and no check can tell
    # a reversed list from the written one
    kp = BUILT.kp.hopf
    data = hopf_to_dict(kp)
    data["labels"].reverse()
    back = hopf_from_dict(data)
    assert back.algebra.labels == tuple(reversed(kp.algebra.labels))
    assert back.coproduct.cols == kp.coproduct.cols


def test_groupoid_basis_mutants_fail_as_their_block_transports():
    # one coefficient of the crossed product's closed-form Delta, eps or S on
    # the basis delta_h lam^k, + 1 (the structure stays integral) or zero
    # <-> z (it needs Q(z)); carried to the blocks through the left inverse
    # dl of the block basis, the mutant must fail the same checks there, and
    # on delta_h lam^k it must match the matrix-level reference, whose
    # cancellation ranks are computed
    sm = BUILT.smash
    gh = sm.groupoid_hopf
    alg, basis = block_basis(sm)
    incl = LinearMap(alg, gh.algebra, [x.coords for x in basis])
    dl = LinearMap(gh.algebra, alg, left_inverse(incl.cols, gh.algebra.dim))

    def to_blocks(h):
        return HopfAlgebra(
            alg, tensor_compose(dl, dl, h.coproduct).compose(incl),
            h.counit.compose(incl), dl.compose(h.antipode).compose(incl))

    assert to_blocks(gh) == sm.hopf
    rng = random.Random(13)
    for i in range(24):
        which = rng.choice(["coproduct", "counit", "antipode"])
        f = getattr(gh, which)
        j = rng.randrange(f.source.dim)
        # about half of the edits hit a nonzero coefficient
        k = (rng.choice(sorted(f.cols[j])) if f.cols[j] and rng.randrange(2)
             else rng.randrange(f.target.dim))
        cols = [dict(c) for c in f.cols]
        v = cols[j].get(k, ZERO)
        cols[j][k] = v + ONE if i % 2 else (ZERO if v else ZETA)
        h = gh._replace(**{which: LinearMap(f.source, f.target, cols)})
        rep, blocks = assert_matches_reference(h), verify_hopf_axioms(
            to_blocks(h))
        failing = [name for name, ok in rep.checks.items() if not ok]
        assert failing and rep.witnesses.get(failing[0]), (which, j, k)
        assert failing == [name for name, ok in blocks.checks.items()
                           if not ok], (which, j, k)


MORPHISM_CHECKS = ["multiplicative", "unital", "star", "comultiplicative"]


def assert_preserves_counit_and_antipode(f, h1, h2):
    """eps_2 f == eps_1 and f S_1 == S_2 f, which check_hopf_morphism does
    not record: they follow from its checks when both ends are Hopf
    algebras (see there)."""
    assert h2.counit.compose(f) == h1.counit
    assert f.compose(h1.antipode) == h2.antipode.compose(f)


def basis_mutant(rng, amb, basis):
    """One seeded edit of a transport basis: a coefficient + 1 or zero <->
    z, a basis vector delta_h lam^k in place of an element, an element plus
    another, two elements swapped, an element times z, i or -1, an element
    replaced by its star, or every element conjugated by a unitary
    sum_h c_h delta_h with each c_h a power of i (the span stays a unital
    *-subalgebra, but need not stay a subcoalgebra)."""
    out = list(basis)
    t, s = rng.sample(range(len(basis)), 2)
    kind = rng.randrange(7)
    if kind == 0:
        c = rng.randrange(amb.dim)
        coords = dict(basis[t].coords)
        v = coords.get(c, ZERO)
        coords[c] = v + ONE if rng.randrange(2) else (ZERO if v else ZETA)
        out[t] = AlgElement(amb, coords)
    elif kind == 1:
        out[t] = AlgElement(amb, {rng.randrange(amb.dim): ONE})
    elif kind == 2:
        out[t] = basis[t] + basis[s]
    elif kind == 3:
        out[t], out[s] = basis[s], basis[t]
    elif kind == 4:
        out[t] = basis[t].scale(rng.choice((ZETA, IM, -ONE)))
    elif kind == 5:
        out[t] = basis[t].star()
    else:
        u = AlgElement(amb, {k: rng.choice((ONE, IM, -ONE, -IM))
                             for k in amb.unit().coords})
        out = [u * x * u.star() for x in basis]
    return out


def test_every_transport_mutant_fails_first_at_a_recorded_check(monkeypatch):
    """The transport records the four checks of check_hopf_morphism on its
    inclusion.  Seeded mutants of the order-8 coset, block and function
    bases are either rejected, as linearly dependent or at one of those four
    checks with its witness, or accepted; an accepted one passes every Hopf
    axiom, and its inclusion preserves the counit and the antipode, which
    no check records (see subalgebra_hopf)."""
    sm = BUILT.smash
    gh = sm.groupoid_hopf
    amb = gh.algebra
    reports = []

    class Spy(Report):
        def __init__(self):
            super().__init__()
            reports.append(self)

    rng = random.Random(29)
    tally = Counter()
    for target, basis in (coset_basis(sm, BUILT.vtilde.grading),
                          block_basis(sm), function_basis(sm)):
        for _ in range(80):
            edited = basis_mutant(rng, amb, basis)
            reports.clear()
            with monkeypatch.context() as m:
                m.setattr(hopf_core, "Report", Spy)
                try:
                    hopf = subalgebra_hopf(gh, edited, target)[0]
                except SubalgebraError as exc:
                    message = str(exc)
                else:
                    message = ""
            if message == "chosen elements are not linearly independent":
                assert reports == []
                tally["dependent"] += 1
                continue
            assert [list(rep.checks) for rep in reports] == [MORPHISM_CHECKS]
            if message:
                tally[first_failure(reports[0])] += 1
                assert message == (
                    f"inclusion fails {reports[0].first_failure()}")
                continue
            tally["accepted"] += 1
            assert verify_hopf_axioms(hopf).passed
            incl = LinearMap(target, amb, [x.coords for x in edited])
            assert_preserves_counit_and_antipode(incl, hopf, gh)
    assert tally["accepted"] and tally["multiplicative"], tally
    assert tally["comultiplicative"], tally


def first_failure(rep, witnessed=True):
    """The first failing check of a report, which must carry a witness
    when the check records one."""
    name = next(k for k, ok in rep.checks.items() if not ok)
    assert not witnessed or rep.witnesses.get(name), name
    return name


def assert_census(recorded, caught, open_names):
    """Every recorded name is caught first by some input or is open, and
    no open name is caught."""
    assert not set(caught) & set(open_names)
    assert [name for name in recorded
            if name not in caught and name not in open_names] == []


def on_two_points(delta, antipode):
    """A structure on C^2 = C e0 + C e1 with counit delta_0; delta(e0, e1)
    and antipode(e0, e1) list the images of e0 and e1."""
    alg = MultiMatrixAlgebra((1, 1))
    e = alg.basis()
    return HopfAlgebra(alg, LinearMap.from_images(alg, delta(*e)),
                       LinearMap(alg, SCALARS, [{0: ONE}, {}]),
                       LinearMap.from_images(alg, antipode(*e)))


def counit_right_first():
    # Delta(e_c) = 1 (x) e_c is coassociative with left counit delta_0, but
    # (id (x) eps) Delta(e1) = 0
    return on_two_points(lambda e0, e1: [(e0 + e1).tensor(x) for x in (e0, e1)],
                         lambda e0, e1: [e0, e1])


def coproduct_multiplicative_first():
    # the coalgebra of C[Z/2] carried to C^2 by 1 -> u = e0 + e1 and
    # g -> v = e0 + 2 e1, so Delta(e0) = 2 u (x) u - v (x) v and
    # Delta(e1) = v (x) v - u (x) u; with the pointwise product of C^2 the
    # antipode is S(u) = u, S(v) = 1 / v
    def delta(e0, e1):
        u, v = e0 + e1, e0 + e1.scale(2)
        uu, vv = u.tensor(u), v.tensor(v)
        return [uu.scale(2) - vv, vv - uu]

    half = Cyc.from_rational(Fraction(1, 2))
    return on_two_points(delta, lambda e0, e1: [e0 + e1.scale(3 * half),
                                                e1.scale(-half)])


T, T_INV = ((ONE, ONE), (ZERO, ONE)), ((ONE, -ONE), (ZERO, ONE))


def block_conjugation(t, t_inv):
    """e_kl -> t e_kl t^-1 on KP's M_2 block, the identity on its scalars;
    for t = T an algebra automorphism, but not a *-automorphism."""
    alg = BUILT.kp.hopf.algebra
    return LinearMap(alg, alg, [{p: ONE} for p in range(4)] + [
        {alg.index(4, i, j): t[i][k] * t_inv[l][j]
         for i in range(2) for j in range(2)}
        for k in range(2) for l in range(2)])


def coproduct_star_first():
    # KP carried through sigma = Ad T on its M_2 block
    kp = BUILT.kp.hopf
    alg = kp.algebra
    sigma, sigma_inv = block_conjugation(T, T_INV), block_conjugation(T_INV, T)
    return HopfAlgebra(alg,
                       tensor_compose(sigma, sigma, kp.coproduct)
                       .compose(sigma_inv),
                       kp.counit.compose(sigma_inv),
                       sigma.compose(kp.antipode).compose(sigma_inv))


def test_every_recorded_hopf_check_fails_first_on_some_structure():
    # every single-coefficient mutant of KP (+ 1, or zero <-> z), then one
    # structure for each check that no such mutant makes the first failure
    kp = BUILT.kp.hopf
    tally = Counter(
        first_failure(verify_hopf_axioms(mutant(kp, which, j, k, mode)))
        for which in ("coproduct", "counit", "antipode")
        for j in range(kp.dim) for k in range(getattr(kp, which).target.dim)
        for mode in ("plus", "swap"))
    assert tally == {"coassociative": 1024, "counit_left": 16,
                     "antipode_left": 128}
    built = {"counit_right": counit_right_first(),
             "coproduct_multiplicative": coproduct_multiplicative_first(),
             "coproduct_star": coproduct_star_first()}
    assert {name: first_failure(verify_hopf_axioms(h))
            for name, h in built.items()} == {
        name: name for name in built}
    for h in built.values():
        assert_matches_reference(h)
    recorded = list(verify_hopf_axioms(kp).checks)
    assert recorded == ["coassociative", "counit_left", "counit_right",
                        "antipode_left", "coproduct_multiplicative",
                        "coproduct_star"]
    assert_census(recorded, set(tally) | set(built), ())


# category reports: for each recorded name, an input that makes it the first
# failure, with a witness

_CHI = ty.chi

CHI_MUTANTS = {
    "symmetric": lambda x, y: -_CHI(x, y) if (x, y) == (1, 2) else _CHI(x, y),
    # symmetric and nondegenerate, but chi(1 ^ 2, 3) != chi(1, 3) chi(2, 3)
    "bimultiplicative":
        lambda x, y: -_CHI(x, y) if x == y == 3 else _CHI(x, y),
    "nondegenerate": lambda x, y: ONE,
}

RULES_MUTANTS = [
    ({"table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]},
     "relabelings_give_xor"),
    ({"fund_after_line": [1, 1, 1, 2]}, "big_absorbs_invertibles"),
    ({"fund_before_line": [1, 0, 1, 1]}, "big_absorbs_invertibles"),
    ({"lines_in_square": [1, 1, 2, 1]}, "square_sums_invertibles"),
    ({"fund_in_square": 1}, "square_sums_invertibles"),
]


def test_every_recorded_category_check_has_a_first_failure_mutant():
    assert list(ty.bicharacter_checks().checks) == list(CHI_MUTANTS)
    assert (list(ty.fusion_ring_match(BUILT.fusion_rules).checks)
            == list(dict.fromkeys(first for _, first in RULES_MUTANTS)))


@pytest.mark.parametrize("first", list(CHI_MUTANTS))
def test_each_bicharacter_check_fails_first_on_some_chi(monkeypatch, first):
    monkeypatch.setattr(ty, "chi", CHI_MUTANTS[first])
    assert first_failure(ty.bicharacter_checks()) == first


@pytest.mark.parametrize("edit, first", RULES_MUTANTS,
                         ids=[next(iter(edit)) for edit, _ in RULES_MUTANTS])
def test_each_fusion_check_fails_first_on_some_rules(edit, first):
    rules = {**BUILT.fusion_rules, **edit}
    assert first_failure(ty.fusion_ring_match(rules)) == first


def test_a_bicharacter_mutant_fails_through_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(ty, "chi", CHI_MUTANTS["nondegenerate"])
    assert cli.main(["verify", "--check", "ty.bicharacter", "--json"]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["verdict"] == "fail"
    assert result["witness"] == ("failing: nondegenerate: chi(x, y) == 1 "
                                 "for every y at x = 1")


# model-layer reports: for each recorded name, an input that makes it the
# first failure, or an entry in the report's open tuple with the reason no
# input is known to; each builder is called on its (mutated) inputs, so no
# record keeps a mutant

def edited(f, j, k, value):
    """The linear map f with coefficient (k, j) set to value."""
    cols = [dict(c) for c in f.cols]
    cols[j][k] = value
    return LinearMap(f.source, f.target, cols)


def recorded_names(monkeypatch, builder):
    """The names recorded by the Reports that builder creates."""
    reports = []

    class Spy(Report):
        def __init__(self):
            super().__init__()
            reports.append(self)

    with monkeypatch.context() as m:
        m.setattr(models, "Report", Spy)
        builder()
    return [name for rep in reports for name in rep.checks]


_R = INV_SQRT2
VTILDE_MUTANTS = {
    "s3_is_s1_s2": {"S3": -models.S3},
    "s2_s1_is_minus_s3": {"S1": Mat2([[ONE, ZERO], [ZERO, -ONE]]),
                          "S2": Mat2([[IM, ZERO], [ZERO, IM]]),
                          "S3": Mat2([[IM, ZERO], [ZERO, -IM]])},
    # the identity action is an automorphism, but not the one entered
    "action_sends_s1_to_minus_s2": {"U_ACT": Mat2.identity()},
    "dense_entry_witness_s1": {
        "S1": Mat2([[ZERO, ONE], [ONE, ZERO]]),
        "S2": Mat2([[ONE, ZERO], [ZERO, -ONE]]),
        "S3": Mat2([[ZERO, -ONE], [ONE, ZERO]]),
        "U_ACT": Mat2([[_R, -_R], [-_R, -_R]])},
}


def test_every_group_check_has_a_first_failure_mutant(monkeypatch):
    assert recorded_names(monkeypatch, models.build_vtilde) == list(
        VTILDE_MUTANTS)


@pytest.mark.parametrize("first", list(VTILDE_MUTANTS))
def test_each_group_check_fails_first_on_some_matrices(monkeypatch, first):
    for name, m in VTILDE_MUTANTS[first].items():
        monkeypatch.setattr(models, name, m)
    with pytest.raises(models.ModelMismatchError,
                       match=f"^group model fails {first}$"):
        models.build_vtilde()


# the builder raises unless the transported coproduct is the entered table,
# and both checks read that table
TWIST_OPEN = ("odd_coproduct_display", "noncocommutative")


def test_every_twist_check_fails_first_or_is_open():
    coset = list(BUILT.coset)
    coset[0] = BUILT.smash.delta_lambda(0, 1)    # not in the twist
    tw = models.build_vtilde_twist(BUILT.vtilde, BUILT.smash, coset)
    caught = {first_failure(tw.report)}
    assert caught == {"matches_coset_presentation"}
    assert_census(BUILT.twist.report.checks, caught, TWIST_OPEN)


def kp_with(**handles):
    """The direct model's record with some handles replaced."""
    kp = BUILT.kp
    return kp._replace(handles={**kp.handles, **handles})


def phi_inputs():
    """For each name of build_phi_and_verify's report that some input fails
    first, the direct model's record it maps to and the module attributes
    to set."""
    kp = BUILT.kp
    h, alg = kp.handles, kp.hopf.algebra
    zero_v_conj = {"V_CONJ": Mat2([[ZERO, ZERO], [ZERO, ZERO]])}
    return {
        "multiplicative": (kp_with(gamma=h["gamma"].scale(2)), {}),
        # the matrix block goes to 0, so 1 goes to the four lines
        "unital": (kp, zero_v_conj),
        # orthogonal idempotents summing to 1, one of them not self-adjoint
        "star": (kp_with(eps=h["eps"] + h["e11"] + h["e12"],
                         gamma=h["gamma"] + h["e22"] - h["e12"]),
                 zero_v_conj),
        # a *-automorphism that swaps two lines
        "comultiplicative": (kp_with(alpha=h["beta"], beta=h["alpha"]), {}),
        # x -> eps(x) 1
        "surjective": (kp_with(eps=alg.unit(), alpha=alg.zero(),
                               beta=alg.zero(), gamma=alg.zero()),
                       zero_v_conj),
        # -W conjugates as W does, so the twist's table is unchanged
        **{f"v_aligns_{w}_conjugator":
           (kp, {f"W_{w.upper()}": -getattr(models, f"W_{w.upper()}")})
           for w in ("alphap", "betap", "gammap")},
    }


def test_every_phi_check_fails_first_or_is_open(monkeypatch):
    tw, kp = BUILT.twist.hopf, BUILT.kp.hopf
    phi = BUILT.phi
    caught, accepted = {}, [phi.map]
    for first, (kp_input, attrs) in phi_inputs().items():
        with monkeypatch.context() as m:
            for name, value in attrs.items():
                m.setattr(models, name, value)
            result = models.build_phi_and_verify(BUILT.twist, kp_input)
        assert first_failure(result.report) == first
        caught[first] = result.report
        if first not in MORPHISM_CHECKS:
            accepted.append(result.map)
    assert_census(phi.report.checks, caught, ())
    # every map that passes check_hopf_morphism, x -> eps(x) 1 among them
    for f in accepted:
        assert_preserves_counit_and_antipode(f, tw, kp)
    assert caught["surjective"].witnesses["surjective"] == (
        "image has rank 1, source dimension 8, target dimension 8")


def conjugated_group(w, w_inv):
    """The twist record with its group's matrices h replaced by w h w_inv,
    so the fundamental's raw entries become w U w_inv."""
    tw = BUILT.twist
    g = tw.vtilde.group
    group = FiniteMatrixGroup([w * h * w_inv for h in g.elements], g.table,
                              g.names)
    return tw._replace(vtilde=tw.vtilde._replace(group=group))


def fundamental_inputs():
    """For each name of build_fundamental's report that some input fails
    first, the twist and base change it reads."""
    tw, phi = BUILT.twist, BUILT.phi
    hopf = tw.hopf
    unit = hopf.algebra.unit()
    alphap = tw.handles["alphap"].coords
    counit = edited(hopf.counit, next(iter(alphap)), 0, ONE)

    def phi_mutant(j, k):
        v = phi.map.cols[j].get(k, ZERO)
        return phi._replace(map=edited(phi.map, j, k, ZERO if v else ZETA))

    return {
        "comultiplicative": (tw._replace(
            to_twist=lambda x: tw.to_twist(x).scale(2)), phi),
        # eps(alphap) = 1 makes eps(u_11) = 0
        "counit": (tw._replace(hopf=hopf._replace(counit=counit)), phi),
        # T U T^-1 with T not unitary
        "unitary": (conjugated_group(Mat2(T), Mat2(T_INV)), phi),
        # W U W^* for a real rotation W
        "star_11_22": (conjugated_group(Mat2([[_R, _R], [-_R, _R]]),
                                        Mat2([[_R, -_R], [_R, _R]])), phi),
        # U -> the identity matrix, through x -> eps(x) 1
        "surjective": (tw._replace(to_twist=lambda x: unit.scale(
            hopf.counit_value(tw.to_twist(x)))), phi),
        "image_star_11_22": (tw, phi_mutant(0, 1)),
        "image_star_12_21": (tw, phi_mutant(2, 0)),
    }


# a 2x2 unitary corepresentation of the twist with d = a^* is W U W^* or
# W diag(g, h) W^* for a unitary W; the twist's group-likes are self-adjoint,
# and sigma_x conj(W) sigma_x = diag(p, q) W forces p = q, so b = c^* holds
FUNDAMENTAL_OPEN = ("star_12_21",)


def test_every_fundamental_check_fails_first_or_is_open():
    caught = set()
    for first, (tw, phi) in fundamental_inputs().items():
        rep = models.build_fundamental(tw, phi, BUILT.kp).report
        assert first_failure(rep, witnessed=first not in (
            "star_11_22", "image_star_11_22", "image_star_12_21")) == first
        caught.add(first)
    assert_census(BUILT.fundamental.report.checks, caught, FUNDAMENTAL_OPEN)


def tensor_square_inputs():
    """For each name of kp_tensor_square's report that some input fails
    first, the direct model's record it reads and the module attributes to
    set."""
    p = models._P_TABLES
    kp = BUILT.kp
    h = kp.handles
    merged = (4, tuple(tuple(2 * x + y for x, y in zip(r0, r1))
                       for r0, r1 in zip(p[0][1], p[1][1])))
    return {
        # P_0 + P_1 has trace 2
        "projections_rank_one": (kp, {"_P_TABLES": (merged,) + p[1:]}),
        # the lines come out in the order u_2, u_3, u_0, u_1
        "unit_is_first": (kp_with(e11=-h["e11"], e22=-h["e22"]), {}),
        "tensor_square_decomposes": (
            kp, {"_P_TABLES": (p[0], p[3], p[2], p[1])}),
    }


# one_dim_group accepts only the four group-likes of KP, which all square
# to 1; a first failure needs another Hopf algebra
TENSOR_SQUARE_OPEN = ("klein_squares",)


def test_every_tensor_square_check_fails_first_or_is_open(monkeypatch):
    caught = set()
    for first, (kp, attrs) in tensor_square_inputs().items():
        with monkeypatch.context() as m:
            for name, value in attrs.items():
                m.setattr(models, name, value)
            rep = models.kp_tensor_square(kp, BUILT.fundamental.ukp).report
        assert first_failure(
            rep, witnessed=first == "tensor_square_decomposes") == first
        caught.add(first)
    assert_census(BUILT.tensor_square.report.checks, caught,
                  TENSOR_SQUARE_OPEN)


def test_every_star_shape_check_fails_first_on_some_graph():
    ts = BUILT.tensor_square
    g1, g2 = ts.printed[1], ts.printed[2]
    zero = g1.parent.zero()
    (a, b), (c, d) = BUILT.fundamental.ukp.entries
    star = BUILT.fusion_graph
    graphs = [
        # a 2x2 fund that is the sum of two lines sends each line to two
        (fusion_graph(Corep(BUILT.kp.hopf, [[g1, zero], [zero, g2]]),
                      ts.group), "leaves_feed_center"),
        # the fundamental plus a line keeps every star edge and adds more
        (fusion_graph(Corep(BUILT.kp.hopf, [[a, b, zero], [c, d, zero],
                                            [zero, zero, g1]]), ts.group),
         "leaves_feed_center"),
        # row sums m_ij d_j == 2 d_i, as fusion_graph demands of a 2x2 fund
        (star._replace(multiplicities=star.multiplicities[:4] + [
            [2, 2, 0, 0, 0]]), "center_feeds_leaves"),
        # a loop at the center, as in the graph of a larger fund
        (star._replace(multiplicities=star.multiplicities[:4] + [
            [1, 1, 1, 1, 1]]), "center_feeds_leaves"),
    ]
    assert [first_failure(star_shape_checks(graph), witnessed=False)
            for graph, _ in graphs] == [first for _, first in graphs]
    assert_census(star_shape_checks(star).checks,
                  {first for _, first in graphs}, ())


def corep_inputs():
    """For each name of verify_corep, a corepresentation that fails it
    first."""
    kp = BUILT.kp.hopf
    g = BUILT.tensor_square.printed[1]   # eps - alpha - beta + gamma + ...
    (a, b), (c, d) = BUILT.fundamental.ukp.entries
    # T U T^-1 with T = [[1, 1], [0, 1]]
    skew = [[a + c, b + d - a - c], [c, d - c]]
    return {
        "comultiplicative": Corep(kp, [[g.scale(2)]]),
        # comultiplicative, as Delta(0) = 0; not invertible, so the counit
        # law does not give eps(u) = 1
        "counit": Corep(kp, [[kp.algebra.zero()]]),
        "unitary": Corep(kp, skew),
    }


def test_every_corep_check_fails_first_on_some_matrix():
    inputs = corep_inputs()
    assert {first: first_failure(verify_corep(u))
            for first, u in inputs.items()} == {k: k for k in inputs}
    assert_census(verify_corep(BUILT.fundamental.ukp).checks, inputs, ())


def morphism_inputs():
    """For each name of check_hopf_morphism, (f, h1, h2) failing it first."""
    kp = BUILT.kp.hopf
    alg = kp.algebra
    phi = BUILT.phi.map
    tw = BUILT.twist.hopf
    basis = alg.basis()
    swap = LinearMap.from_images(alg, [basis[0], basis[2], basis[1]]
                                 + basis[3:])
    return {
        "multiplicative": (edited(phi, 0, 0, phi.cols[0].get(0, ZERO) + ONE),
                           tw, kp),
        "unital": (LinearMap(alg, alg, [{}] * alg.dim), kp, kp),
        "star": (block_conjugation(T, T_INV), kp, kp),
        # a *-automorphism that swaps the lines alpha and beta
        "comultiplicative": (swap, kp, kp),
    }


def test_every_morphism_check_fails_first_on_some_map():
    inputs = morphism_inputs()
    assert {first: first_failure(check_morphism(*args))
            for first, args in inputs.items()} == {k: k for k in inputs}
    phi = BUILT.phi.map
    tw, kp = BUILT.twist.hopf, BUILT.kp.hopf
    assert_census(check_morphism(phi, tw, kp).checks, inputs, ())
