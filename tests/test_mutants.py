"""Seeded mutants of entered and loaded tables.

Every mutant must flip its verdict with a witness, and none may be accepted
or crash the check.  The census assertions record which check catches a
mutant when it is the only one to do so.
"""

import itertools
import random

import pytest

from hopfcheck import cli
from hopfcheck.category_checks import ty
from hopfcheck.cyclotomic import HALF, ONE, ZERO, ZETA
from hopfcheck.group_twist import block_basis
from hopfcheck.hopf_core import HopfAlgebra, check_hopf_morphism, \
    hopf_from_dict, hopf_to_dict, verify_hopf_axioms
from hopfcheck.linalg import left_inverse
from hopfcheck.models import build_kp, build_phi_and_verify, build_smash, \
    build_vtilde_twist
from hopfcheck.multimatrix import LinearMap, tensor_compose
from test_hopf_core import assert_matches_reference


def test_every_phi_mutant_is_rejected_with_a_witness():
    # each coefficient of the 8 x 8 base change, + 1 or zero <-> z
    phi = build_phi_and_verify().map
    tw, kp = build_vtilde_twist().hopf, build_kp().hopf
    sole = set()
    mutants = list(itertools.product(range(phi.source.dim),
                                     range(phi.target.dim), ("plus", "swap")))
    assert len(mutants) == 128
    for j, k, mode in mutants:
        cols = [dict(c) for c in phi.cols]
        v = cols[j].get(k, ZERO)
        cols[j][k] = v + ONE if mode == "plus" else (ZERO if v else ZETA)
        rep = check_hopf_morphism(LinearMap(phi.source, phi.target, cols),
                                  tw, kp, require="iso")
        failing = [name for name, ok in rep.checks.items() if not ok]
        assert failing and rep.witnesses.get(failing[0]), (j, k, mode)
        if len(failing) == 1:
            sole.add(failing[0])
    # an antipode-compatible edit is always caught by another check too
    assert "antipode" not in sole


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
    data = hopf_to_dict(cli._EXPORTS[model_id]())
    sizes = data["block_sizes"]
    perms = sorted(set(itertools.permutations(sizes)) - {tuple(sizes)})
    assert len(perms) == total
    for perm in random.Random(model_id).sample(perms, tried):
        with pytest.raises(ValueError, match="^stored structure fails "):
            hopf_from_dict({**data, "block_sizes": list(perm)})


def test_labels_are_names_that_a_load_keeps():
    # a load verifies structure; labels name blocks, and no check can tell
    # a reversed list from the written one
    kp = build_kp().hopf
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
    sm = build_smash()
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
