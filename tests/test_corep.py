"""Corepresentations: verification, intertwiners, one-dimensional groups."""

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.corep import (Corep, hom_dim, intertwiners, one_dim_group,
                             tensor_corep, verify_corep)
from hopfcheck.cyclotomic import ONE, ZERO
from hopfcheck.group_twist import (Mat2, SmashProduct, conjugation_action,
                                   generate_group)
from hopfcheck.models import Build

BUILT = Build()
I2 = Mat2([[ONE, ZERO], [ZERO, ONE]])


def cyclic_function_hopf(order_matrix, cap):
    group = generate_group([order_matrix], cap=cap)
    return SmashProduct(conjugation_action(group, I2)).function_hopf


def test_verify_corep_on_the_fundamental():
    f = BUILT.fundamental
    assert f.report.passed
    # the model's report holds uprime's checks; ukp is verified where used
    for rep in (f.report, verify_corep(f.ukp)):
        assert rep.checks["comultiplicative"]
        assert rep.checks["counit"]
        assert rep.checks["unitary"]


def test_broken_corep_is_caught():
    kp = BUILT.kp
    u = BUILT.fundamental.ukp
    swapped = Corep(kp.hopf, [[u.entries[0][1], u.entries[0][0]],
                              [u.entries[1][1], u.entries[1][0]]])
    assert not verify_corep(swapped).passed


def test_trivial_corep():
    kp = BUILT.kp
    triv = Corep(kp.hopf, [[kp.hopf.algebra.unit()]])
    rep = verify_corep(triv)
    assert rep.passed
    assert hom_dim(triv, triv) == 1


def test_tensor_with_trivial_changes_nothing():
    kp = BUILT.kp
    u = BUILT.fundamental.ukp
    triv = Corep(kp.hopf, [[kp.hopf.algebra.unit()]])
    assert tensor_corep(triv, u).entries == u.entries
    assert tensor_corep(u, triv).entries == u.entries


def test_irreducibility_of_the_fundamental():
    u = BUILT.fundamental.ukp
    assert hom_dim(u, u) == 1
    lines = [Corep(BUILT.kp.hopf, [[g]])
             for g in BUILT.tensor_square.printed]
    for line in lines:
        assert hom_dim(line, u) == 0
        assert hom_dim(u, line) == 0
    for i, x in enumerate(lines):
        for j, y in enumerate(lines):
            assert hom_dim(x, y) == (1 if i == j else 0)


def test_one_dim_group_of_two_point_algebra():
    # C(Z/2): its two characters delta_e +- delta_g are its two group-likes
    h = cyclic_function_hopf(-I2, cap=4)
    e, g = h.algebra.basis()
    found = one_dim_group([Corep(h, [[e + g]]), Corep(h, [[e - g]])])
    assert found.elements == [h.algebra.unit(), e - g]
    assert found.table == [[0, 1], [1, 0]]


def test_one_dim_group_of_kp_is_klein():
    # certified from the four printed lines and the fundamental, unit first
    ts = BUILT.tensor_square
    found = ts.group
    assert found.elements == ts.printed
    assert found.elements[0] == BUILT.kp.hopf.algebra.unit()
    e = 0
    for a in range(4):
        assert found.table[a][a] == e
        assert found.table[e][a] == a


def refused_lists():
    # each list fails exactly one condition; the reducible member is a
    # unitary corep, so only its hom_dim refuses it
    lines = [Corep(BUILT.kp.hopf, [[g]])
             for g in BUILT.tensor_square.printed]
    f = BUILT.fundamental
    u = f.ukp
    g1, g2 = lines[1].entries[0][0], lines[2].entries[0][0]
    zero = g1.parent.zero()
    reducible = Corep(u.hopf, [[g1, zero], [zero, g2]])
    swapped = Corep(u.hopf, [[u.entries[0][1], u.entries[0][0]],
                             [u.entries[1][1], u.entries[1][0]]])
    return {
        "sum-to-7": (lines[:3] + [u], "squared sizes sum to 7"),
        "reducible": (lines + [reducible],
                      "hom_dim of members 4 and 4 is 2, not 1"),
        "repeated-line": ([lines[0], lines[1], lines[1], lines[3], u],
                          "hom_dim of members 1 and 2 is 1, not 0"),
        "swapped-columns": (lines + [swapped],
                            "member 4 is not a unitary corepresentation"),
        "twist-fundamental": (lines + [f.uprime], "same Hopf algebra"),
    }


@pytest.mark.parametrize("case", ["sum-to-7", "reducible", "repeated-line",
                                  "swapped-columns", "twist-fundamental"])
def test_one_dim_group_refuses_an_uncertified_list(case):
    irreps, message = refused_lists()[case]
    with pytest.raises(ValueError, match=message):
        one_dim_group(irreps)


def test_coreps_of_two_hopf_structures_do_not_mix():
    # the twist and the direct model share their block sizes (1,1,1,1,2)
    # but not their coproduct
    f = BUILT.fundamental
    assert f.uprime.hopf.algebra == f.ukp.hopf.algebra
    with pytest.raises(ValueError, match="same Hopf algebra"):
        tensor_corep(f.uprime, f.ukp)
    with pytest.raises(ValueError, match="same Hopf algebra"):
        intertwiners(f.uprime, f.ukp)
    with pytest.raises(ValueError, match="same Hopf algebra"):
        hom_dim(f.uprime, f.ukp)


def test_fusion_graph_labels_and_flags():
    g = BUILT.fusion_graph
    # the vertices u1 .. u4 are the entered lines, then the fundamental
    ts = BUILT.tensor_square
    assert [u.entries for u in ts.group.irreps] == [
        [[x]] for x in ts.printed] + [BUILT.fundamental.ukp.entries]
    # complete and irreducible: the graph's vertices are the certified list
    irreps = BUILT.tensor_square.group.irreps
    assert sum(d * d for d in g.dims) == BUILT.kp.hopf.dim
    assert [u.size for u in irreps] == g.dims
    assert all(hom_dim(u, u) == 1 for u in irreps)


# intertwiner spaces, randomized over tensor words in the irreducibles:
# two properties at 500 examples each is 1000 cases

_WORDS = None


def word_corpus():
    global _WORDS
    if _WORDS is None:
        kp = BUILT.kp
        lines = [Corep(kp.hopf, [[g]]) for g in BUILT.tensor_square.printed]
        fund = BUILT.fundamental.ukp
        gens = lines + [fund]
        words = list(gens)
        for x in gens:
            for y in gens:
                words.append(tensor_corep(x, y))
        _WORDS = words
    return _WORDS


@settings(max_examples=500)
@given(st.data())
def test_hom_dimension_is_symmetric(data):
    words = word_corpus()
    u = data.draw(st.sampled_from(words))
    v = data.draw(st.sampled_from(words))
    assert hom_dim(u, v) == hom_dim(v, u)


@settings(max_examples=500)
@given(st.data())
def test_intertwiners_actually_intertwine(data):
    words = word_corpus()
    u = data.draw(st.sampled_from(words))
    v = data.draw(st.sampled_from(words))
    zero = u.hopf.algebra.zero()
    for t in intertwiners(u, v):
        for i in range(v.size):
            for j in range(u.size):
                lhs = zero
                for k in range(u.size):
                    if t[i][k]:
                        lhs = lhs + u.entries[k][j].scale(t[i][k])
                rhs = zero
                for l in range(v.size):
                    if t[l][j]:
                        rhs = rhs + v.entries[i][l].scale(t[l][j])
                assert lhs == rhs
