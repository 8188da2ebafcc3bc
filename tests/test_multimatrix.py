"""Multimatrix algebras, their elements, and linear maps between them."""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from hopfcheck.cyclotomic import (HALF, IM, INV_SQRT2, ONE, ZERO, ZETA, Cyc,
                                  mat_mul)
from hopfcheck.multimatrix import (SCALARS, AlgElement, GroupoidAlgebra,
                                   LinearMap, MultiMatrixAlgebra, partners,
                                   tensor_algebra, tensor_compose, tensor_map)

A = MultiMatrixAlgebra((1, 2), labels=("s", "m"))
B = MultiMatrixAlgebra((1, 1), labels=("p", "q"))
C = MultiMatrixAlgebra((2,), labels=("n",))

scalars = st.sampled_from((ZERO, ONE, -ONE, ZETA, IM, HALF, INV_SQRT2,
                           ONE + ZETA, -IM))


def decompose(alg, p):
    """(block, row, column) of basis index p of a multimatrix algebra,
    from its block sizes alone."""
    for b, n in enumerate(alg.block_sizes):
        if p < n * n:
            return (b, *divmod(p, n))
        p -= n * n
    raise IndexError(p)


def blocks(x):
    """The dense matrix blocks of a multimatrix element."""
    out = [[[ZERO] * n for _ in range(n)] for n in x.parent.block_sizes]
    for p, v in x.coords.items():
        b, i, j = decompose(x.parent, p)
        out[b][i][j] = v
    return out


def elements(alg):
    return st.builds(
        lambda vals: AlgElement(alg, {j: v for j, v in enumerate(vals) if v}),
        st.tuples(*[scalars] * alg.dim))


def maps(src, tgt):
    return st.builds(
        lambda rows: LinearMap.from_matrix(src, tgt, rows),
        st.tuples(*[st.tuples(*[scalars] * src.dim)] * tgt.dim))


def test_basis_indexing():
    assert A.dim == 5
    assert A.index(0, 0, 0) == 0
    assert A.index(1, 1, 0) == 3          # block-major, row-major inside
    assert decompose(A, 4) == (1, 1, 1)
    assert [A.index(*decompose(A, p)) for p in range(A.dim)] == list(
        range(A.dim))
    assert A.basis_name(0) == "s"
    assert A.basis_name(2) == "m[0,1]"


def test_basis_products():
    e11, e12 = A.basis_element(1, 0, 0), A.basis_element(1, 0, 1)
    e21, e22 = A.basis_element(1, 1, 0), A.basis_element(1, 1, 1)
    assert e11 * e12 == e12
    assert e12 * e21 == e11
    assert e12 * e12 == A.zero()
    assert e12.star() == e21
    assert (e11 + e22) * e12 == e12
    assert A.unit() * e21 == e21


def test_mul_basis_matches_elements():
    for p in range(A.dim):
        for q in range(A.dim):
            r = A.mul_basis(p, q)
            prod = A.basis()[p] * A.basis()[q]
            assert prod == (A.basis()[r] if r is not None else A.zero())


def test_equality_is_by_shape():
    assert A == MultiMatrixAlgebra((1, 2), labels=("x", "y"))
    assert A != B
    assert hash(A) == hash(MultiMatrixAlgebra((1, 2)))


def test_mixed_algebras_are_rejected():
    # equal dimension, different blocks: the left layout used to win
    x = MultiMatrixAlgebra((2,)).basis()[1]
    y = MultiMatrixAlgebra((1, 1, 1, 1)).basis()[2]
    for op in (operator.mul, operator.add, operator.sub):
        with pytest.raises(ValueError):
            op(x, y)
    # labels do not matter
    relabelled = MultiMatrixAlgebra((1, 2), labels=("x", "y")).basis()
    assert relabelled[2] * A.basis()[3] == A.basis()[1]
    assert relabelled[2] + A.basis()[3] - A.basis()[2] == A.basis()[3]


D = MultiMatrixAlgebra((1, 2, 3))
sparse_elements = st.dictionaries(st.integers(0, D.dim - 1), scalars,
                                  max_size=9).map(
                                      lambda c: AlgElement(D, c))


@settings(max_examples=300)
@given(sparse_elements, sparse_elements)
def test_product_is_the_blockwise_matrix_product(x, y):
    want = [mat_mul(bx, by) for bx, by in zip(blocks(x), blocks(y))]
    assert blocks(x * y) == want


def test_tensor_labels_follow_the_factors():
    # e_p (x) e_q is named after the factors' own basis elements
    xm = MultiMatrixAlgebra((1, 2), labels=("x", "m"))
    yn = MultiMatrixAlgebra((1, 2), labels=("y", "n"))
    xa = tensor_algebra(xm, xm)
    ta = tensor_algebra(yn, yn)
    assert ta.dim == yn.dim ** 2
    assert ta.basis_name(1) == "y(x)n[0,0]"
    assert ta.basis_name(3 * yn.dim) == "n[1,0](x)y"
    assert xa.basis_name(1) == "x(x)m[0,0]"
    # the same factors give the same algebra
    assert tensor_algebra(yn, yn) is ta
    assert tensor_algebra(MultiMatrixAlgebra((1, 2), labels=("y", "n")),
                          yn) is ta


def test_tensor_split_inverts_the_table():
    # e_p (x) e_q has index p * dim + q, so divmod splits it
    z2 = GroupoidAlgebra(2, lambda p, q: p ^ q, lambda p: p, "eg".__getitem__,
                         [0])
    for alg in (A, z2):
        n, name, basis = alg.dim, alg.basis_name, alg.basis()
        ta = tensor_algebra(alg, alg)
        assert ta.dim == n * n
        for t in range(ta.dim):
            p, q = divmod(t, n)
            assert ta.basis_name(t) == f"{name(p)}(x){name(q)}"
            assert basis[p].tensor(basis[q]).coords == {t: ONE}


def brute_partners(alg):
    n = alg.dim
    return tuple(tuple((c, r) for c in range(n)
                       if (r := alg.mul_basis(a, c)) is not None)
                 for a in range(n))


def test_tensor_partners_come_from_the_factors(monkeypatch):
    # a tensor product's table comes from its factors' tables, with no
    # product taken in the square (dim^2 of them, two factor products each)
    calls = 0
    original = MultiMatrixAlgebra.mul_basis

    def counted(self, p, q):
        nonlocal calls
        calls += 1
        return original(self, p, q)

    monkeypatch.setattr(MultiMatrixAlgebra, "mul_basis", counted)
    # labels no other test uses, so the square is built here
    alg = MultiMatrixAlgebra((1, 2, 3), labels=("u", "v", "w"))
    square = tensor_algebra(alg, alg)
    partners(alg)
    calls = 0
    part = partners(square)
    assert calls == 0
    monkeypatch.undo()
    assert part == brute_partners(square)


def test_tensor_partners_match_brute_force():
    z3 = GroupoidAlgebra(3, lambda p, q: (p + q) % 3, lambda p: -p % 3,
                         "egh".__getitem__, [0])
    for a, b in ((A, A), (A, z3), (z3, C), (z3, tensor_algebra(C, z3))):
        ta = tensor_algebra(a, b)
        assert partners(ta) == brute_partners(ta)


def test_groupoid_tensor_products():
    # the group Z/2 = {e, g} as a one-object groupoid, and a 2x2 block as a
    # pair groupoid: their tensor product is the product groupoid's algebra
    z2 = GroupoidAlgebra(2, lambda p, q: p ^ q, lambda p: p, "eg".__getitem__,
                         [0])
    ta = tensor_algebra(z2, C)

    def tidx(p, q):
        return p * C.dim + q

    assert ta.dim == 8 and list(ta.units) == [0, 3]
    assert ta.basis_name(tidx(1, 2)) == "g(x)n[1,0]"
    # (g (x) e21)(g (x) e12) = e (x) e22, and e21 e21 = 0
    assert ta.mul_basis(tidx(1, 2), tidx(1, 1)) == tidx(0, 3)
    assert ta.mul_basis(tidx(1, 2), tidx(0, 2)) is None
    assert ta.star_index(tidx(1, 1)) == tidx(1, 2)
    assert tensor_algebra(SCALARS, z2).basis_name(1) == "k(x)g"
    assert z2 != MultiMatrixAlgebra((1, 1))
    assert ta.unit().coords == {0: ONE, 3: ONE}


def test_tensor_algebra_shape():
    ta = tensor_algebra(A, C)
    assert ta.dim == A.dim * C.dim
    # simple tensors of basis elements are basis elements of the product
    x = A.basis_element(1, 0, 1)
    y = C.basis_element(0, 1, 0)
    assert x.tensor(y) == ta.basis()[A.index(1, 0, 1) * C.dim
                                     + C.index(0, 1, 0)]


def test_tensor_of_products():
    x1, x2 = A.basis_element(1, 0, 1), A.basis_element(1, 1, 0)
    y1, y2 = C.basis_element(0, 0, 0), C.basis_element(0, 0, 1)
    assert x1.tensor(y1) * x2.tensor(y2) == (x1 * x2).tensor(y1 * y2)


def test_linear_map_shapes():
    with pytest.raises(ValueError):
        LinearMap(A, B, [{}] * 3)
    with pytest.raises(ValueError):
        LinearMap.from_matrix(A, B, [[ONE] * 3] * B.dim)
    ident = LinearMap.identity(A)
    x = A.basis_element(1, 0, 0)
    assert ident(x) == x
    with pytest.raises(ValueError):
        LinearMap.identity(B)(x)


def test_map_matrix_round_trip():
    f = LinearMap.from_matrix(A, B, [[ONE if (i + j) % 3 == 0 else ZERO
                                      for j in range(A.dim)]
                                     for i in range(B.dim)])
    assert LinearMap.from_matrix(A, B, f.matrix()) == f


def flip_map(alg):
    """The tensor swap a tensor b -> b tensor a on the tensor square."""
    n = alg.dim
    ta = tensor_algebra(alg, alg)
    cols = [{} for _ in range(ta.dim)]
    for p in range(n):
        for q in range(n):
            cols[p * n + q] = {q * n + p: ONE}
    return LinearMap(ta, ta, cols)


def test_mult_and_flip():
    x, y = A.basis_element(1, 0, 1), A.basis_element(1, 1, 1)
    assert A.mul_basis(A.index(1, 0, 1), A.index(1, 1, 1)) == A.index(1, 0, 1)
    assert x * y == x and y * x == A.zero()
    fl = flip_map(A)
    assert fl(x.tensor(y)) == y.tensor(x)
    assert fl.compose(fl) == LinearMap.identity(fl.source)


def test_zero_columns_are_stripped():
    f = LinearMap(A, A, [{0: ZERO, 1: ONE}] + [{}] * 4)
    assert f.cols[0] == {1: ONE}


# star is an antilinear anti-automorphism: four properties at 250 examples
# each is 1000 randomized cases

@settings(max_examples=250)
@given(elements(A), elements(A))
def test_star_reverses_products(x, y):
    assert (x * y).star() == y.star() * x.star()


@settings(max_examples=250)
@given(elements(A))
def test_star_involutive(x):
    assert x.star().star() == x


@settings(max_examples=250)
@given(elements(A), elements(A))
def test_star_additive(x, y):
    assert (x + y).star() == x.star() + y.star()


@settings(max_examples=250)
@given(elements(A), scalars)
def test_star_antilinear(x, c):
    assert x.scale(c).star() == x.star().scale(c.conj())


# the tensor construction is functorial: 700 + 300 examples over the two
# properties is 1000 randomized cases

@settings(max_examples=700)
@given(maps(A, B), maps(A, B), elements(A), elements(A))
def test_tensor_map_on_pure_tensors(f, g, x, y):
    assert tensor_map(f, g)(x.tensor(y)) == f(x).tensor(g(y))


@settings(max_examples=300)
@given(maps(A, B), maps(B, A), maps(A, B), maps(B, A))
def test_tensor_map_composes(f1, f2, g1, g2):
    lhs = tensor_map(f2, g2).compose(tensor_map(f1, g1))
    rhs = tensor_map(f2.compose(f1), g2.compose(g1))
    assert lhs == rhs
    assert tensor_compose(f2, g2, tensor_map(f1, g1)) == lhs


def test_tensor_of_identities():
    ta = tensor_algebra(A, B)
    assert tensor_map(LinearMap.identity(A), LinearMap.identity(B)) \
        == LinearMap.identity(ta)


def test_maps_take_no_product_by_one_and_no_sum_with_zero(monkeypatch):
    """apply_coords and tensor_compose scale a column only by a coefficient
    other than one (the scalar is a product's left operand), and add only
    to an index that is present, so no sum has a zero operand."""
    f = LinearMap.from_matrix(B, A, [[ONE, ZETA], [0, 0], [HALF, ONE],
                                     [ONE, -IM], [0, ONE]])
    g = LinearMap.from_matrix(B, C, [[ONE, ONE], [ZETA, 0], [0, HALF],
                                     [-ONE, ONE]])
    bb = tensor_algebra(B, B)
    h = LinearMap.from_matrix(B, bb, [[ONE, ZETA], [HALF, ONE], [ONE, 0],
                                      [-ONE, ONE]])
    vec = {0: ONE, 1: ZETA}
    want_vec = f.apply_coords(vec)
    want_map = tensor_map(f, g).compose(h)
    calls = []
    for name in ("__mul__", "__add__"):
        def spy(a, b, op=getattr(Cyc, name), name=name):
            calls.append((name, a, b))
            return op(a, b)
        monkeypatch.setattr(Cyc, name, spy)
    assert f.apply_coords(vec) == want_vec
    assert tensor_compose(f, g, h) == want_map
    assert [a for name, a, _ in calls if name == "__mul__" and a == ONE] == []
    sums = [(a, b) for name, a, b in calls if name == "__add__"]
    assert sums and all(a and b for a, b in sums)
