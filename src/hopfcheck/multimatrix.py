"""Finite-dimensional multimatrix and groupoid *-algebras over Q(z).

A multimatrix algebra is a direct sum of full matrix blocks; its canonical
basis is the matrix units ordered block-major, row-major inside each block.
A groupoid algebra has the arrows of a finite groupoid as its basis.  Both
have a basis table: the product of two basis elements is a basis element
(coefficient one) or zero, and star permutes the basis.  Elements carry
sparse coordinate dicts against that basis.

Every tensor product A (x) B has one layout: the product groupoid's algebra,
with e_p (x) e_q at index p * dim(B) + q, so no reverse index is kept.

Linear maps store one sparse column per source basis vector.  Dense matrices
are produced only at the serialization boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .cyclotomic import Cyc, ZERO, ONE
from .linalg import Vector, axpy, sum_terms

Scalar = Cyc | int | Fraction


def _cyc(x: Scalar) -> Cyc:
    return x if isinstance(x, Cyc) else Cyc.from_rational(x)


@lru_cache(maxsize=None)
def _layout(sizes: tuple[int, ...]) -> tuple[int, tuple, tuple, dict]:
    """Dimension, block starts, index -> (block, i, j) table and the cache
    of derived tables (see partners, tensor_algebra) of a block size tuple,
    shared by every algebra of that shape."""
    starts = []
    acc = 0
    for n in sizes:
        starts.append(acc)
        acc += n * n
    decomp = tuple((b, i, j) for b, n in enumerate(sizes)
                   for i in range(n) for j in range(n))
    return acc, tuple(starts), decomp, {}


class _BasisAlgebra:
    """The element constructors of an algebra with a basis table; the
    unit is the sum of the basis elements listed in units."""

    __slots__ = ()

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def unit(self) -> AlgElement:
        return AlgElement(self, dict.fromkeys(self.units, ONE))

    def basis(self) -> list[AlgElement]:
        return [AlgElement(self, {p: ONE}) for p in range(self.dim)]


class MultiMatrixAlgebra(_BasisAlgebra):
    """Direct sum of matrix algebras M_{n_1} + ... + M_{n_r}."""

    __slots__ = ("block_sizes", "labels", "dim", "_starts", "_decomp",
                 "_tables")

    def __init__(self, block_sizes: Sequence[int], labels: Sequence[str] | None = None):
        sizes = tuple(int(n) for n in block_sizes)
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("block sizes must be positive")
        if labels is not None and len(labels) != len(sizes):
            raise ValueError("one label per block")
        self.block_sizes = sizes
        self.labels = tuple(labels) if labels is not None else tuple(
            f"b{k}" for k in range(len(sizes)))
        self.dim, self._starts, self._decomp, self._tables = _layout(sizes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiMatrixAlgebra):
            return NotImplemented
        return self.block_sizes == other.block_sizes

    def __hash__(self) -> int:
        return hash(self.block_sizes)

    def __repr__(self) -> str:
        return f"MultiMatrixAlgebra({self.block_sizes})"

    # basis bookkeeping

    def index(self, block: int, i: int, j: int) -> int:
        return self._starts[block] + i * self.block_sizes[block] + j

    def mul_basis(self, p: int, q: int) -> int | None:
        """Index of e_p * e_q, or None when the product vanishes."""
        b1, i1, j1 = self._decomp[p]
        b2, i2, j2 = self._decomp[q]
        if b1 != b2 or j1 != i2:
            return None
        return self._starts[b1] + i1 * self.block_sizes[b1] + j2

    def star_index(self, p: int) -> int:
        b, i, j = self._decomp[p]
        return self._starts[b] + j * self.block_sizes[b] + i

    def basis_name(self, idx: int) -> str:
        b, i, j = self._decomp[idx]
        if self.block_sizes[b] == 1:
            return self.labels[b]
        return f"{self.labels[b]}[{i},{j}]"

    @property
    def units(self) -> list[int]:
        """The diagonal matrix units, whose sum is the unit."""
        return [self.index(b, i, i)
                for b, n in enumerate(self.block_sizes) for i in range(n)]

    def basis_element(self, block: int, i: int, j: int) -> AlgElement:
        return AlgElement(self, {self.index(block, i, j): ONE})


class GroupoidAlgebra(_BasisAlgebra):
    """The algebra of a finite groupoid on its basis of arrows.

    mul_basis(p, q) is the index of the composite arrow, or None when p and
    q do not compose; star_index(p) is the inverse arrow and units lists the
    identity arrows, whose sum is the unit.  The table is these functions,
    so a tensor product (the product groupoid's algebra, see tensor_algebra)
    stores none; partners reads its product table off its factors'.  A
    multimatrix algebra is the algebra of a union of pair groupoids, but a
    GroupoidAlgebra equals only itself, and the tables derived from it are
    cached on it, so they live as long as it does.
    """

    __slots__ = ("dim", "mul_basis", "star_index", "basis_name", "units",
                 "_tables", "__weakref__")

    def __init__(self, dim: int, mul_basis: Callable[[int, int], int | None],
                 star_index: Callable[[int], int],
                 basis_name: Callable[[int], str], units: Sequence[int]):
        self.dim = dim
        self.mul_basis = mul_basis
        self.star_index = star_index
        self.basis_name = basis_name
        self.units = units
        self._tables: dict = {}


Algebra = MultiMatrixAlgebra | GroupoidAlgebra


class AlgElement:
    """An element of a multimatrix or groupoid algebra, by its sparse
    coordinates against the basis."""

    __slots__ = ("parent", "coords")

    def __init__(self, parent: Algebra, coords: Vector):
        self.parent = parent
        self.coords = {p: v for p, v in coords.items() if v}

    def __bool__(self) -> bool:
        return bool(self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.parent == other.parent and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.parent, tuple(sorted(self.coords.items()))))

    def __add__(self, other: AlgElement) -> AlgElement:
        # != compares block sizes only; the pointer compare settles most calls
        if other.parent is not self.parent and other.parent != self.parent:
            raise ValueError("operands lie in different algebras")
        return AlgElement(self.parent,
                          axpy(dict(self.coords), ONE, other.coords))

    def __sub__(self, other: AlgElement) -> AlgElement:
        return self + (-other)

    def __neg__(self) -> AlgElement:
        return AlgElement(self.parent, {p: -v for p, v in self.coords.items()})

    def scale(self, c: Scalar) -> AlgElement:
        c = _cyc(c)
        if not c:
            return AlgElement(self.parent, {})
        return AlgElement(self.parent, axpy({}, c, self.coords))

    def __mul__(self, other: AlgElement) -> AlgElement:
        # != compares block sizes only; the pointer compare settles most calls
        if other.parent is not self.parent and other.parent != self.parent:
            raise ValueError("operands lie in different algebras")
        part, y = partners(self.parent), other.coords
        return AlgElement(self.parent, sum_terms(
            (r, x * w) for p, x in self.coords.items()
            for c, r in part[p] if (w := y.get(c)) is not None))

    def star(self) -> AlgElement:
        alg = self.parent
        return AlgElement(alg, {alg.star_index(p): v.conj()
                                for p, v in self.coords.items()})

    def tensor(self, other: AlgElement) -> AlgElement:
        acc: Vector = {}
        for p, x in self.coords.items():
            axpy(acc, x, other.coords, p * other.parent.dim)
        return AlgElement(tensor_algebra(self.parent, other.parent), acc)

    def describe(self) -> str:
        if not self.coords:
            return "0"
        parts = []
        for p in sorted(self.coords):
            v = self.coords[p]
            name = self.parent.basis_name(p)
            sv = str(v)
            parts.append(name if sv == "1" else f"({sv})*{name}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


def partners(alg) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The product table of alg: for each basis index a, the pairs (c, r)
    with e_a e_c = e_r.  Cached on alg (see _layout, GroupoidAlgebra).  A
    tensor product reads it off its factors' tables: e_(p,q) e_(c,d) is
    e_(r,s) when e_p e_c = e_r and e_q e_d = e_s."""
    tables = alg._tables
    if "partners" not in tables:
        if "factors" in tables:
            a, b = tables["factors"]
            nb = b.dim
            tables["partners"] = tuple(
                tuple((c * nb + d, r * nb + s) for c, r in x for d, s in y)
                for x in partners(a) for y in partners(b))
        else:
            n, mul = alg.dim, alg.mul_basis
            tables["partners"] = tuple(
                tuple((c, r) for c in range(n)
                      if (r := mul(a, c)) is not None)
                for a in range(n))
    return tables["partners"]


def tensor_algebra(a: Algebra, b: Algebra) -> GroupoidAlgebra:
    """The tensor product of a and b.

    A tensor product is the algebra of the product groupoid (Renault, A
    Groupoid Approach to C*-Algebras, LNM 793, 1980): e_p tensor e_q has
    index p * b.dim + q and is named <e_p>(x)<e_q>, so a caller splits an
    index t as divmod(t, b.dim).  It is cached on a groupoid factor when
    there is one and on a's layout otherwise.  The key holds the labels, so
    the names follow the factors, and the same factors give the same
    algebra, so maps into it compare equal.
    """
    tables = (b if type(b) is GroupoidAlgebra else a)._tables
    key = (a, getattr(a, "labels", None), b, getattr(b, "labels", None))
    if key not in tables:
        nb = b.dim
        amul, bmul = a.mul_basis, b.mul_basis

        def mul(s: int, t: int) -> int | None:
            p, q = amul(s // nb, t // nb), bmul(s % nb, t % nb)
            return None if p is None or q is None else p * nb + q

        tables[key] = GroupoidAlgebra(
            a.dim * nb, mul,
            lambda s: a.star_index(s // nb) * nb + b.star_index(s % nb),
            lambda s: f"{a.basis_name(s // nb)}(x){b.basis_name(s % nb)}",
            [u * nb + w for u in a.units for w in b.units])
        tables[key]._tables["factors"] = (a, b)
    return tables[key]


class LinearMap:
    """Linear map between algebras with a basis table (multimatrix or
    groupoid), stored as sparse columns."""

    __slots__ = ("source", "target", "cols")

    def __init__(self, source: Algebra, target: Algebra,
                 cols: Sequence[Vector]):
        if len(cols) != source.dim:
            raise ValueError("one column per source basis vector")
        self.source = source
        self.target = target
        self.cols = [{p: v for p, v in col.items() if v} for col in cols]

    @classmethod
    def identity(cls, alg: Algebra) -> LinearMap:
        return cls(alg, alg, [{p: ONE} for p in range(alg.dim)])

    @classmethod
    def from_images(cls, source: Algebra,
                    images: Sequence[AlgElement]) -> LinearMap:
        if not images:
            raise ValueError("empty image list")
        return cls(source, images[0].parent, [im.coords for im in images])

    def apply_coords(self, vec: Vector) -> Vector:
        acc: Vector = {}
        for j, c in vec.items():
            axpy(acc, c, self.cols[j])
        return acc

    def __call__(self, x: AlgElement) -> AlgElement:
        if x.parent != self.source:
            raise ValueError("element not in the source algebra")
        return AlgElement(self.target, self.apply_coords(x.coords))

    def compose(self, other: LinearMap) -> LinearMap:
        """self after other."""
        if other.target != self.source:
            raise ValueError("shape mismatch in composition")
        return LinearMap(other.source, self.target,
                         [self.apply_coords(col) for col in other.cols])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.cols == other.cols)

    def matrix(self) -> list[list[Cyc]]:
        out = [[ZERO] * self.source.dim for _ in range(self.target.dim)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                out[i][j] = v
        return out

    @classmethod
    def from_matrix(cls, source: Algebra, target: Algebra,
                    mat: Sequence[Sequence[Scalar]]) -> LinearMap:
        if len(mat) != target.dim or any(len(r) != source.dim for r in mat):
            raise ValueError("matrix shape mismatch")
        cols: list[Vector] = [{} for _ in range(source.dim)]
        for i, row in enumerate(mat):
            for j, v in enumerate(row):
                v = _cyc(v)
                if v:
                    cols[j][i] = v
        return cls(source, target, cols)


def tensor_compose(f: LinearMap, g: LinearMap, h: LinearMap) -> LinearMap:
    """(f tensor g) after h, applied to one column of h at a time, so that
    f tensor g is never built: a term v e_p (x) e_q adds x g(e_q), shifted
    to r * dim(g.target), for each entry x at r of v f(e_p)."""
    tgt = tensor_algebra(f.target, g.target)
    nb, nt = g.source.dim, g.target.dim
    cols: list[Vector] = []
    for hcol in h.cols:
        acc: Vector = {}
        for t, v in hcol.items():
            p, q = divmod(t, nb)
            for r, x in axpy({}, v, f.cols[p]).items():
                axpy(acc, x, g.cols[q], r * nt)
        cols.append(acc)
    return LinearMap(h.source, tgt, cols)


def tensor_map(f: LinearMap, g: LinearMap) -> LinearMap:
    """f tensor g, materialized column by column (stays sparse)."""
    src = tensor_algebra(f.source, g.source)
    return tensor_compose(f, g, LinearMap.identity(src))


SCALARS = MultiMatrixAlgebra((1,), labels=("k",))
