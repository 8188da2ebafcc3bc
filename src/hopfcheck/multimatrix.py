"""Finite-dimensional multimatrix and groupoid *-algebras over Q(z).

A multimatrix algebra is a direct sum of full matrix blocks; its canonical
basis is the matrix units ordered block-major, row-major inside each block.
A groupoid algebra has the arrows of a finite groupoid as its basis.  Both
have a basis table: the product of two basis elements is a basis element
(coefficient one) or zero, and star permutes the basis.  Elements carry
sparse coordinate dicts against that basis.

Linear maps store one sparse column per source basis vector.  Dense matrices
are produced only at the serialization boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .cyclotomic import Cyc, ZERO, ONE
from .linalg import Vector

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


class MultiMatrixAlgebra:
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

    def decompose(self, idx: int) -> tuple[int, int, int]:
        return self._decomp[idx]

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

    # element constructors

    def element(self, coords: Vector) -> AlgElement:
        return AlgElement(self, coords)

    def zero(self) -> AlgElement:
        return AlgElement(self, {})

    def unit(self) -> AlgElement:
        coords = {self.index(b, i, i): ONE
                  for b, n in enumerate(self.block_sizes) for i in range(n)}
        return AlgElement(self, coords)

    def basis_element(self, block: int, i: int, j: int) -> AlgElement:
        return AlgElement(self, {self.index(block, i, j): ONE})

    def basis(self) -> list[AlgElement]:
        return [AlgElement(self, {p: ONE}) for p in range(self.dim)]


@dataclass(frozen=True, eq=False)
class GroupoidAlgebra:
    """The algebra of a finite groupoid on its basis of arrows.

    mul_basis(p, q) is the index of the composite arrow, or None when p and
    q do not compose; star_index(p) is the inverse arrow and units lists the
    identity arrows, whose sum is the unit.  The table is these functions,
    so a tensor product (the product groupoid's algebra) needs none.  A
    multimatrix algebra is the algebra of a union of pair groupoids, but a
    GroupoidAlgebra equals only itself, and the tables derived from it are
    cached on it, so they live as long as it does.
    """
    dim: int
    mul_basis: Callable[[int, int], int | None]
    star_index: Callable[[int], int]
    basis_name: Callable[[int], str]
    units: Sequence[int]
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def unit(self) -> AlgElement:
        return AlgElement(self, dict.fromkeys(self.units, ONE))


class AlgElement:
    __slots__ = ("parent", "coords")

    def __init__(self, parent: MultiMatrixAlgebra, coords: Vector):
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
        coords = dict(self.coords)
        for p, v in other.coords.items():
            nv = coords.get(p, ZERO) + v
            if nv:
                coords[p] = nv
            else:
                coords.pop(p, None)
        return AlgElement(self.parent, coords)

    def __sub__(self, other: AlgElement) -> AlgElement:
        return self + (-other)

    def __neg__(self) -> AlgElement:
        return AlgElement(self.parent, {p: -v for p, v in self.coords.items()})

    def scale(self, c: Scalar) -> AlgElement:
        c = _cyc(c)
        if not c:
            return AlgElement(self.parent, {})
        return AlgElement(self.parent, {p: c * v for p, v in self.coords.items()})

    def __mul__(self, other: AlgElement) -> AlgElement:
        # != compares block sizes only; the pointer compare settles most calls
        if other.parent is not self.parent and other.parent != self.parent:
            raise ValueError("operands lie in different algebras")
        part, y, acc = partners(self.parent), other.coords, {}
        for p, x in self.coords.items():
            for c, r in part[p]:
                w = y.get(c)
                if w is not None:
                    acc[r] = acc[r] + x * w if r in acc else x * w
        return AlgElement(self.parent, acc)

    def star(self) -> AlgElement:
        alg = self.parent
        return AlgElement(alg, {alg.star_index(p): v.conj()
                                for p, v in self.coords.items()})

    def tensor(self, other: AlgElement) -> AlgElement:
        ta, tidx = tensor_algebra(self.parent, other.parent)
        coords: Vector = {}
        for p, x in self.coords.items():
            row = tidx[p]
            for q, y in other.coords.items():
                coords[row[q]] = x * y
        return AlgElement(ta, coords)

    def blocks(self) -> list[list[list[Cyc]]]:
        out = [[[ZERO] * n for _ in range(n)] for n in self.parent.block_sizes]
        for p, v in self.coords.items():
            b, i, j = self.parent.decompose(p)
            out[b][i][j] = v
        return out

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
    with e_a e_c = e_r.  Cached on alg (see _layout, GroupoidAlgebra)."""
    tables = alg._tables
    if "partners" not in tables:
        n, mul = alg.dim, alg.mul_basis
        tables["partners"] = tuple(
            tuple((c, r) for c in range(n) if (r := mul(a, c)) is not None)
            for a in range(n))
    return tables["partners"]


def _tensor_entry(a, b) -> tuple:
    """(a tensor b, [table, reverse index or None]), cached on a groupoid
    factor when there is one and on a's block sizes otherwise.  The key
    holds the labels too, so a tensor algebra is named after its own
    factors; the list is shared by all multimatrix factors of the same block
    sizes, as is the algebra's layout, and tensor_split fills in its reverse
    index on first use."""
    tables = (b if type(b) is GroupoidAlgebra else a)._tables
    key = (a, getattr(a, "labels", None), b, getattr(b, "labels", None))
    if key in tables:
        return tables[key]
    if type(a) is not MultiMatrixAlgebra or type(b) is not MultiMatrixAlgebra:
        ta, table = _product_groupoid(a, b)
        tables[key] = (ta, [table, None])
        return tables[key]
    ta = MultiMatrixAlgebra(
        [n1 * n2 for n1 in a.block_sizes for n2 in b.block_sizes],
        [f"{l1}(x){l2}" for l1 in a.labels for l2 in b.labels])
    entry = tables.get(b.block_sizes)
    if entry is None:
        nb = len(b.block_sizes)
        table = [[0] * b.dim for _ in range(a.dim)]
        for p in range(a.dim):
            b1, i1, j1 = a.decompose(p)
            for q in range(b.dim):
                b2, i2, j2 = b.decompose(q)
                n2 = b.block_sizes[b2]
                table[p][q] = ta.index(b1 * nb + b2, i1 * n2 + i2,
                                       j1 * n2 + j2)
        entry = tables[b.block_sizes] = [table, None]
    tables[key] = (ta, entry)
    return tables[key]


def tensor_algebra(a: MultiMatrixAlgebra, b: MultiMatrixAlgebra,
                   ) -> tuple[MultiMatrixAlgebra, list[list[int]]]:
    """Tensor product algebra and the basis index table.

    Block (b1, b2) pairs run in lex order; inside a block the Kronecker
    convention pairs row (i1, i2) -> i1 * n2 + i2, so index chasing matches
    matrix Kronecker products.  Returns (algebra, table) with
    table[p][q] == index of e_p tensor e_q.  The same factors give the same
    algebra, so maps into it compare equal.
    """
    ta, entry = _tensor_entry(a, b)
    return ta, entry[0]


def _product_groupoid(a, b) -> tuple[GroupoidAlgebra, list[range]]:
    """a tensor b for factors with a basis table, one of them a groupoid
    algebra: e_p tensor e_q has index p * b.dim + q."""
    nb = b.dim
    amul, bmul = a.mul_basis, b.mul_basis

    def mul(s: int, t: int) -> int | None:
        p, q = amul(s // nb, t // nb), bmul(s % nb, t % nb)
        return None if p is None or q is None else p * nb + q

    ta = GroupoidAlgebra(
        a.dim * nb, mul,
        lambda s: a.star_index(s // nb) * nb + b.star_index(s % nb),
        lambda s: f"{a.basis_name(s // nb)}(x){b.basis_name(s % nb)}",
        [u * nb + w for u in a.unit().coords for w in b.unit().coords])
    return ta, [range(p * nb, p * nb + nb) for p in range(a.dim)]


def tensor_split(a, b=None) -> dict[int, tuple[int, int]]:
    """Reverse of the table of a tensor b (b = a by default): index of
    e_p tensor e_q -> (p, q)."""
    entry = _tensor_entry(a, a if b is None else b)[1]
    if entry[1] is None:
        entry[1] = {t: (p, q) for p, row in enumerate(entry[0])
                    for q, t in enumerate(row)}
    return entry[1]


class LinearMap:
    """Linear map between multimatrix algebras, stored as sparse columns."""

    __slots__ = ("source", "target", "cols")

    def __init__(self, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra,
                 cols: Sequence[Vector]):
        if len(cols) != source.dim:
            raise ValueError("one column per source basis vector")
        self.source = source
        self.target = target
        self.cols = [{p: v for p, v in col.items() if v} for col in cols]

    @classmethod
    def identity(cls, alg: MultiMatrixAlgebra) -> LinearMap:
        return cls(alg, alg, [{p: ONE} for p in range(alg.dim)])

    @classmethod
    def from_images(cls, source: MultiMatrixAlgebra,
                    images: Sequence[AlgElement]) -> LinearMap:
        if not images:
            raise ValueError("empty image list")
        return cls(source, images[0].parent, [im.coords for im in images])

    def apply_coords(self, vec: Vector) -> Vector:
        acc: Vector = {}
        for j, c in vec.items():
            for p, v in self.cols[j].items():
                nv = acc.get(p, ZERO) + c * v
                if nv:
                    acc[p] = nv
                else:
                    acc.pop(p, None)
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
    def from_matrix(cls, source: MultiMatrixAlgebra, target: MultiMatrixAlgebra,
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
    f tensor g is never built."""
    split = tensor_split(f.source, g.source)
    tgt, tidx = tensor_algebra(f.target, g.target)
    cols: list[Vector] = []
    for hcol in h.cols:
        acc: Vector = {}
        for t, v in hcol.items():
            p, q = split[t]
            for r, x in f.cols[p].items():
                vx, row = v * x, tidx[r]
                for s, y in g.cols[q].items():
                    acc[row[s]] = acc.get(row[s], ZERO) + vx * y
        cols.append(acc)
    return LinearMap(h.source, tgt, cols)


def tensor_map(f: LinearMap, g: LinearMap) -> LinearMap:
    """f tensor g, materialized column by column (stays sparse)."""
    src, _ = tensor_algebra(f.source, g.source)
    return tensor_compose(f, g, LinearMap.identity(src))


SCALARS = MultiMatrixAlgebra((1,), labels=("k",))
