"""Finite matrix groups, order-2 actions, crossed products and twists.

The pipeline: a finite group G of 2x2 unitaries, the breadth-first closure
of its generators (generate_group), an order-2 conjugation action, the
crossed product of its function algebra C(G) by that action, and inside
that crossed product the twisted algebra spanned by even functions together
with odd functions times the group-like of the acting Z/2 (graded twisting:
Bichon, Neshveyev and Yamashita, Ann. Inst. Fourier 66, 2016).  The
crossed product is the one Hopf structure written in closed form, and
nothing is trusted from its construction alone: on its groupoid basis
delta_h lam^k it passes every axiom of verify_hopf_axioms, once, in integer
arithmetic.  C(G) (its lam^0 part), its blocks and every twist are
restrictions of that one structure, each accepted when its inclusion is a
*-bialgebra map, which proves its axioms from the crossed product's (see
SmashProduct and subalgebra_hopf).  Both the crossed product and a twist
split into matrix blocks by one rule, _orbit_blocks: the orbits of the
Z/2 action, on G (block_basis) or on the cosets of <z> (coset_basis).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

from .cyclotomic import Cyc, HALF, IM, ONE, is_unitary, mat_mul
from .linalg import LinAlgError, left_inverse
from .hopf_core import (HopfAlgebra, Report, check_hopf_morphism,
                        verify_hopf_axioms)
from .multimatrix import (SCALARS, AlgElement, GroupoidAlgebra, LinearMap,
                          MultiMatrixAlgebra, Scalar, _cyc, tensor_algebra,
                          tensor_compose)


class GroupClosureError(Exception):
    pass


class ActionError(Exception):
    pass


class GradingError(Exception):
    pass


class SubalgebraError(Exception):
    pass


class AxiomFailure(Exception):
    def __init__(self, what: str, report: Report):
        super().__init__(f"{what} fails {report.first_failure()}")


class Mat2:
    """A 2x2 matrix over Q(z), hashable so it can be a group element."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("need a 2x2 matrix")
        self.rows = tuple(tuple(_cyc(v) for v in r) for r in rows)

    @classmethod
    def identity(cls) -> Mat2:
        return cls(((1, 0), (0, 1)))

    def __getitem__(self, ij: tuple[int, int]) -> Cyc:
        return self.rows[ij[0]][ij[1]]

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(mat_mul(self.rows, other.rows))

    def __neg__(self) -> Mat2:
        return Mat2([[-v for v in r] for r in self.rows])

    def star(self) -> Mat2:
        a = self.rows
        return Mat2([[a[0][0].conj(), a[1][0].conj()],
                     [a[0][1].conj(), a[1][1].conj()]])

    def conj_entries(self) -> Mat2:
        return Mat2([[v.conj() for v in r] for r in self.rows])

    def is_unitary(self) -> bool:
        return is_unitary(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        r = self.rows
        return f"[[{r[0][0]}, {r[0][1]}], [{r[1][0]}, {r[1][1]}]]"

    def to_strings(self) -> list[list[list[str]]]:
        return [[v.to_strings() for v in r] for r in self.rows]

    @classmethod
    def from_strings(cls, data: Sequence[Sequence[Sequence[str]]]) -> Mat2:
        return cls([[Cyc.from_strings(c) for c in r] for r in data])


class FiniteMatrixGroup:
    """Finite group of 2x2 unitaries with its multiplication table.

    Built only by generate_group, the breadth-first closure of its
    generators: element 0 is the identity, the generators come next, and
    table[a][b] is the index of the product of elements a and b.  The
    closure holds 1 and is closed under right multiplication by each
    generator, so by its inverse, a power of it: it is the group G they
    generate.  So table, G's Cayley table, is a Latin square without a
    check, and inverse[a] is the one b with table[a][b] = 0.
    """

    identity_index = 0

    def __init__(self, elements: list[Mat2], table: list[list[int]],
                 names: list[str]):
        if len(names) != len(elements):
            raise ValueError(f"{len(names)} names for {len(elements)} elements")
        self.elements, self.table, self.names = elements, table, names
        self.index = {m: k for k, m in enumerate(elements)}
        self.inverse = [r.index(0) for r in table]

    @property
    def order(self) -> int:
        return len(self.elements)


# A 2x2 matrix over Q(z) of finite order has order at most 30: its
# eigenvalues lie in a field of degree at most 8, whose roots of unity are
# cyclic of an order m with phi(m) <= 8.
MAX_GENERATOR_ORDER = 30
# A finite group G of them has at most 8 * 24 elements.  For g in G with
# eigenvalues l1, l2, tr(g)^2 / det(g) - 2 = zeta + 1/zeta, zeta = l1/l2, is
# real and in Q(z), so in Q(sqrt2): the order of zeta, g's order in PGL_2,
# is 1, 2, 3, 4, 6 or 8.  So G's image in PGL_2 (cyclic, dihedral, A_4, S_4
# or A_5) is never A_5 and has at most 24 elements; its kernel is in mu_8.
MAX_GROUP_ORDER = 192


def generate_group(generators: Sequence[Mat2], cap: int = 64,
                   names: list[str] | None = None) -> FiniteMatrixGroup:
    """The breadth-first closure of 2x2 unitaries under multiplication, up
    to cap elements (and never beyond MAX_GROUP_ORDER).

    Element 0 is the identity and the distinct generators follow in their
    given order; a repeated generator is dropped, which changes neither.
    The closure takes each product x * g_s once and records its index as
    right[s][x]; an element b first reached as w * g_s then has
    table[a][b] = right[s][table[a][w]], since a (w g_s) = (a w) g_s.
    """
    cap = min(cap, MAX_GROUP_ORDER)
    identity = Mat2.identity()
    generators = list(dict.fromkeys(generators))
    if len({identity, *generators}) > cap:
        raise GroupClosureError(f"group not closed within {cap} elements")
    for g in generators:
        if not g.is_unitary():
            raise GroupClosureError(f"generator {g!r} is not unitary")
        power = g
        for _ in range(MAX_GENERATOR_ORDER):
            if power == identity:
                break
            power = power * g
        else:
            raise GroupClosureError(f"generator {g!r} has infinite order")
    elements, index = [identity], {identity: 0}
    # elements[b] is first reached as elements[w] * g_s, (w, s) = reached[b - 1]
    reached: list[tuple[int, int]] = []
    right: list[list[int]] = [[] for _ in generators]
    for x, h in enumerate(elements):    # grows while it is walked: BFS
        for s, g in enumerate(generators):
            m = h * g
            if m not in index:
                if len(elements) >= cap:
                    raise GroupClosureError(f"group not closed within {cap} elements")
                index[m] = len(elements)
                elements.append(m)
                reached.append((x, s))
            right[s].append(index[m])
    n = len(elements)
    cols = [list(range(n))]
    for w, s in reached:
        cols.append([right[s][a] for a in cols[w]])
    return FiniteMatrixGroup(elements, [list(r) for r in zip(*cols)],
                             [f"g{k}" for k in range(n)] if names is None
                             else names)


class ConjugationAction:
    """An action of Z/2 on a finite group by the involution h -> perm[h].

    Construction checks that perm is an involutive permutation, which the
    product and star of SmashProduct's action groupoid need.  That it is an
    automorphism is not checked: conjugation_action's is, as u ab u* =
    (u a u*)(u b u*), and SmashProduct's axiom run rejects any other.
    """

    def __init__(self, group: FiniteMatrixGroup, unitary: Mat2,
                 perm: list[int]) -> None:
        self.group, self.unitary, self.perm = group, unitary, perm
        n = group.order
        if sorted(perm) != list(range(n)):
            raise ActionError("action is not a permutation of the group")
        if [perm[perm[k]] for k in range(n)] != list(range(n)):
            raise ActionError("conjugation action is not an involution")


def conjugation_action(group: FiniteMatrixGroup, u: Mat2) -> ConjugationAction:
    """The action h -> u h u*; must stabilize the group and square to one."""
    if not u.is_unitary():
        raise ActionError("conjugating matrix is not unitary")
    ustar = u.star()
    perm = []
    for h in group.elements:
        m = u * h * ustar
        k = group.index.get(m)
        if k is None:
            raise ActionError(f"conjugation does not stabilize the group at {h!r}")
        perm.append(k)
    return ConjugationAction(group, u, perm)


class SmashProduct:
    """Crossed product of the function algebra C(G) by an order-2 action.

    Basis elements delta_h * lam**k with lam the order-2 group-like of the
    acting Z/2 and lam * f == theta(f) * lam.  On that basis the crossed
    product is the algebra of the action groupoid of Z/2 on G (Renault, A
    Groupoid Approach to C*-Algebras, LNM 793, 1980): delta_a lam^k *
    delta_b lam^l = [b = theta^k(a)] delta_a lam^(k+l), (delta_h lam^k)^* =
    delta_{theta^k(h)} lam^k, and the unit is the sum of the delta_h.
    Delta(delta_h lam^k) = sum over ab = h of delta_a lam^k (x) delta_b
    lam^k, eps(delta_h lam^k) = [h = e] and S(delta_h lam^k) =
    delta_{theta^k(h^-1)} lam^k (Majid, Foundations of Quantum Group
    Theory, 1.6) have coefficients 0 and 1, and groupoid_hopf is verified
    once, in integers, or AxiomFailure is raised.  That run also proves the
    action theta an automorphism of G: Delta(delta_a lam delta_theta(a) lam)
    = Delta(delta_a), but the product of the two coproducts keeps only the
    delta_x (x) delta_y with theta(x) theta(y) = theta(a), so for any other
    involution coproduct_multiplicative fails, and the laws before it hold.

    hopf is the same structure on its orbit blocks (block_basis), and
    function_hopf is C(G) on function_basis, each restricted from
    groupoid_hopf by subalgebra_hopf when it is first read; a twist
    restricts groupoid_hopf itself and builds neither.
    """

    def __init__(self, action: ConjugationAction):
        self.action = action
        group = action.group
        n, names = group.order, group.names
        perm = action.perm

        # delta_h lam^k has index 2h + k; right[i] is the object theta^k(h)
        # that its right factor must start at
        keys = [(h, k) for h in range(n) for k in (0, 1)]
        right = [perm[h] if k else h for h, k in keys]
        dlam = GroupoidAlgebra(
            2 * n, lambda i, j: i ^ (j & 1) if j >> 1 == right[i] else None,
            lambda i: 2 * right[i] + (i & 1),
            lambda i: f"d{names[i >> 1]}" + "*lam" * (i & 1),
            range(0, 2 * n, 2))
        dd = tensor_algebra(dlam, dlam)    # e_i (x) e_j at index i * 2n + j
        inv, table = group.inverse, group.table
        gh = self.groupoid_hopf = HopfAlgebra(
            dlam,
            LinearMap(dlam, dd, [{(2 * a + k) * 2 * n + 2 * table[inv[a]][h] + k:
                                  ONE for a in range(n)} for h, k in keys]),
            LinearMap(dlam, SCALARS, [{0: ONE} if h == group.identity_index
                                      else {} for h, k in keys]),
            LinearMap(dlam, dlam, [{2 * (perm[inv[h]] if k else inv[h]) + k: ONE}
                                   for h, k in keys]))
        report = verify_hopf_axioms(gh)
        if not report.passed:
            raise AxiomFailure("crossed product", report)

    @cached_property
    def hopf(self) -> HopfAlgebra:
        target, basis = block_basis(self)
        return subalgebra_hopf(self.groupoid_hopf, basis, target)[0]

    @cached_property
    def function_hopf(self) -> HopfAlgebra:
        target, basis = function_basis(self)
        return subalgebra_hopf(self.groupoid_hopf, basis, target)[0]

    def delta_lambda(self, element_index: int, lam_power: int) -> AlgElement:
        return AlgElement(self.groupoid_hopf.algebra,
                          {2 * element_index + lam_power % 2: ONE})


def _orbit_blocks(points: Sequence[int], image: Callable[[int], int],
                  even: Callable[[int], AlgElement],
                  odd: Callable[[int], AlgElement], names: Sequence[str],
                  ) -> tuple[MultiMatrixAlgebra, list[AlgElement]]:
    """The matrix blocks of the orbits of a Z/2 action on points, in order.

    Each point p has an even part e = even(p), a projection, and an odd
    part o = odd(p), with o o* = e and o* o = even(image(p)).  A fixed point
    gives two 1x1 blocks p+- = (e +- c o)/2, where c = 1 when o* = o and
    c = -i when o* = -o.  A 2-orbit {p, q}, p < q, gives at p one 2x2 block
    with matrix units e(p), o(p), o(p)* and e(q), labelled m(p,q).
    """
    sizes: list[int] = []
    labels: list[str] = []
    basis_els: list[AlgElement] = []
    for p in points:
        q = image(p)
        if q == p:
            e, o = even(p), odd(p)
            co = o if o.star() == o else o.scale(-IM)
            sizes += [1, 1]
            labels += [f"p+({names[p]})", f"p-({names[p]})"]
            basis_els += [(e + co).scale(HALF), (e - co).scale(HALF)]
        elif p < q:
            o = odd(p)
            sizes.append(2)
            labels.append(f"m({names[p]},{names[q]})")
            basis_els += [even(p), o, o.star(), even(q)]
    return MultiMatrixAlgebra(sizes, labels), basis_els


def block_basis(smash: SmashProduct,
                ) -> tuple[MultiMatrixAlgebra, list[AlgElement]]:
    """The crossed product's block basis on delta_h lam^k, and its algebra.

    The orbit blocks of the action on G, fixed points first, with e(h) =
    delta_h and o(h) = delta_h lam: p+- = (delta_h +- delta_h lam)/2 for a
    fixed h, and delta_a, delta_a lam, delta_b lam, delta_b for {a, b}.
    """
    perm, dl = smash.action.perm, smash.delta_lambda
    return _orbit_blocks(sorted(range(len(perm)), key=lambda h: perm[h] != h),
                         perm.__getitem__, lambda h: dl(h, 0),
                         lambda h: dl(h, 1), smash.action.group.names)


def function_basis(smash: SmashProduct,
                   ) -> tuple[MultiMatrixAlgebra, list[AlgElement]]:
    """C(G) on delta_h lam^0, one 1x1 block d<name> per group element."""
    names = smash.action.group.names
    return (MultiMatrixAlgebra((1,) * len(names),
                               tuple(f"d{nm}" for nm in names)),
            [smash.delta_lambda(h, 0) for h in range(len(names))])


class CentralGrading:
    def __init__(self, group: FiniteMatrixGroup, z_index: int) -> None:
        self.group, self.z_index = group, z_index
        table, z = group.table, z_index
        if table[z][z] != group.identity_index:
            raise GradingError("grading element does not square to the identity")
        for a in range(group.order):
            if table[z][a] != table[a][z]:
                raise GradingError("grading element is not central")

    @property
    def is_trivial(self) -> bool:
        return self.z_index == self.group.identity_index

    def partner(self, k: int) -> int:
        return self.group.table[self.z_index][k]

    def cosets(self) -> list[tuple[int, int]]:
        return [(k, self.partner(k)) for k in range(self.group.order)
                if k < self.partner(k)]


def coset_basis(smash: SmashProduct, grading: CentralGrading,
                ) -> tuple[MultiMatrixAlgebra, list[AlgElement]]:
    """The twist's coset-block basis on delta_h lam^k, and its algebra.

    The orbit blocks of the action on the cosets C = {a, za}, a < za, of
    <z>, each point named by its a, in order: e_C = delta_a + delta_za and
    o_C lam = (delta_a - delta_za) lam span the twist.  A coset fixed
    pointwise has o_C lam self-adjoint, blocks (e_C +- o_C lam)/2; one with
    swapped members has (o_C lam)* = -o_C lam, blocks (e_C -+ i o_C lam)/2.
    """
    perm, zp, dl = smash.action.perm, grading.partner, smash.delta_lambda
    return _orbit_blocks([a for a, _ in grading.cosets()],
                         lambda a: min(perm[a], zp(perm[a])),
                         lambda a: dl(a, 0) + dl(zp(a), 0),
                         lambda a: dl(a, 1) - dl(zp(a), 1),
                         smash.action.group.names)


class GradedTwist:
    """The twisted Hopf *-algebra inside the crossed product.

    Restricted from the verified crossed product by subalgebra_hopf, on the
    coset-block basis (see coset_basis), or on function_basis when the
    grading is trivial, whose twist is C(G) itself.  The transport raises
    unless the inclusion passes check_hopf_morphism, which proves the twist
    a Hopf *-algebra; to_twist gives the coordinates of a crossed-product
    element in the twist and raises SubalgebraError outside it.
    """

    def __init__(self, grading: CentralGrading, action: ConjugationAction):
        if grading.group is not action.group:
            raise GradingError("grading group does not match")
        if action.perm[grading.z_index] != grading.z_index:
            raise GradingError("action does not fix the grading element")
        self.grading = grading
        self.action = action
        self.smash = SmashProduct(action)
        target, basis = (function_basis(self.smash) if grading.is_trivial
                         else coset_basis(self.smash, grading))
        self.hopf, self.to_twist = subalgebra_hopf(self.smash.groupoid_hopf,
                                                   basis, target)


def subalgebra_hopf(ambient: HopfAlgebra, basis_els: list[AlgElement],
                    target: MultiMatrixAlgebra,
                    ) -> tuple[HopfAlgebra, Callable[[AlgElement], AlgElement]]:
    """Transport the ambient Hopf structure onto a multimatrix basis.

    basis_els[t], an element of the ambient algebra, plays the role of
    target basis vector t.  With B the inclusion of their span and L one
    exact left inverse of B, the coproduct is (L (x) L) Delta B, the counit
    eps B and the antipode L S B, with Delta B composed once.  The
    transport is accepted only when B passes check_hopf_morphism, a
    *-bialgebra map check, and SubalgebraError names the first failing
    check and its witness.

    That is the proof that the result is a Hopf *-algebra, so it is not
    verified again.  C = im B is then a sub-bialgebra of the verified
    finite-dimensional ambient A, as Delta B = (B (x) B) Delta'.  Under
    convolution, Hom(C, C) is a unital subalgebra of Hom(C, A), where id_C
    has the inverse S|_C.  An inverse in a finite-dimensional algebra is a
    polynomial in the element (read it off the minimal polynomial), so S
    maps C into C, which B L fixes: B S' = B L S B = S B.  With eps' = eps B
    by definition, B preserves the counit and the antipode too.  B is
    injective, since L B = 1, and so are B (x) B and B (x) B (x) B, so each
    Hopf law of the result, applied through B, B (x) B or B (x) B (x) B,
    becomes the same law of the verified ambient, and injectivity carries
    it back.  Cancellation follows from those laws
    (see verify_hopf_axioms).  Returns (hopf, solver): solver expresses
    ambient elements in the chosen basis.
    """
    amb = ambient.algebra
    if any(x.parent != amb for x in basis_els):
        raise SubalgebraError("chosen elements do not lie in the ambient algebra")
    if len(basis_els) != target.dim:
        raise SubalgebraError("basis length does not match the target algebra")
    incl = LinearMap(target, amb, [x.coords for x in basis_els])
    try:
        left = LinearMap(amb, target, left_inverse(incl.cols, amb.dim))
    except LinAlgError as exc:
        raise SubalgebraError("chosen elements are not linearly independent") from exc

    def solver(x: AlgElement) -> AlgElement:
        y = left(x)
        if incl(y) != x:
            raise SubalgebraError("element does not lie in the span")
        return y

    delta_b = ambient.coproduct.compose(incl)
    hopf = HopfAlgebra(target, tensor_compose(left, left, delta_b),
                       ambient.counit.compose(incl),
                       left.compose(ambient.antipode).compose(incl))
    report = check_hopf_morphism(incl, hopf, ambient, delta_b)
    if not report.passed:
        raise SubalgebraError(f"inclusion fails {report.first_failure()}")
    return hopf, solver


# user model files ------------------------------------------------------------

def read_model(data: dict) -> tuple[list[Mat2], Mat2, Mat2, int]:
    """Parse a JSON-style model description; ValueError if it is malformed.

    Expected keys: generators (list of 2x2 matrices, entries as 4-string
    coordinate arrays), action_unitary, central_element, optional cap (a
    positive int, default 64).
    Returns (generators, action unitary, central element, cap).
    """
    try:
        parsed = ([Mat2.from_strings(g) for g in data["generators"]],
                  Mat2.from_strings(data["action_unitary"]),
                  Mat2.from_strings(data["central_element"]))
        cap = data.get("cap", 64)
        # bool is an int subclass, and int() would truncate 2.5
        if type(cap) is not int or cap < 1:
            raise ValueError(f"cap must be a positive integer, not {cap!r}")
        return (*parsed, cap)
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed model description: {exc}") from exc


def twist_from_model(gens: list[Mat2], u: Mat2, z: Mat2,
                     cap: int) -> GradedTwist:
    """Build a graded twist from a parsed model description (read_model's
    generators, action unitary, central element and cap)."""
    group = generate_group(gens, cap=cap)
    zi = group.index.get(z)
    if zi is None:
        raise GradingError("central element is not in the generated group")
    return GradedTwist(CentralGrading(group, zi), conjugation_action(group, u))


def twist_from_model_dict(data: dict) -> GradedTwist:
    """Build a graded twist from a model description (see read_model)."""
    return twist_from_model(*read_model(data))
