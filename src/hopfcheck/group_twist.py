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
restrictions of that one structure, each accepted when its inclusion passes
check_hopf_morphism, which proves its axioms from the crossed product's
(see SmashProduct and subalgebra_hopf).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Sequence

from .cyclotomic import Cyc, HALF, IM, ONE, is_unitary, mat_mul
from .linalg import LinAlgError, left_inverse
from .hopf_core import (HopfAlgebra, Report, _morphism_report,
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
        self.report = report


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
    table[a][b] is the index of the product of elements a and b.
    """

    identity_index = 0

    def __init__(self, elements: list[Mat2], table: list[list[int]],
                 names: list[str]):
        if len(names) != len(elements):
            raise ValueError(f"{len(names)} names for {len(elements)} elements")
        self.elements, self.table, self.names = elements, table, names
        self.index = {m: k for k, m in enumerate(elements)}
        # Latin square: rows and columns are permutations
        full = set(range(len(elements)))
        if any(set(r) != full for r in table) or any(
                set(c) != full for c in zip(*table)):
            raise GroupClosureError("multiplication table is not a Latin square")
        self.inverse = [r.index(0) for r in table]

    @property
    def order(self) -> int:
        return len(self.elements)


# A 2x2 matrix over Q(z) of finite order has order at most 30: its
# eigenvalues lie in a field of degree at most 8, whose roots of unity are
# cyclic of an order m with phi(m) <= 8.
MAX_GENERATOR_ORDER = 30
# A finite group of them has at most 480 elements: its scalars lie in mu_8,
# and its image in PGL_2 is cyclic or dihedral with rotation order <= 30, or
# A_4, S_4 or A_5, so of order <= 60.
MAX_GROUP_ORDER = 480


def generate_group(generators: Sequence[Mat2], cap: int = 64,
                   names: list[str] | None = None) -> FiniteMatrixGroup:
    """The breadth-first closure of 2x2 unitaries under multiplication, up
    to cap elements (and never beyond MAX_GROUP_ORDER).

    Element 0 is the identity and the distinct generators follow in their
    given order.  The closure takes each product x * g_s once and records
    its index as right[s][x]; an element b first reached as w * g_s then has
    table[a][b] = right[s][table[a][w]], since a (w g_s) = (a w) g_s.
    """
    cap = min(cap, MAX_GROUP_ORDER)
    identity = Mat2.identity()
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
                             names or [f"g{k}" for k in range(n)])


class ConjugationAction:
    """An action of Z/2 on a finite group by the involution h -> perm[h].

    Construction checks that perm is an involutive automorphism of the group
    table, so an action that exists gives the Hopf *-automorphism
    delta_h -> delta_perm[h] of C(G) that SmashProduct relies on.
    """

    def __init__(self, group: FiniteMatrixGroup, unitary: Mat2,
                 perm: list[int]) -> None:
        self.group, self.unitary, self.perm = group, unitary, perm
        n = group.order
        if sorted(perm) != list(range(n)):
            raise ActionError("action is not a permutation of the group")
        if [perm[perm[k]] for k in range(n)] != list(range(n)):
            raise ActionError("conjugation action is not an involution")
        for a in range(n):
            for b in range(n):
                if perm[group.table[a][b]] != group.table[perm[a]][perm[b]]:
                    raise ActionError("conjugation action is not an automorphism")

    @property
    def order(self) -> int:
        n = len(self.perm)
        return 1 if self.perm == list(range(n)) else 2


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
    once, in integers, or AxiomFailure is raised.  The action is a Hopf
    *-automorphism of C(G) by construction (see ConjugationAction).

    hopf is the same structure on the blocks of block_basis, and
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


def block_basis(smash: SmashProduct,
                ) -> tuple[MultiMatrixAlgebra, list[AlgElement]]:
    """The crossed product's block basis on delta_h lam^k, and its algebra.

    A fixed point h gives two 1x1 blocks p+- = (delta_h +- delta_h lam)/2,
    and these come first; a 2-orbit {a, b} with a < b gives one 2x2 block
    with matrix units delta_a, delta_a lam, delta_b lam and delta_b.
    """
    perm = smash.action.perm
    names = smash.action.group.names
    dl = smash.delta_lambda
    sizes: list[int] = []
    labels: list[str] = []
    basis_els: list[AlgElement] = []
    for h, image in enumerate(perm):
        if image == h:
            sizes += [1, 1]
            labels += [f"p+({names[h]})", f"p-({names[h]})"]
            basis_els += [(dl(h, 0) + dl(h, 1)).scale(HALF),
                          (dl(h, 0) - dl(h, 1)).scale(HALF)]
    for a, b in enumerate(perm):
        if a < b:
            sizes.append(2)
            labels.append(f"m({names[a]},{names[b]})")
            basis_els += [dl(a, 0), dl(a, 1), dl(b, 1), dl(b, 0)]
    return MultiMatrixAlgebra(sizes, labels), basis_els


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

    The twist is spanned by even functions e_C = delta_h + delta_zh and odd
    multiples o_C lam = (delta_h - delta_zh) lam.  Coset fixed pointwise by
    the action: two 1x1 blocks (e_C +- o_C lam)/2.  Coset fixed with swapped
    members: two 1x1 blocks (e_C -+ i o_C lam)/2.  A 2-orbit of cosets: one
    2x2 block with e-parts on the diagonal and o_C lam off it.
    """
    perm = smash.action.perm
    names = smash.action.group.names
    cosets = grading.cosets()
    rep_of = {}
    for idx, (a, b) in enumerate(cosets):
        rep_of[a] = idx
        rep_of[b] = idx

    dl = smash.delta_lambda
    def e_part(ci: int) -> AlgElement:
        a, b = cosets[ci]
        return dl(a, 0) + dl(b, 0)

    def o_lam(ci: int) -> AlgElement:
        a, b = cosets[ci]
        return dl(a, 1) - dl(b, 1)

    sizes: list[int] = []
    labels: list[str] = []
    basis_els: list[AlgElement] = []
    seen: set[int] = set()
    for ci, (a, b) in enumerate(cosets):
        if ci in seen:
            continue
        seen.add(ci)
        image = rep_of[perm[a]]
        if image == ci:
            if perm[a] == a:
                kind = "fixed"
                plus = (e_part(ci) + o_lam(ci)).scale(HALF)
                minus = (e_part(ci) - o_lam(ci)).scale(HALF)
            else:
                kind = "swapped"
                plus = (e_part(ci) - o_lam(ci).scale(IM)).scale(HALF)
                minus = (e_part(ci) + o_lam(ci).scale(IM)).scale(HALF)
            sizes += [1, 1]
            labels += [f"{kind}+({names[a]})", f"{kind}-({names[a]})"]
            basis_els += [plus, minus]
        else:
            seen.add(image)
            sizes.append(2)
            labels.append(f"m({names[a]},{names[cosets[image][0]]})")
            x = o_lam(ci)
            basis_els += [e_part(ci), x, x.star(), e_part(image)]
    return MultiMatrixAlgebra(tuple(sizes), labels=tuple(labels)), basis_els


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
    target basis vector t.  With B the
    inclusion of their span and L one exact left inverse of B, the coproduct
    is (L (x) L) Delta B, the counit eps B and the antipode L S B.  The
    transport is accepted only when B passes check_hopf_morphism, and
    SubalgebraError names the first failing check and its witness.

    That check is the proof that the result is a Hopf *-algebra, so it is
    not verified again.  B is injective, since L B = 1, and so are B (x) B
    and B (x) B (x) B.  B is a unital *-algebra map with
    (B (x) B) Delta' = Delta B, eps' = eps B and B S' = S B, so each Hopf
    law of the result, applied through B, B (x) B or B (x) B (x) B, becomes
    the same law of the verified ambient, and injectivity carries it back.
    Cancellation follows from those laws (see verify_hopf_axioms).
    Returns (hopf, solver): solver expresses ambient elements in the chosen
    basis.
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
    report = _morphism_report(incl, hopf, ambient, delta_b)
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


def twist_from_model_dict(data: dict) -> GradedTwist:
    """Build a graded twist from a model description (see read_model)."""
    gens, u, z, cap = read_model(data)
    group = generate_group(gens, cap=cap)
    zi = group.index.get(z)
    if zi is None:
        raise GradingError("central element is not in the generated group")
    return GradedTwist(CentralGrading(group, zi), conjugation_action(group, u))
