"""Seeded inputs for the hopfcheck benchmark.

Every input is a pure function of the seed, written as canonical JSON, so
the same seed gives byte-identical files.  The generator does its own small
amount of Q(z) arithmetic (z**4 == -1, coordinates over 1, z, z**2, z**3)
and imports nothing from hopfcheck: the program under test receives only
the generated files and values.

Models are the paper's order-8 group <S1, S2> and the order-16 rung
<S1, S2, iI>, both with the action unitary U_ACT and the grading -I, and
all conjugated by one seed-chosen monomial unitary V = D P (D a diagonal
of powers of z, P the identity or the swap).  Conjugating by V is a group
isomorphism that preserves the action and the grading, so the twist's
block sizes do not depend on the seed, while the coefficients the program
multiplies do.  Monomial V keeps every entry a root of unity times the
original entry, so the arithmetic cost varies little between seeds.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

Coords = tuple[Fraction, Fraction, Fraction, Fraction]
Matrix = list[list[Coords]]


def _c(*xs: int | str) -> Coords:
    return tuple(Fraction(x) for x in xs)


_ZERO = _c(0, 0, 0, 0)
_ONE = _c(1, 0, 0, 0)
_I = _c(0, 0, 1, 0)               # z**2
_H = _c(0, "1/2", 0, "1/2")       # i / sqrt(2) == (z + z**3) / 2


def _neg(a: Coords) -> Coords:
    return tuple(-x for x in a)


def _times_zeta(a: Coords, k: int) -> Coords:
    """a * z**k, using z**4 == -1."""
    for _ in range(k % 8):
        a = (-a[3], a[0], a[1], a[2])
    return a


S1: Matrix = [[_H, _H], [_H, _neg(_H)]]
S2: Matrix = [[_neg(_H), _H], [_H, _H]]
U_ACT: Matrix = [[_I, _ZERO], [_ZERO, _neg(_I)]]
MINUS_I: Matrix = [[_neg(_ONE), _ZERO], [_ZERO, _neg(_ONE)]]
I_I: Matrix = [[_I, _ZERO], [_ZERO, _I]]

# rung name -> (generators, group order, twist block sizes); the block sizes
# are those `hopfcheck verify --check model.twist-axioms` reports for the
# unconjugated rung
RUNGS = {
    "order8": ([S1, S2], 8, (1, 1, 2, 1, 1)),
    "order16": ([S1, S2, I_I], 16, (1, 1, 2, 1, 1, 1, 1, 2, 1, 1)),
}


def conjugate(m: Matrix, powers: tuple[int, int], swap: bool) -> Matrix:
    """V m V* for V = diag(z**a, z**b) times the swap when swap is set."""
    p = (1, 0) if swap else (0, 1)
    return [[_times_zeta(m[p[i]][p[j]], powers[i] - powers[j])
             for j in range(2)] for i in range(2)]


def _strings(m: Matrix) -> list[list[list[str]]]:
    return [[[str(x) for x in entry] for entry in row] for row in m]


def model_dict(rung: str, powers: tuple[int, int], swap: bool) -> dict:
    gens, order, _ = RUNGS[rung]
    return {
        "generators": [_strings(conjugate(g, powers, swap)) for g in gens],
        "action_unitary": _strings(conjugate(U_ACT, powers, swap)),
        "central_element": _strings(conjugate(MINUS_I, powers, swap)),
        "cap": 2 * order,
    }


def model_text(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def wrong_tau(rng: random.Random) -> Fraction:
    """A rational scale other than +-1/2, at which the pentagon must fail."""
    while True:
        tau = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        if tau and abs(tau) != Fraction(1, 2):
            return tau


def inputs(seed: int) -> dict:
    """Everything the workloads feed the program for one seed.

    Returns the pentagon scale for `verify --all` (+-1/2), the wrong scale
    for the category workload, and the text of each rung's model file.
    """
    rng = random.Random(seed)
    powers, swap = (rng.randrange(8), rng.randrange(8)), bool(rng.randrange(2))
    return {
        "tau": Fraction(rng.choice((1, -1)), 2),
        "wrong_tau": wrong_tau(rng),
        "models": {rung: model_text(model_dict(rung, powers, swap))
                   for rung in RUNGS},
    }
