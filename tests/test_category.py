"""The pointed fusion category with one big object, and its module data."""

import random
from fractions import Fraction
from itertools import product

import pytest

from hopfcheck.category_checks import modcat, ty
from hopfcheck.cyclotomic import Cyc, HALF, ONE, ZERO, ZETA, is_unitary
from hopfcheck.models import Build

BUILT = Build()


def test_bicharacter():
    assert ty.bicharacter_checks().passed
    assert ty.chi(1, 1) == -ONE
    assert ty.chi(1, 2) == ONE
    assert ty.chi(0, 3) == ONE


def test_fusion_rules_of_simples():
    assert ty.fuse(1, 2) == [3]
    assert ty.fuse(ty.RHO, 2) == [ty.RHO]
    assert ty.fuse(2, ty.RHO) == [ty.RHO]
    assert ty.fuse(ty.RHO, ty.RHO) == list(ty.GROUP)


def test_pentagon_holds_at_both_scales():
    for tau in (HALF, -HALF):
        rep = ty.pentagon_report(tau)
        assert rep.holds
        assert rep.quadruples == 625
        assert rep.failures == []
        ok, where = ty.associator_unitarity(tau)
        assert ok and where is None


def test_pentagon_fails_at_scale_one():
    rep = ty.pentagon_report(ONE)
    assert not rep.holds
    assert rep.failures[0] == (4, 4, 4, 4)
    ok, where = ty.associator_unitarity(ONE)
    assert not ok
    assert where == (4, 4, 4)


def test_pentagon_needs_the_middle_twist():
    rep = ty.pentagon_report(HALF, literal_middle=True)
    assert not rep.holds
    assert rep.failures == [(1, 4, 1, 4), (1, 4, 3, 4), (2, 4, 2, 4)]


# the full failure set of the literal-middle control, as the matrix-level
# associator form of the pentagon computed it
LITERAL_MIDDLE_FAILURES = [
    (1, 4, 1, 4), (1, 4, 3, 4), (2, 4, 2, 4), (2, 4, 3, 4), (3, 4, 1, 4),
    (3, 4, 2, 4), (4, 1, 4, 1), (4, 1, 4, 3), (4, 1, 4, 4), (4, 2, 4, 2),
    (4, 2, 4, 3), (4, 2, 4, 4), (4, 3, 4, 1), (4, 3, 4, 2), (4, 3, 4, 4),
    (4, 4, 1, 4), (4, 4, 2, 4), (4, 4, 3, 4), (4, 4, 4, 4)]


def test_full_negative_control_failure_sets():
    rep = ty.pentagon_report(ONE, max_failures=625)
    assert rep.quadruples == 625
    assert rep.failures == [(4, 4, 4, 4)]
    for tau in (HALF, -HALF):
        rep = ty.pentagon_report(tau, literal_middle=True, max_failures=625)
        assert rep.quadruples == 625
        assert rep.failures == LITERAL_MIDDLE_FAILURES


def _reference_pentagon_holds(w, x, y, z, tau, literal_middle):
    # every equation of one quadruple evaluated from F calls, as the scan
    # was first written
    def f(*labels):
        return ty.F(*labels, tau, literal_middle)

    fuse = ty.fuse
    for a in fuse(w, x):
        for b in fuse(a, y):
            for t in fuse(b, z):
                for c in fuse(y, z):
                    for d in fuse(x, c):
                        if t not in fuse(w, d):
                            continue
                        two_moves = (f(a, y, z, b, c, t) * f(w, x, c, a, d, t)
                                     if t in fuse(a, c) else ZERO)
                        three_moves = sum(
                            (f(w, x, y, a, e, b) * f(w, e, z, b, d, t)
                             * f(x, y, z, e, c, d)
                             for e in fuse(x, y)
                             if b in fuse(w, e) and d in fuse(e, z)), ZERO)
                        if two_moves != three_moves:
                            return False
    return True


def _reference_pentagon(tau, literal_middle, max_failures):
    failures, count = [], 0
    for quadruple in product(ty.SIMPLES, repeat=4):
        count += 1
        if not _reference_pentagon_holds(*quadruple, tau, literal_middle):
            failures.append(quadruple)
            if len(failures) >= max_failures:
                break
    return count, failures


def _reference_unitarity(tau):
    # one F call per block entry, every block tested on its own
    fuse = ty.fuse
    for x, y, z, t in product(ty.SIMPLES, repeat=4):
        us = [u for u in fuse(x, y) if t in fuse(u, z)]
        vs = [v for v in fuse(y, z) if t in fuse(x, v)]
        if not is_unitary([[ty.F(x, y, z, u, v, t, tau) for u in us]
                           for v in vs]):
            return False, (x, y, z)
    return True, None


SCALES = [pytest.param(Cyc.from_rational(q), id=str(q)) for q in (
    Fraction(1, 2), Fraction(-1, 2), 1, Fraction(3, 7))] + [
    pytest.param(ZETA * HALF, id="z/2")]


@pytest.mark.parametrize("max_failures", [1, 3, 625])
@pytest.mark.parametrize("literal_middle", [False, True])
@pytest.mark.parametrize("tau", SCALES)
def test_pentagon_matches_the_per_equation_loop(tau, literal_middle,
                                                max_failures):
    count, failures = _reference_pentagon(tau, literal_middle, max_failures)
    rep = ty.pentagon_report(tau, literal_middle, max_failures)
    assert (rep.quadruples, rep.failures) == (count, failures)


@pytest.mark.parametrize("tau", SCALES)
def test_unitarity_matches_the_per_block_loop(tau):
    assert ty.associator_unitarity(tau) == _reference_unitarity(tau)


def _count_calls(monkeypatch, name):
    calls = [0]
    original = getattr(Cyc, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(Cyc, name, counted)
    return calls


def test_pentagon_evaluates_each_identity_once(monkeypatch):
    # 5,008 products when every equation was evaluated from F calls
    muls = _count_calls(monkeypatch, "__mul__")
    assert ty.pentagon_report(HALF).holds
    assert muls[0] <= 1000


def test_gauge_family_sums_halves(monkeypatch):
    # 24,640 additions when each of the 256 assignments summed its terms
    adds = _count_calls(monkeypatch, "__add__")
    assert modcat.global_phase_family()["passing"] == 256
    assert adds[0] <= 2000


def test_big_f_symbol_is_a_scaled_bicharacter():
    for u in ty.GROUP:
        for v in ty.GROUP:
            assert (ty.F(ty.RHO, ty.RHO, ty.RHO, u, v, ty.RHO, HALF)
                    == HALF * ty.chi(u, v))


def test_fusion_ring_match():
    assert ty.fusion_ring_match(BUILT.fusion_rules).passed


def test_fusion_ring_mismatch_is_detected():
    rules = BUILT.fusion_rules
    cyclic = {**rules, "table": [[0, 1, 2, 3], [1, 2, 3, 0],
                                 [2, 3, 0, 1], [3, 0, 1, 2]]}
    report = ty.fusion_ring_match(cyclic)
    assert report.first_failure() == (
        "relabelings_give_xor: sigma[table[i][j]] != sigma[i] ^ sigma[j] "
        "at (sigma, i, j) = ((0, 1, 2, 3), 1, 1)")


def test_verbatim_module_data_fails():
    rep = modcat.module_report("verbatim")
    assert not rep.unitary
    assert rep.hooks == {"e": True, "a": False, "b": False, "c": False}
    assert rep.group_part
    assert not rep.passed


def test_repaired_module_data_passes():
    rep = modcat.module_report("repaired")
    assert rep.unitary
    assert all(rep.hooks.values())
    assert rep.group_part
    assert rep.passed


def test_unknown_source_is_rejected():
    with pytest.raises(ValueError):
        modcat.module_report("nonsense")


def test_repair_distance():
    assert modcat.repair_distance() == 5


def test_forced_columns_satisfy_their_hooks():
    for g in modcat.GROUP_LABELS:
        col = modcat.forced_column(modcat.PSI[g])
        assert modcat.hook_equation(col, modcat.PSI[g])


def test_phase_space_is_empty():
    found = modcat.column_phase_search()
    assert found == {"space": 65536, "solutions": 0}
    # the count factors column by column: only e has phase pairs that work
    pairs = {g: sum(modcat.hook_equation(
                 [wc * modcat.PSI_RHO_PRINTED[r][ci] for r in range(4)],
                 [[wg * v for v in row] for row in modcat.PSI[g]])
                 for wc in modcat.MU4 for wg in modcat.MU4)
             for ci, g in enumerate(modcat.GROUP_LABELS)}
    assert pairs == {"e": 4, "a": 0, "b": 0, "c": 0}
    # independent witness: two printed rows coincide, so no column phases
    # can ever make the printed matrix unitary
    assert modcat.PSI_RHO_PRINTED[0] == modcat.PSI_RHO_PRINTED[3]


def test_gauge_family_all_pass():
    fam = modcat.global_phase_family()
    assert fam["assignments"] == 256
    assert fam["passing"] == 256
    assert fam["identity_assignment_distance"] == 5


def _reference_phase_family():
    # every assignment rebuilt and checked from scratch, as the family was
    # first computed
    passing = 0
    for phases in product(modcat.MU4, repeat=4):
        psis = {g: [[w * v for v in row] for row in modcat.PSI[g]]
                for g, w in zip(modcat.GROUP_LABELS, phases)}
        cols = [modcat.forced_column(psis[g]) for g in modcat.GROUP_LABELS]
        m = [[cols[ci][r] for ci in range(4)] for r in range(4)]
        if (is_unitary(m)
                and all(modcat.hook_equation(cols[ci], psis[g])
                        for ci, g in enumerate(modcat.GROUP_LABELS))
                and modcat.group_equation(psis)):
            passing += 1
    return passing


def _psi_mutant(g, r, c, new):
    psi = {h: [list(row) for row in m] for h, m in modcat.PSI.items()}
    psi[g][r][c] = new
    return pytest.param(psi, id=f"{g}[{r}][{c}]={new}")


def _psi_mutants(count, seed=0):
    # one entry of one 2x2 matrix: + 1, times z, or zero <-> z
    rng = random.Random(seed)
    for _ in range(count):
        g = rng.choice(modcat.GROUP_LABELS)
        r, c = rng.randrange(2), rng.randrange(2)
        old = modcat.PSI[g][r][c]
        yield _psi_mutant(g, r, c, rng.choice(
            [old + ONE, old * ZETA, ZETA if old == ZERO else ZERO]))


@pytest.mark.parametrize("psi", [
    pytest.param(modcat.PSI, id="printed"), *_psi_mutants(6),
    # a singular matrix has no forced column
    _psi_mutant("e", 0, 1, ZERO)])
def test_gauge_family_matches_the_per_assignment_loop(monkeypatch, psi):
    monkeypatch.setattr(modcat, "PSI", psi)
    try:
        want = _reference_phase_family()
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            modcat.global_phase_family()
        return
    assert modcat.global_phase_family()["passing"] == want


def test_worked_example():
    # the g == b leg traced through the repaired matrix: the image of the
    # basis vector tagged (b, b rho), whose hook composite is the identity
    col = [row[2] for row in modcat.repaired_psi_rho()]
    assert modcat.hook_equation(col, modcat.PSI["b"])
    assert [str(v) for v in col] == ["1/2*z - 1/2*z^3", "0", "0",
                                     "-1/2*z + 1/2*z^3"]


def test_repaired_matrix_entries():
    m = modcat.repaired_psi_rho()
    inv = Cyc((0, 1, 0, -1), 2)
    half = HALF
    assert m[0] == [Cyc(), half, inv, half]
    assert m[3] == [Cyc(), half, -inv, half]
    # exactly the five entries the repair touched differ from the print
    diffs = sum(m[r][c] != modcat.PSI_RHO_PRINTED[r][c]
                for r in range(4) for c in range(4))
    assert diffs == 5
