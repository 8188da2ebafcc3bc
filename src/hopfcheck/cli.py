"""Command line interface: run named verifications, list them, export models.

Every check is registered with the verdict it is expected to produce; two
are negative controls that must fail.  A check that raises gets the verdict
"error", which matches no expectation, so a crash never passes for a designed
failure.  Exit code 0 means every executed check matched its expected
verdict, 1 means some check surprised us, 2 is a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, NamedTuple

from . import models
from .category_checks import modcat, ty
from .cyclotomic import Cyc, HALF, ONE
from .group_twist import read_model, twist_from_model_dict
from .hopf_core import Report, commutativity_flags, hopf_to_dict


class Context(NamedTuple):
    model: dict | None
    tau: Cyc


class CheckSpec:
    """One registered check; `runner` stays assignable so it can be wrapped."""

    def __init__(self, id: str, anchor: str, description: str, expected: str,
                 runner: Callable[[Context], tuple[bool, str]],
                 needs_model: bool = False) -> None:
        self.id = id
        self.anchor = anchor
        self.description = description
        self.expected = expected
        self.runner = runner
        self.needs_model = needs_model


def _failing(d: dict[str, bool]) -> str:
    return ", ".join(k for k, v in d.items() if not v)


def _verdict(report: Report, pass_text: str,
             names: tuple[str, ...] = ()) -> tuple[bool, str]:
    """pass_text when the named checks hold (all checks when none are
    named), else the first failing one as `failing: <check>: <witness>`."""
    bad = next((k for k in names or report.checks if not report.checks[k]),
               None)
    if bad is None:
        return True, pass_text
    witness = report.witnesses.get(bad)
    return False, f"failing: {bad}: {witness}" if witness else f"failing: {bad}"


# build_kp, build_vtilde, build_smash and twist_from_model_dict raise unless
# the structure they return passes, so those checks have no failing branch

def _run_kp_axioms(ctx: Context) -> tuple[bool, str]:
    models.build_kp()
    return True, "all Hopf *-algebra axioms hold on the direct model (dim 8)"


def _run_kp_one_dim(ctx: Context) -> tuple[bool, str]:
    return _verdict(models.kp_tensor_square().report,
                    "exactly four group-like unitaries, forming the Klein "
                    "group, matching the entered list",
                    ("unit_is_first", "klein_squares", "klein_product",
                     "matches_search"))


def _run_kp_tensor_square(ctx: Context) -> tuple[bool, str]:
    return _verdict(models.kp_tensor_square().report,
                    "entered projections are an orthogonal rank-one "
                    "resolution and the fundamental's square splits "
                    "through them into the four lines")


def _run_kp_fusion_graph(ctx: Context) -> tuple[bool, str]:
    return _verdict(models.star_shape_checks(models.kp_fusion_graph()),
                    "fusion with the fundamental is the four-leaf star, "
                    "weights 2 inward and 1/2 outward")


def _run_vtilde_group(ctx: Context) -> tuple[bool, str]:
    models.build_vtilde()
    return True, ("order-8 unitary matrix group with central grading "
                  "and order-2 conjugation action verified")


def _run_vtilde_fa(ctx: Context) -> tuple[bool, str]:
    # function_hopf raises unless it restricts the verified crossed product
    comm, cocomm, wit = commutativity_flags(models.build_smash().function_hopf)
    report = Report()
    report.record("commutative", comm, wit.get("commutative", ""))
    report.record("noncocommutative", not cocomm,
                  "every coproduct column is flip-invariant")
    return _verdict(report, "function algebra is a commutative, "
                    "noncocommutative Hopf *-algebra of dimension 8")


def _run_smash_axioms(ctx: Context) -> tuple[bool, str]:
    blocks = models.build_smash().hopf.algebra.block_sizes
    return True, f"crossed product verified; blocks {blocks}"


def _run_twist_axioms(ctx: Context) -> tuple[bool, str]:
    return _verdict(models.build_vtilde_twist().report,
                    "twist verified on the dictionary basis; transported "
                    "coproduct reproduces the entered table exactly",
                    ("matches_coset_presentation", "even_part_commutative"))


def _run_twist_noncomm(ctx: Context) -> tuple[bool, str]:
    return _verdict(models.build_vtilde_twist().report,
                    "e11 e21 == 0 while e21 e11 == e21; the coproduct "
                    "differs from its flip and matches the corrected "
                    "odd-part expansion",
                    ("noncommutative", "noncocommutative",
                     "odd_coproduct_display", "e11_e21_is_zero",
                     "e21_e11_is_e21"))


def _run_twist_iso(ctx: Context) -> tuple[bool, str]:
    return _verdict(models.build_phi_and_verify().report,
                    "base change is a Hopf *-isomorphism onto the direct "
                    "model and aligns the three coproduct conjugators")


def _run_su2m1(ctx: Context) -> tuple[bool, str]:
    f = models.build_fundamental()
    return _verdict(f.report, "entries satisfy the q == -1 special unitary "
                    f"relations and generate: word ranks {f.word_ranks}")


def _run_ty_bichar(ctx: Context) -> tuple[bool, str]:
    d = ty.bicharacter_checks()
    if all(d.values()):
        return True, "bicharacter is symmetric, bimultiplicative, nondegenerate"
    return False, f"failing: {_failing(d)}"


def _run_ty_pentagon(ctx: Context) -> tuple[bool, str]:
    rep = ty.pentagon_report(ctx.tau)
    uni, bad = ty.associator_unitarity(ctx.tau)
    if rep.holds and uni:
        return True, (f"pentagon holds over {rep.quadruples} quadruples at "
                      f"scale {ctx.tau}; all associators unitary")
    parts = []
    if not rep.holds:
        parts.append(f"pentagon fails first at {rep.failures[0]}")
    if not uni:
        parts.append(f"non-unitary associator at {bad}")
    return False, f"scale {ctx.tau}: " + "; ".join(parts)


def _run_ty_pentagon_negative(ctx: Context) -> tuple[bool, str]:
    wrong_scale = ty.pentagon_report(ONE)
    literal = ty.pentagon_report(HALF, literal_middle=True)
    if wrong_scale.holds and literal.holds:
        return True, "negative controls unexpectedly satisfied the pentagon"
    parts = []
    if not wrong_scale.holds:
        parts.append(f"scale 1 fails first at {wrong_scale.failures[0]}")
    if not literal.holds:
        parts.append("dropping the middle bicharacter twist fails first at "
                     f"{literal.failures[0]}")
    return False, "; ".join(parts)


def _run_ty_fusion_match(ctx: Context) -> tuple[bool, str]:
    m = ty.fusion_ring_match(models.kp_fusion_rules())
    if m["matches"] and m["bijections"] == 6:
        return True, ("fusion rules match; all 6 relabelings of the "
                      "nontrivial invertibles work")
    return False, f"bijections={m['bijections']}; facts: {_failing(m['facts'])}"


def _run_modcat_unitarity(ctx: Context) -> tuple[bool, str]:
    rep = modcat.module_report("verbatim")
    if rep.unitary:
        return True, "printed 4x4 matrix is unexpectedly unitary"
    rows_equal = modcat.PSI_RHO_PRINTED[0] == modcat.PSI_RHO_PRINTED[3]
    extra = "; first and last rows coincide" if rows_equal else ""
    return False, f"printed 4x4 matrix is not unitary{extra}"


def _run_modcat_diagrams(ctx: Context) -> tuple[bool, str]:
    rep = modcat.module_report("repaired")
    if rep.passed:
        return True, ("repaired matrix is unitary and satisfies every hook "
                      "equation and the group equation")
    return False, (f"unitary={rep.unitary}; hooks failing: "
                   f"{_failing(rep.hooks) or 'none'}; group={rep.group_part}")


def _run_modcat_repair(ctx: Context) -> tuple[bool, str]:
    dist = modcat.repair_distance()
    search = modcat.column_phase_search()
    family = modcat.global_phase_family()
    ok = (dist == 5 and search["solutions"] == 0
          and family["passing"] == family["assignments"])
    if ok:
        return True, (f"forced repair changes {dist} entries; the "
                      f"{search['space']} phase-only adjustments admit no "
                      f"solution; all {family['assignments']} gauge choices "
                      "of the repair pass")
    return False, (f"distance={dist}, phase solutions={search['solutions']}, "
                   f"gauge passing={family['passing']}")


def _run_model_twist(ctx: Context) -> tuple[bool, str]:
    tw = twist_from_model_dict(ctx.model)
    return True, (f"user model verified; twist blocks "
                  f"{tw.hopf.algebra.block_sizes}")


REGISTRY: list[CheckSpec] = [
    CheckSpec("kp.axioms", "direct-model-hopf-axioms",
              "Hopf *-algebra axioms of the direct eight-dimensional model",
              "pass", _run_kp_axioms),
    CheckSpec("kp.one-dim", "group-like-lines",
              "group of one-dimensional corepresentations is the Klein group",
              "pass", _run_kp_one_dim),
    CheckSpec("kp.tensor-square", "fundamental-square-projections",
              "tensor square of the fundamental splits through the entered "
              "projections", "pass", _run_kp_tensor_square),
    CheckSpec("kp.fusion-graph", "fusion-star",
              "fusion with the fundamental is the four-leaf star graph",
              "pass", _run_kp_fusion_graph),
    CheckSpec("vtilde.group", "matrix-group-order-8",
              "the order-8 matrix group, its grading and its action",
              "pass", _run_vtilde_group),
    CheckSpec("vtilde.function-algebra", "function-algebra-axioms",
              "function algebra of the group is a Hopf *-algebra",
              "pass", _run_vtilde_fa),
    CheckSpec("smash.axioms", "crossed-product-axioms",
              "crossed product by the order-2 action is a Hopf *-algebra",
              "pass", _run_smash_axioms),
    CheckSpec("twist.axioms", "twist-axioms",
              "graded twist on the dictionary basis matches its entered "
              "coproduct table", "pass", _run_twist_axioms),
    CheckSpec("twist.noncommutative", "twist-noncommutativity",
              "twist is neither commutative nor cocommutative, with witnesses",
              "pass", _run_twist_noncomm),
    CheckSpec("twist.iso-phi", "base-change-isomorphism",
              "explicit isomorphism from the twist onto the direct model",
              "pass", _run_twist_iso),
    CheckSpec("su2m1.quotient", "minus-one-special-unitary-relations",
              "fundamental entries satisfy the q == -1 relations and generate",
              "pass", _run_su2m1),
    CheckSpec("ty.bicharacter", "bicharacter",
              "bicharacter on the Klein group is symmetric and nondegenerate",
              "pass", _run_ty_bichar),
    CheckSpec("ty.pentagon", "pentagon",
              "pentagon identity over all quadruples of simples",
              "pass", _run_ty_pentagon),
    CheckSpec("ty.pentagon-negative", "pentagon-negative-control",
              "negative controls: wrong scale and dropped middle twist",
              "fail", _run_ty_pentagon_negative),
    CheckSpec("ty.fusion-match", "fusion-ring-match",
              "fusion rules of the direct model match the category's ring",
              "pass", _run_ty_fusion_match),
    CheckSpec("modcat.unitarity", "printed-action-matrix",
              "negative control: the printed 4x4 action matrix is not unitary",
              "fail", _run_modcat_unitarity),
    CheckSpec("modcat.diagrams", "module-consistency",
              "repaired action matrix satisfies hook and group equations",
              "pass", _run_modcat_diagrams),
    CheckSpec("modcat.repair", "module-repair",
              "repair is forced: five entries, no phase-only alternative",
              "pass", _run_modcat_repair),
    CheckSpec("model.twist-axioms", "user-model-twist",
              "graded twist built from a user model file (requires --model)",
              "pass", _run_model_twist, needs_model=True),
]

_BY_ID = {spec.id: spec for spec in REGISTRY}

_EXPORTS: dict[str, Callable[[], object]] = {
    "kp": lambda: models.build_kp().hopf,
    "vtilde": lambda: models.build_smash().function_hopf,
    "vtilde-twist": lambda: models.build_vtilde_twist().hopf,
    "smash": lambda: models.build_smash().hopf,
}


def _execute(spec: CheckSpec, ctx: Context) -> dict:
    if spec.needs_model and ctx.model is None:
        return {"id": spec.id, "verdict": "skip", "expected": spec.expected,
                "elapsed_ms": 0, "anchor": spec.anchor,
                "witness": "requires --model with a model description file"}
    start = time.perf_counter()
    try:
        passed, witness = spec.runner(ctx)
        verdict = "pass" if passed else "fail"
    except Exception as exc:
        verdict = "error"
        witness = f"exception: {exc}"
    elapsed = int((time.perf_counter() - start) * 1000)
    return {"id": spec.id, "verdict": verdict, "expected": spec.expected,
            "elapsed_ms": elapsed, "anchor": spec.anchor, "witness": witness}


def _matched(result: dict) -> bool:
    return result["verdict"] == "skip" or result["verdict"] == result["expected"]


def _format_line(r: dict) -> str:
    tag = r["verdict"].upper()
    if r["verdict"] == "skip":
        note = ""
    elif r["verdict"] == r["expected"]:
        note = " (as designed)" if r["verdict"] == "fail" else ""
    else:
        note = " (UNEXPECTED)"
    return (f"{r['id']:<24} {tag + note:<22} {r['elapsed_ms']:>6} ms  "
            f"{r['witness']}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcheck",
        description="exact verification of the eight-dimensional Hopf "
                    "*-algebra models and their categorical data")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one check or all of them")
    group = verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--check", metavar="ID", help="run a single check")
    group.add_argument("--all", action="store_true", help="run every check")
    verify.add_argument("--json", action="store_true",
                        help="emit reports as JSON")
    verify.add_argument("--model", metavar="PATH",
                        help="JSON model description for model.twist-axioms")
    verify.add_argument("--tau", metavar="P/Q",
                        help="scale for ty.pentagon (default 1/2; write "
                             "--tau=-1/2 for negative values)")

    lst = sub.add_parser("list", help="list registered checks")
    lst.add_argument("filter", nargs="?", default="",
                     help="substring filter on check ids")

    exp = sub.add_parser("export", help="write a model as JSON")
    exp.add_argument("model_id", choices=sorted(_EXPORTS))
    exp.add_argument("path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    if args.command == "list":
        shown = [s for s in REGISTRY if args.filter in s.id]
        for spec in shown:
            print(f"{spec.id:<24} expected {spec.expected:<5} "
                  f"{spec.description}")
        if not shown:
            print(f"no checks match {args.filter!r}", file=sys.stderr)
            return 2
        return 0

    if args.command == "export":
        data = hopf_to_dict(_EXPORTS[args.model_id]())
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        try:
            with open(args.path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {args.path!r}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.model_id} to {args.path}")
        return 0

    # verify
    tau = HALF
    if args.tau is not None:
        try:
            tau = Cyc.from_strings([args.tau, "0", "0", "0"])
        except ValueError:
            print(f"--tau expects a fraction like 1/2, got {args.tau!r:.40}",
                  file=sys.stderr)
            return 2
    model = None
    if args.model is not None:
        try:
            with open(args.model, encoding="utf-8") as fh:
                model = json.load(fh)
            read_model(model)
        except (OSError, ValueError) as exc:
            print(f"cannot read model {args.model!r}: {exc}", file=sys.stderr)
            return 2
    ctx = Context(model=model, tau=tau)

    if args.check is not None:
        spec = _BY_ID.get(args.check)
        if spec is None:
            print(f"unknown check {args.check!r}; see 'hopfcheck list'",
                  file=sys.stderr)
            return 2
        if spec.needs_model and ctx.model is None:
            print(f"{spec.id} requires --model PATH", file=sys.stderr)
            return 2
        result = _execute(spec, ctx)
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            print(_format_line(result))
        return 0 if _matched(result) else 1

    results = [_execute(spec, ctx) for spec in REGISTRY]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            print(_format_line(r))
        matched = sum(_matched(r) for r in results)
        skipped = sum(r["verdict"] == "skip" for r in results)
        print(f"\n{matched}/{len(results)} checks matched their expected "
              f"verdict ({skipped} skipped)")
    return 0 if all(_matched(r) for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
