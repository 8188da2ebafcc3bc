"""Child processes of the hopfcheck benchmark (started by run.py).

    python3 bench/child.py cli MODE OUT ARG...
        run `hopfcheck ARG...` with the tracer installed; MODE "full" writes
        the whole trace to OUT, MODE "timed" only the time of each piece
    python3 bench/child.py category MODE OUT WRONG_TAU SECONDS
        repeat the category call set until SECONDS have passed (at least
        once) and print one JSON object with the times, pieces and raw
        facts of each repetition (run.py judges the facts); MODE "full"
        also writes the trace of all repetitions to OUT

Both expect hopfcheck on the import path; run.py sets PYTHONPATH to src.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from time import perf_counter

import tracer


def category_rep(wrong_tau: Fraction, tr: tracer.Tracer, timed: bool) -> dict:
    """One pass over the pentagon and module-category calls, in two parts."""
    from hopfcheck.category_checks import modcat, ty
    from hopfcheck.cyclotomic import Cyc

    start = perf_counter()
    facts: dict = {}
    for label, tau in (("1/2", Fraction(1, 2)), ("-1/2", Fraction(-1, 2)),
                       ("wrong", wrong_tau)):
        scale = Cyc.from_rational(tau)
        # no early exit, so the wrong scale scans every quadruple too
        rep = ty.pentagon_report(scale, max_failures=10**6)
        facts[f"pentagon {label}"] = [rep.holds, rep.quadruples]
        facts[f"unitary {label}"] = ty.associator_unitarity(scale)[0]
    facts["pentagon literal"] = ty.pentagon_report(
        Cyc.from_rational(Fraction(1, 2)), literal_middle=True).holds
    middle = perf_counter()
    pentagon = tracer.pieces(tr.take()) if timed else {}
    facts["verbatim unitary"] = modcat.module_report("verbatim").unitary
    facts["repaired passed"] = modcat.module_report("repaired").passed
    facts["phase solutions"] = modcat.column_phase_search()["solutions"]
    family = modcat.global_phase_family()
    facts["gauge"] = [family["passing"], family["assignments"]]
    facts["repair distance"] = family["identity_assignment_distance"]
    end = perf_counter()
    modcat_pieces = tracer.pieces(tr.take()) if timed else {}
    return {"pentagon_s": middle - start, "modcat_s": end - middle,
            "pieces": {"pentagon_s": pentagon, "modcat_s": modcat_pieces},
            "facts": facts}


def category(wrong_tau: Fraction, seconds: float, tr: tracer.Tracer,
             timed: bool) -> list[dict]:
    reps: list[dict] = []
    start = perf_counter()
    while not reps or perf_counter() - start < seconds:
        try:
            reps.append(category_rep(wrong_tau, tr, timed))
        except Exception as exc:    # a crash is a failed repetition
            tr.take()
            reps.append({"error": f"{type(exc).__name__}: {exc}"})
    return reps


def main(argv: list[str]) -> int:
    command, mode, out_path = argv[:3]
    tr = tracer.Tracer()
    tracer.install(tr, full=mode == "full")
    if command == "cli":
        from hopfcheck import cli
        code = cli.main(argv[3:])
        trace = tr.take()
        out = trace if mode == "full" else tracer.pieces(trace)
    elif command == "category":
        reps = category(Fraction(argv[3]), float(argv[4]), tr, mode != "full")
        print(json.dumps({"reps": reps}))
        code, out = 0, tr.take()
    else:
        print(f"unknown child command {command!r}", file=sys.stderr)
        return 2
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
