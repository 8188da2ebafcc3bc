"""The hopfcheck benchmark: seeded workloads, end-to-end times, traced layers.

Run from the repository root:

    python3 bench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Every workload is a closed loop with one client: a repetition starts only
when the previous one has finished, one child process runs at a time, and
each child has PYTHONPATH=src, PYTHONHASHSEED=0 and numpy/BLAS/OpenMP
threads pinned to 1.  Inputs come from gen.py and depend only on --seed.

  verify-all    a fresh `hopfcheck verify --all --json` process per
                repetition, with the generated order-8 model and --tau=+-1/2.
                The builders are lru_cached and the tensor cache persists,
                so repeating inside one process would only time the caches.
  twist-ladder  a fresh `hopfcheck verify --check model.twist-axioms` process
                on the order-8 rung, then one on the order-16 rung.
  category      one process repeats the TY pentagon scans (+-1/2, a wrong
                seeded scale, the literal middle) and associator unitarity,
                then the module-category reports; nothing there is cached.

Every repetition passes a correctness gate (see the check_* functions); a
repetition that fails it counts in `failed` and is left out of the times.
Before each repetition (each category child) the run takes one set-up
sample: write the inputs and import hopfcheck.cli in a fresh process.

The children run hopfcheck under tracer.py with its spans but without its
counters and Q(z) operator wrappers (a few thousand spans per repetition,
about a microsecond each).  The spans cut a repetition into pieces of at
most a few tenths of a second: the self time of each span, keyed by name
and occurrence, plus the stage's time outside every span.  --trace 0 reports setup_s, the fastest set-up sample;
best_rep_s, the sum over all pieces of each piece's fastest time in the
run; and peak_rss_mb, the median peak resident size of a repetition's
largest child.  Fastest, not median: on shared hosts the CPU speed switches
between levels for seconds to tens of seconds at a time (on a 2-vCPU Xeon
VM a fixed loop took 0.17 s or 0.30 s), so a run's median lands on either
level, and a whole repetition of several seconds often finds no fast
stretch, while every short piece does.  The summary above the result line
gives each stage (verify_all_s; twist8_s and twist16_s; pentagon_s and
modcat_s) as its sum of fastest pieces, and the minimum, median, quartiles
and sample count of its whole wall times.

--trace 1 alternates timed and fully traced repetitions and reports the
per-layer counts and self times of tracer.py (medians over the traced
repetitions; counts must repeat exactly) and trace_overhead_s, the median
fully traced minus the median timed repetition time.

The last line of standard output is the JSON result.  Working files go to
.bench_build/hopfcheck/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "hopfcheck"
BUDGET_S = 170.0        # every child is killed by then; a run must end in 180 s
CHUNK_S = 5.0           # longest in-process stretch of category repetitions

# the registered checks and the verdict each must produce; the two negative
# controls must also fail with their own witness, not with a crash
EXPECTED = {
    "kp.axioms": "pass", "kp.one-dim": "pass", "kp.tensor-square": "pass",
    "kp.fusion-graph": "pass", "vtilde.group": "pass",
    "vtilde.function-algebra": "pass", "smash.axioms": "pass",
    "twist.axioms": "pass", "twist.noncommutative": "pass",
    "twist.iso-phi": "pass", "su2m1.quotient": "pass",
    "ty.bicharacter": "pass", "ty.pentagon": "pass",
    "ty.pentagon-negative": "fail", "ty.fusion-match": "pass",
    "modcat.unitarity": "fail", "modcat.diagrams": "pass",
    "modcat.repair": "pass", "model.twist-axioms": "pass",
}
NEGATIVE_WITNESS = {"ty.pentagon-negative": "fails first at",
                    "modcat.unitarity": "not unitary"}

# what the category call set must find on every seed
CATEGORY_FACTS = {
    "pentagon 1/2": [True, 625], "pentagon -1/2": [True, 625],
    "pentagon wrong": [False, 625], "pentagon literal": False,
    "unitary 1/2": True, "unitary -1/2": True, "unitary wrong": False,
    "verbatim unitary": False, "repaired passed": True,
    "phase solutions": 0, "gauge": [256, 256], "repair distance": 5,
}

END_TO_END = {"setup_s": "s", "best_rep_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    code: int
    out: str
    wall_s: float
    rss_mb: float


@dataclass
class Rep:
    """One repetition: the wall time of each stage, the time of each piece
    ("stage|span#k" and "stage|rest"), its gate verdict and its full trace."""
    stages: dict[str, float]
    pieces: dict[str, float]
    rss_mb: float
    failure: str = ""
    trace: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


@dataclass
class Run:
    workload: str
    seed: int
    work: Path              # inputs, child output and traces of this run
    deadline: float
    inputs: dict
    setup_s: list[float] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NUMEXPR_NUM_THREADS="1")
    return env


def run_child(argv: list[str], run: Run) -> Child:
    """Run one child to completion (killed at the run's deadline)."""
    out_path = run.work / "child.out"
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        timer = threading.Timer(max(0.0, run.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_text(encoding="utf-8"),
                 wall, usage.ru_maxrss / 1024)


def run_cli(run: Run, args: list[str], full: bool) -> tuple[Child, dict | None]:
    """`hopfcheck ARGS` in a fresh process; its trace (full) or pieces."""
    out = run.work / "cli.json"
    out.unlink(missing_ok=True)
    child = run_child([sys.executable, str(BENCH / "child.py"), "cli",
                       "full" if full else "timed", str(out), *args], run)
    return child, load_json(out)


def load_json(path: Path) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def stage_pieces(stage: str, wall: float, pieces: dict | None) -> dict[str, float]:
    """A stage's pieces keyed "stage|piece", plus the time outside them."""
    pieces = pieces or {}
    out = {f"{stage}|{k}": v for k, v in pieces.items()}
    out[f"{stage}|rest"] = wall - sum(pieces.values())
    return out


# correctness gates: each returns "" when the output is right, else why not

def check_verify_all(child: Child) -> str:
    if child.code != 0:
        return f"exit code {child.code}"
    try:
        got = {r["id"]: r for r in json.loads(child.out)}
    except (ValueError, KeyError, TypeError):
        return "output is not the JSON report"
    if sorted(got) != sorted(EXPECTED):
        return f"ran {len(got)} checks, expected {len(EXPECTED)}"
    for cid, want in EXPECTED.items():
        verdict, witness = got[cid]["verdict"], got[cid]["witness"]
        if verdict != want:
            return f"{cid}: {verdict}, expected {want} ({witness})"
        if NEGATIVE_WITNESS.get(cid, "") not in witness:
            return f"{cid}: witness {witness!r} lacks {NEGATIVE_WITNESS[cid]!r}"
    return ""


def check_twist(child: Child, rung: str) -> str:
    if child.code != 0:
        return f"{rung}: exit code {child.code}"
    try:
        result = json.loads(child.out)
        verdict, witness = result["verdict"], result["witness"]
    except (ValueError, KeyError, TypeError):
        return f"{rung}: output is not the JSON report"
    if verdict != "pass":
        return f"{rung}: {verdict} ({witness})"
    found = re.search(r"twist blocks \(([\d, ]*)\)", witness)
    blocks = [int(b) for b in re.findall(r"\d+", found.group(1))] if found else []
    _, order, expected = gen.RUNGS[rung]
    if sorted(blocks) != sorted(expected) or sum(b * b for b in blocks) != order:
        return f"{rung}: blocks {blocks}, expected {sorted(expected)} of dim {order}"
    return ""


def check_category(rep: dict) -> str:
    if "error" in rep:
        return rep["error"]
    bad = [f"{k}={rep['facts'].get(k)!r}" for k, want in CATEGORY_FACTS.items()
           if rep["facts"].get(k) != want]
    return "wrong facts: " + ", ".join(bad) if bad else ""


# workloads: each runs at least one repetition, fully traced when full is set

def verify_all(run: Run, seconds: float, full: bool) -> list[Rep]:
    child, out = run_cli(run, ["verify", "--all", "--json", "--model",
                               str(run.inputs["paths"]["order8"]),
                               f"--tau={run.inputs['tau']}"], full)
    wall = {"verify_all_s": child.wall_s}
    pieces = {} if full else stage_pieces("verify_all_s", child.wall_s, out)
    return [Rep(wall, pieces, child.rss_mb, check_verify_all(child),
                out if full else None)]


def twist_ladder(run: Run, seconds: float, full: bool) -> list[Rep]:
    walls, pieces, failures, traces, rss = {}, {}, [], [], 0.0
    for rung, stage in (("order8", "twist8_s"), ("order16", "twist16_s")):
        child, out = run_cli(run, ["verify", "--check", "model.twist-axioms",
                                   "--json", "--model",
                                   str(run.inputs["paths"][rung])], full)
        walls[stage] = child.wall_s
        if not full:
            pieces.update(stage_pieces(stage, child.wall_s, out))
        rss = max(rss, child.rss_mb)
        failures.append(check_twist(child, rung))
        traces.append(out)
    trace = tracer.merge(traces) if full and None not in traces else None
    return [Rep(walls, pieces, rss, "; ".join(f for f in failures if f), trace)]


def category(run: Run, seconds: float, full: bool) -> list[Rep]:
    out = run.work / "category.json"
    out.unlink(missing_ok=True)
    child = run_child([sys.executable, str(BENCH / "child.py"), "category",
                       "full" if full else "timed", str(out),
                       str(run.inputs["wrong_tau"]), str(seconds)], run)
    try:
        reps = json.loads(child.out)["reps"]
    except (ValueError, KeyError, TypeError):
        reason = f"category child failed with exit code {child.code}"
        return [Rep({"pentagon_s": child.wall_s, "modcat_s": 0.0}, {},
                    child.rss_mb, reason)]
    trace = load_json(out) if full else None
    result = []
    for r in reps:
        walls = {s: r.get(s, 0.0) for s in ("pentagon_s", "modcat_s")}
        pieces = {}
        if not full:
            for stage, wall in walls.items():
                pieces.update(stage_pieces(stage, wall,
                                           r.get("pieces", {}).get(stage)))
        result.append(Rep(walls, pieces, child.rss_mb, check_category(r), trace))
    return result


WORKLOADS = {"verify-all": verify_all, "twist-ladder": twist_ladder,
             "category": category}


# set-up, environment, reporting

def prepare(workload: str, seed: int, started: float) -> Run:
    """A run with its inputs written and the CLI's bytecode compiled."""
    work = WORK / f"{workload}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, work, started + BUDGET_S, gen.inputs(seed))
    setup_sample(run)
    return run


def setup_sample(run: Run) -> float:
    """Seconds to write the inputs and import hopfcheck.cli in a fresh process."""
    start = time.perf_counter()
    data = gen.inputs(run.seed)
    data["paths"] = {}
    for rung, text in data["models"].items():
        path = run.work / f"model-{rung}.json"
        path.write_text(text, encoding="utf-8")
        data["paths"][rung] = path
    child = run_child([sys.executable, "-c", "import hopfcheck.cli; "
                       "print(hopfcheck.cli.__file__)"], run)
    took = time.perf_counter() - start
    if child.code != 0 or Path(child.out.strip()) != SRC / "hopfcheck" / "cli.py":
        raise SystemExit(f"hopfcheck.cli does not import from {SRC}")
    if data["models"] != run.inputs["models"]:
        raise SystemExit("the input generator is not deterministic")
    run.inputs = data
    return took


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "commit": commit}


def describe(values: list[float]) -> str:
    """Minimum, median, quartiles and sample count, plus the highest tail
    percentile that has at least ten samples beyond it."""
    text = (f"min {min(values):.4f}, median {statistics.median(values):.4f} "
            f"(n={len(values)}")
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", q1 {q1:.4f}, q3 {q3:.4f}"
    for pct in (99, 90):
        if len(values) * (100 - pct) >= 1000:
            cut = statistics.quantiles(values, n=100)[pct - 1]
            text += f", p{pct} {cut:.4f}"
            break
    return text + ")"


def measure(run: Run, seconds: float, traced: bool) -> tuple[list[Rep], list[Rep]]:
    """Repetitions until `seconds` have passed, each after one set-up sample.

    Untraced, a category child repeats in-process for up to CHUNK_S; traced,
    each untraced repetition is paired with a traced one.
    """
    step = WORKLOADS[run.workload]
    plain: list[Rep] = []
    traced_reps: list[Rep] = []
    start = time.monotonic()
    while not plain or time.monotonic() - start < seconds:
        if time.monotonic() >= run.deadline:
            break
        run.setup_s.append(setup_sample(run))
        left = seconds - (time.monotonic() - start)
        plain += step(run, 0 if traced else min(left, CHUNK_S), False)
        if traced:
            traced_reps += step(run, 0, True)
    return plain, traced_reps


def end_to_end(run: Run, good: list[Rep]) -> tuple[dict, dict]:
    """The --trace 0 metrics and each stage's sum of fastest pieces."""
    best: dict[str, float] = {}
    for r in good:
        for key, took in r.pieces.items():
            best[key] = min(took, best.get(key, took))
    stages = {s: sum(v for k, v in best.items() if k.split("|")[0] == s)
              for s in good[0].stages}
    values = {"setup_s": min(run.setup_s),
              "best_rep_s": sum(best.values()),
              "peak_rss_mb": statistics.median(r.rss_mb for r in good)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, stages


def per_layer(plain: list[Rep], traced: list[Rep], problems: list[str]) -> dict:
    """The --trace 1 metrics; notes in problems when a count did not repeat."""
    layers = [tracer.layer_metrics(r.trace, list(EXPECTED))
              for r in traced if r.trace is not None]
    counts = [{k: v for k, v in m.items() if not k.endswith("self_s")}
              for m in layers]
    if not layers or len(layers) < len(traced):
        problems.append("a traced repetition wrote no trace")
    elif any(c != counts[0] for c in counts):
        problems.append("per-layer counts differ between traced repetitions")
    values = tracer.median_metrics(layers) if layers else {}
    values["trace_overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                  - statistics.median(r.wall_s for r in plain))
    for name, value in values.items():
        print(f"  {name:<48} {value:.6g}")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def report(run: Run, seconds: float, traced: bool) -> dict:
    """Measure one workload, print its summary and return the result object."""
    plain, traced_reps = measure(run, seconds, traced)
    reps = plain + traced_reps
    failed = sum(bool(r.failure) for r in reps)
    problems = sorted({r.failure for r in reps if r.failure})
    good = [r for r in plain if not r.failure] or plain
    print(f"workload {run.workload}, seed {run.seed}, "
          f"{len(reps)} repetitions, {failed} failed "
          f"(fail_frac {failed / len(reps):.3f})")
    metrics, stages = end_to_end(run, good)
    print(f"  setup_s      {describe(run.setup_s)} s")
    for stage, best in stages.items():
        walls = [r.stages[stage] for r in good]
        print(f"  {stage:<12} best {best:.4f}, {describe(walls)} s")
    print(f"  best_rep_s   {sum(stages.values()):.4f} s; whole repetitions "
          f"{describe([r.wall_s for r in good])} s")
    print(f"  peak_rss_mb  {describe([r.rss_mb for r in good])} MB")
    if traced:
        metrics, stages = per_layer(plain, traced_reps, problems), {}
    for why in problems:
        print(f"  failure: {why}")
    return {"correct": not problems, "attempted": len(reps),
            "failed": failed, "metrics": metrics, "stages": stages,
            "setup_samples": run.setup_s,
            "rep_samples": [{"stages": r.stages, "rss_mb": r.rss_mb,
                             "failure": r.failure} for r in reps]}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hopfcheck" / "cli.py").is_file():
        print(f"no hopfcheck sources under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    env = environment()
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        run = prepare(name, args.seed, time.monotonic())
        results[name] = report(run, args.seconds, bool(args.trace))
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": env, **results[name]}
        path = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.workload == "all":
        metrics = {}
        for name, res in results.items():
            for key, m in res["metrics"].items():
                metrics[f"{name}.{key}"] = m
            for stage, value in res["stages"].items():
                metrics[stage] = {"value": value, "unit": "s"}
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
