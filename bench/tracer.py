"""A small standard-library tracer for the benchmark's per-layer run.

The tracer wraps named public functions of hopfcheck from outside: each
wrapper is installed in every module namespace (and every class attribute)
that binds the original, because `from .linalg import solve_unique` copies
the name and patching `linalg` alone would miss those callers.

Spans (name, start, end, parent, scalar seconds, extra) and counts are kept
in memory until `take` hands them over; child.py writes them out when the
traced process ends.  The Q(z) operators are too hot to record one span per
call, so a full trace counts them, and adds the time of each outermost
operator call to the open span's scalar seconds (or to `root_scalar_s`
outside every span).  A timed run records the spans alone.  Self times and
pieces are computed afterwards from the written spans; see `self_times`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Callable

# Q(z) operators: metric name -> the Cyc attributes that carry it; reflected
# forms share the counter of their operator
SCALAR_OPS = {
    "cyclotomic.mul": ("__mul__", "__rmul__"),
    "cyclotomic.add": ("__add__", "__radd__"),
    "cyclotomic.sub": ("__sub__", "__rsub__"),
    "cyclotomic.inv": ("inv",),
    "cyclotomic.conj": ("conj",),
    "cyclotomic.galois": ("galois",),
}

# (module, attribute path, span name): each call becomes one span
SPANS = [
    ("hopfcheck.linalg", "solve_unique", "linalg.solve_unique"),
    ("hopfcheck.linalg", "exact_solve_unique", "linalg.exact_solve_unique"),
    ("hopfcheck.linalg", "span_rank", "linalg.span_rank"),
    ("hopfcheck.linalg", "exact_rank", "linalg.exact_rank"),
    ("hopfcheck.multimatrix", "AlgElement.__mul__", "multimatrix.alg_mul"),
    ("hopfcheck.multimatrix", "LinearMap.compose", "multimatrix.compose"),
    ("hopfcheck.multimatrix", "tensor_map", "multimatrix.tensor_map"),
    ("hopfcheck.hopf_core", "verify_hopf_axioms", "hopf_core.verify_hopf_axioms"),
    ("hopfcheck.hopf_core", "solve_counit_antipode", "hopf_core.solve_counit_antipode"),
    ("hopfcheck.hopf_core", "check_hopf_morphism", "hopf_core.check_hopf_morphism"),
    ("hopfcheck.group_twist", "subalgebra_hopf", "group_twist.subalgebra_hopf"),
    ("hopfcheck.group_twist", "SmashProduct.__init__", "group_twist.SmashProduct"),
    ("hopfcheck.group_twist", "GradedTwist.__init__", "group_twist.GradedTwist"),
    ("hopfcheck.group_twist", "generate_group", "group_twist.generate_group"),
    ("hopfcheck.corep", "one_dim_group", "corep.one_dim_group"),
    ("hopfcheck.corep", "fusion_graph", "corep.fusion_graph"),
    ("hopfcheck.corep", "verify_corep", "corep.verify_corep"),
    ("hopfcheck.category_checks.ty", "pentagon_report", "ty.pentagon_report"),
    ("hopfcheck.category_checks.ty", "associator_unitarity", "ty.associator_unitarity"),
    ("hopfcheck.category_checks.modcat", "global_phase_family", "modcat.global_phase_family"),
    ("hopfcheck.category_checks.modcat", "column_phase_search", "modcat.column_phase_search"),
    ("hopfcheck.category_checks.modcat", "module_report", "modcat.module_report"),
]

# (module, attribute path, counter name): counted, not timed
COUNTED = [
    ("hopfcheck.multimatrix", "LinearMap.apply_coords", "multimatrix.apply_coords"),
    ("hopfcheck.multimatrix", "tensor_algebra", "multimatrix.tensor_algebra"),
]

# the stages a CLI user sees: one span per cached model builder and one per
# registered check; a stage's self time excludes only the stages inside it
BUILDERS = ["build_kp", "build_vtilde", "build_smash", "build_coset_twist",
            "build_vtilde_twist", "build_phi_and_verify", "build_fundamental",
            "kp_tensor_square", "kp_fusion_graph"]


def _solve_shape(rows, rhs, ncols) -> tuple[int, int]:
    """The extra field of a solve_unique span: unknowns and equations."""
    return ncols, len(rows)


class Tracer:
    """Spans and counts of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.root_scalar_s = 0.0
        self._open: list[list] = []
        self._in_scalar = False

    def span(self, name: str, fn: Callable) -> Callable:
        extra = _solve_shape if name == "linalg.solve_unique" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1][0] if self._open else -1
            rec = [len(self.spans), name, perf_counter(), 0.0, parent, 0.0,
                   extra(*args, **kwargs) if extra else None]
            self.spans.append(rec)
            self._open.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                self._open.pop()
        return wrapper

    def scalar(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args):
            self.counts[name] += 1
            if self._in_scalar:
                return fn(*args)
            self._in_scalar = True
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                took = perf_counter() - start
                self._in_scalar = False
                if self._open:
                    self._open[-1][5] += took
                else:
                    self.root_scalar_s += took
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def take(self) -> dict:
        """The trace recorded so far, leaving the tracer empty."""
        data = {"spans": [rec[1:] for rec in self.spans],
                "counts": dict(self.counts),
                "root_scalar_s": self.root_scalar_s}
        self.spans, self.counts, self.root_scalar_s = [], Counter(), 0.0
        return data


def _rebind(original: object, wrapper: object) -> None:
    """Point every hopfcheck module global bound to original at wrapper."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "hopfcheck":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)


def _wrap_target(module: str, path: str, make: Callable) -> None:
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = vars(owner)[attr]
    wrapper = make(original)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
    else:
        _rebind(original, wrapper)


def install(tracer: Tracer, full: bool) -> None:
    """Wrap the traced hopfcheck functions; call once per process.

    full adds the counters and the Q(z) operator wrappers to the spans,
    builders and checks that are always recorded.
    """
    cli = importlib.import_module("hopfcheck.cli")
    cyc = importlib.import_module("hopfcheck.cyclotomic").Cyc
    for name, attrs in SCALAR_OPS.items() if full else ():
        for original in {vars(cyc)[attr] for attr in attrs}:
            wrapped = tracer.scalar(name, original)
            for attr in attrs:
                if vars(cyc)[attr] is original:
                    setattr(cyc, attr, wrapped)
    for module, path, name in SPANS:
        _wrap_target(module, path, functools.partial(tracer.span, name))
    for module, path, name in COUNTED if full else ():
        _wrap_target(module, path, functools.partial(tracer.counter, name))
    for builder in BUILDERS:
        _wrap_target("hopfcheck.models", builder,
                     functools.partial(tracer.span, f"models.{builder}"))
    for spec in cli.REGISTRY:
        spec.runner = tracer.span(f"cli.check.{spec.id}", spec.runner)


# offline analysis of written traces ------------------------------------------

def merge(traces: list[dict]) -> dict:
    """One trace holding the spans and counts of several processes."""
    spans, counts, root = [], Counter(), 0.0
    for tr in traces:
        base = len(spans)
        for name, start, end, parent, scalar_s, extra in tr["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1,
                          scalar_s, extra])
        counts.update(tr["counts"])
        root += tr["root_scalar_s"]
    return {"spans": spans, "counts": dict(counts), "root_scalar_s": root}


def self_times(spans: list, is_boundary: Callable[[str], bool],
               minus_scalar: bool) -> dict[int, float]:
    """Self time of every boundary span, keyed by its index.

    A span's self time is its duration minus the durations of its nearest
    boundary descendants (spans that are not boundaries are transparent),
    and minus its own scalar seconds when minus_scalar is set.  Spans are
    listed in the order they opened, so a parent precedes its children.
    """
    nearest: list[int] = []
    own: dict[int, float] = {}
    for i, (name, start, end, parent, scalar_s, _) in enumerate(spans):
        up = nearest[parent] if parent >= 0 else -1
        if is_boundary(name):
            nearest.append(i)
            own[i] = end - start - (scalar_s if minus_scalar else 0.0)
            if up >= 0:
                own[up] -= end - start
        else:
            nearest.append(up)
    return own


def pieces(trace: dict) -> dict[str, float]:
    """Self time of every span, keyed by its name and occurrence ("name#k").

    The pieces partition the time spent inside top-level spans, and the same
    command produces the same keys in the same order on every repetition.
    """
    own = self_times(trace["spans"], lambda name: True, minus_scalar=False)
    seen: Counter[str] = Counter()
    out = {}
    for i, (name, *_rest) in enumerate(trace["spans"]):
        out[f"{name}#{seen[name]}"] = own[i]
        seen[name] += 1
    return out


def _is_stage(name: str) -> bool:
    return name.startswith(("models.", "cli.check."))


def layer_names(check_ids: list[str]) -> list[str]:
    """Every per-layer metric name, in report order (see layer_metrics)."""
    names = [f"{n}.calls" for n in SCALAR_OPS]
    names.append("cyclotomic.self_s")
    for _, _, name in SPANS:
        names += [f"{name}.calls", f"{name}.self_s"]
        if name == "linalg.solve_unique":
            names += [f"{name}.unknowns_sum", f"{name}.unknowns_max",
                      f"{name}.rows_sum", "linalg.modular_hit_ratio"]
    names += [f"{name}.calls" for _, _, name in COUNTED]
    for builder in BUILDERS:
        names += [f"models.{builder}.calls", f"models.{builder}.self_s"]
    names += [f"cli.check.{cid}.self_s" for cid in check_ids]
    return names


def layer_metrics(trace: dict, check_ids: list[str]) -> dict[str, float]:
    """Per-layer counts and self times of one (possibly merged) trace.

    Module layers use every traced span as a boundary, so their self time
    excludes the traced layers below them and the Q(z) operators.  Builders
    and checks use only each other as boundaries, so a check's self time is
    its own work with the lower layers included but the cached builders it
    happens to trigger left out.  linalg.modular_hit_ratio is the share of
    solve_unique calls that returned without the exact fallback; its base
    is linalg.solve_unique.calls.
    """
    spans = trace["spans"]
    layer = self_times(spans, lambda name: True, minus_scalar=True)
    stage = self_times(spans, _is_stage, minus_scalar=False)
    out: dict[str, float] = Counter()
    for n in SCALAR_OPS:
        out[f"{n}.calls"] = trace["counts"].get(n, 0)
    out["cyclotomic.self_s"] = (trace["root_scalar_s"]
                                + sum(s[4] for s in spans))
    for i, (name, *_rest) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += stage[i] if _is_stage(name) else layer[i]
    solves = [i for i, s in enumerate(spans) if s[0] == "linalg.solve_unique"]
    fell_back = {s[3] for s in spans if s[0] == "linalg.exact_solve_unique"}
    shapes = [spans[i][5] for i in solves]
    out["linalg.solve_unique.unknowns_sum"] = sum(c for c, _ in shapes)
    out["linalg.solve_unique.unknowns_max"] = max((c for c, _ in shapes), default=0)
    out["linalg.solve_unique.rows_sum"] = sum(r for _, r in shapes)
    out["linalg.modular_hit_ratio"] = (
        sum(i not in fell_back for i in solves) / len(solves) if solves else 0.0)
    for _, _, name in COUNTED:
        out[f"{name}.calls"] = trace["counts"].get(name, 0)
    return {name: float(out[name]) for name in layer_names(check_ids)}


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
