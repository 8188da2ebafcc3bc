"""The names bench/tracer.py wraps are bound in the library.

The tracer looks its targets up by name when a benchmark child starts, so a
renamed or deleted function would otherwise fail every benchmark repetition
instead of one test.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def run_child(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), *map(str, args)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)


def load_run(monkeypatch):
    """bench/run.py as a module, with bench/ on the import path."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)    # for its dataclasses
    spec.loader.exec_module(run)
    return run


def test_traced_names_are_bound():
    tracer = load_tracer()
    for module, path, _ in tracer.SPANS + tracer.COUNTED:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert part in vars(owner), f"{module}.{path}"
            owner = vars(owner)[part]
    models = importlib.import_module("hopfcheck.models")
    for name in tracer.BUILDERS:
        assert name in vars(models), f"hopfcheck.models.{name}"


@pytest.mark.parametrize("mode", ["timed", "full"])
def test_a_traced_cli_child_runs(tmp_path, mode):
    # the names being bound is not enough: a wrapper that installs but
    # breaks the call it wraps would fail every benchmark repetition
    trace = tmp_path / "trace.json"
    child = run_child(tmp_path, "cli", mode, trace, "verify", "--check",
                      "model.twist-axioms", "--model",
                      ROOT / "tests" / "data" / "sample_model.json", "--json")
    assert child.returncode == 0, child.stdout + child.stderr
    assert json.loads(trace.read_text())


@pytest.mark.parametrize("mode", ["timed", "full"])
def test_a_traced_verify_all_child_passes_the_gate(tmp_path, monkeypatch,
                                                   mode):
    # the verify-all workload's child, judged by the benchmark's own gate:
    # a runner or record the tracer breaks fails here, not in every
    # benchmark repetition
    run = load_run(monkeypatch)
    trace = tmp_path / "trace.json"
    child = run_child(tmp_path, "cli", mode, trace, "verify", "--all",
                      "--json", "--model",
                      ROOT / "tests" / "data" / "sample_model.json")
    verdict = run.check_verify_all(run.Child(child.returncode, child.stdout,
                                             0.0, 0.0))
    assert verdict == "", verdict + child.stderr
    data = json.loads(trace.read_text())
    assert data
    if mode == "full":
        # the run's one record builds each structure once
        builders = load_tracer().BUILDERS
        spans = Counter(name for name, *_ in data["spans"])
        assert {b: spans[f"models.{b}"] for b in builders} == dict.fromkeys(
            builders, 1)


def test_a_traced_category_child_runs(tmp_path, monkeypatch):
    # the category child calls the five wrapped category functions by name;
    # a wrong scale must give the facts the benchmark's gate expects
    run = load_run(monkeypatch)
    child = run_child(tmp_path, "category", "timed", tmp_path / "trace.json",
                      "3/7", 0)
    assert child.returncode == 0, child.stdout + child.stderr
    reps = json.loads(child.stdout)["reps"]
    assert reps and all(rep["facts"] == run.CATEGORY_FACTS for rep in reps)
    assert "ty.pentagon_report#0" in reps[0]["pieces"]["pentagon_s"]
