"""The names bench/tracer.py wraps are bound in the library.

The tracer looks its targets up by name when a benchmark child starts, so a
renamed or deleted function would otherwise fail every benchmark repetition
instead of one test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
