"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gen      # noqa: E402
import run      # noqa: E402
import tracer   # noqa: E402


def _span(name, start, end, parent, scalar_s=0.0, extra=None):
    return [name, start, end, parent, scalar_s, extra]


# a check that triggers a builder, which verifies axioms, which multiplies;
# a second builder inside the first solves a system
TREE = [
    _span("cli.check.smash.axioms", 0.0, 12.0, -1, scalar_s=0.5),
    _span("models.build_smash", 1.0, 11.0, 0, scalar_s=1.0),
    _span("hopf_core.verify_hopf_axioms", 2.0, 7.0, 1, scalar_s=2.0),
    _span("multimatrix.alg_mul", 3.0, 4.0, 2, scalar_s=0.25),
    _span("models.build_vtilde", 8.0, 10.0, 1),
    _span("linalg.solve_unique", 8.5, 9.5, 4, extra=[16, 40]),
]


def test_layer_self_time_subtracts_children_and_scalar_time():
    own = tracer.self_times(TREE, lambda name: True, minus_scalar=True)
    assert own == {0: 12 - 0.5 - 10, 1: 10 - 1 - 5 - 2, 2: 5 - 2 - 1,
                   3: 1 - 0.25, 4: 2 - 1, 5: 1}


def test_stage_self_time_skips_transparent_spans():
    own = tracer.self_times(TREE, tracer._is_stage, minus_scalar=False)
    # verify_hopf_axioms is not a stage, so build_smash keeps its time;
    # build_vtilde is, so build_smash loses it and the check loses build_smash
    assert own == {0: 12 - 10, 1: 10 - 2, 4: 2}


def test_layer_metrics_of_synthetic_trace():
    trace = {"spans": TREE, "counts": {"cyclotomic.mul": 7},
             "root_scalar_s": 0.125}
    m = tracer.layer_metrics(trace, ["smash.axioms"])
    assert m["cyclotomic.mul.calls"] == 7
    assert m["cyclotomic.self_s"] == 0.5 + 1.0 + 2.0 + 0.25 + 0.125
    assert m["hopf_core.verify_hopf_axioms.self_s"] == 2
    assert m["models.build_smash.self_s"] == 8
    assert m["cli.check.smash.axioms.self_s"] == 2
    assert m["linalg.solve_unique.unknowns_sum"] == 16
    assert m["linalg.solve_unique.rows_sum"] == 40
    assert m["linalg.modular_hit_ratio"] == 1.0
    assert list(m) == tracer.layer_names(["smash.axioms"])


def test_pieces_partition_the_top_level_spans():
    one = {"spans": TREE, "counts": {}, "root_scalar_s": 0.0}
    got = tracer.pieces(tracer.merge([one, one]))
    assert got["models.build_smash#0"] == got["models.build_smash#1"] == 10 - 5 - 2
    assert got["cli.check.smash.axioms#1"] == 12 - 10
    assert sum(got.values()) == 12 + 12


def test_merge_offsets_parents():
    one = {"spans": TREE[:2], "counts": {"a": 1}, "root_scalar_s": 1.0}
    merged = tracer.merge([one, one])
    assert [s[3] for s in merged["spans"]] == [-1, 0, -1, 2]
    assert merged["counts"] == {"a": 2} and merged["root_scalar_s"] == 2.0


def test_generator_is_deterministic():
    assert gen.inputs(7) == gen.inputs(7)
    texts = {json.dumps(gen.inputs(seed)["models"]) for seed in range(20)}
    assert len(texts) > 1


def test_unconjugated_rung_is_the_sample_model():
    sample = BENCH.parent / "tests" / "data" / "sample_model.json"
    with open(sample, encoding="utf-8") as fh:
        assert gen.model_dict("order8", (0, 0), False) == json.load(fh)


def test_wrong_tau_is_never_a_passing_scale():
    for seed in range(200):
        assert abs(gen.inputs(seed)["wrong_tau"]) not in (0, 0.5)


def test_benchmark_json_lists_every_metric():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([m["name"] for m in spec["per_layer"]]
            == tracer.layer_names(list(run.EXPECTED)) + ["trace_overhead_s"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


NEGATIVE_WITNESS = {"ty.pentagon-negative": "scale 1 fails first at (4, 4, 4, 4)",
                    "modcat.unitarity": "printed 4x4 matrix is not unitary"}


def _cli_report(**witness: str) -> run.Child:
    results = [{"id": cid, "verdict": want,
                "witness": witness.get(cid, NEGATIVE_WITNESS.get(cid, "ok"))}
               for cid, want in run.EXPECTED.items()]
    return run.Child(0, json.dumps(results), 1.0, 1.0)


def test_crash_in_negative_control_fails_the_gate():
    assert run.check_verify_all(_cli_report()) == ""
    crashed = _cli_report(**{"ty.pentagon-negative": "exception: boom"})
    assert "lacks" in run.check_verify_all(crashed)


@pytest.mark.skipif(not (run.SRC / "hopfcheck").is_dir(),
                    reason="needs the hopfcheck sources")
def test_gate_counts_model_whose_central_element_is_outside_the_group(
        tmp_path, monkeypatch):
    data = gen.model_dict("order8", (3, 5), True)
    # z times the identity is central but not one of the eight elements
    z = [["0", "1", "0", "0"], ["0", "0", "0", "0"]]
    data["central_element"] = [[z[0], z[1]], [z[1], z[0]]]
    path = tmp_path / "bad.json"
    path.write_text(gen.model_text(data), encoding="utf-8")
    bench_run = run.Run("twist-ladder", 0, tmp_path, time.monotonic() + 60,
                        {"paths": {"order8": path, "order16": path}})
    monkeypatch.setattr(run, "setup_sample", lambda _: 0.1)
    result = run.report(bench_run, 0, traced=False)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert "order8: exit code 1" in result["rep_samples"][0]["failure"]
