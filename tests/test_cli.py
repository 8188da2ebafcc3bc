"""The command line interface, driven in process."""

import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from hopfcheck import cli, models
from hopfcheck.category_checks import modcat, ty
from hopfcheck.cyclotomic import Cyc
from hopfcheck.hopf_core import Report, hopf_from_dict, verify_hopf_axioms

SAMPLE_MODEL = "tests/data/sample_model.json"
# every verify --all --json record with the sample model, less elapsed_ms,
# at tau = 1/2 and -1/2, and the sha256 of each export dump
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_verify.json")
                    .read_text(encoding="utf-8"))
BUILT = models.Build()


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_registry_is_complete():
    assert len(cli.REGISTRY) == 19
    assert len({s.id for s in cli.REGISTRY}) == 19
    assert {s.expected for s in cli.REGISTRY} == {"pass", "fail"}
    designed_to_fail = {s.id for s in cli.REGISTRY if s.expected == "fail"}
    assert designed_to_fail == {"ty.pentagon-negative", "modcat.unitarity"}


def test_list(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 19


def test_list_filter(capsys):
    code, out, _ = run(capsys, "list", "modcat")
    assert code == 0
    assert len(out.strip().splitlines()) == 3
    code, _, err = run(capsys, "list", "zzz")
    assert code == 2
    assert "no checks match" in err


def test_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--check", "kp.axioms")
    assert code == 0
    assert "PASS" in out


def test_designed_failure_matches(capsys):
    code, out, _ = run(capsys, "verify", "--check", "ty.pentagon-negative")
    assert code == 0
    assert "as designed" in out


def test_single_check_json(capsys):
    code, out, _ = run(capsys, "verify", "--check", "modcat.unitarity",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert data["expected"] == "fail"
    assert set(data) == {"id", "verdict", "expected", "elapsed_ms",
                         "anchor", "witness"}


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 19
    by_id = {r["id"]: r for r in reports}
    assert by_id["model.twist-axioms"]["verdict"] == "skip"
    for r in reports:
        assert r["verdict"] in ("pass", "fail", "skip")
        if r["verdict"] != "skip":
            assert r["verdict"] == r["expected"]


def test_verify_all_with_model(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--model", SAMPLE_MODEL)
    assert code == 0
    assert "19/19" in out
    assert "0 skipped" in out


def test_model_check_requires_model(capsys):
    code, _, err = run(capsys, "verify", "--check", "model.twist-axioms")
    assert code == 2
    assert "--model" in err


def test_model_check_with_sample(capsys):
    code, out, _ = run(capsys, "verify", "--check", "model.twist-axioms",
                       "--model", SAMPLE_MODEL)
    assert code == 0
    assert "PASS" in out


def test_the_model_file_is_parsed_once(capsys, monkeypatch):
    # the check builds from the parse made when the file is read
    with open(SAMPLE_MODEL, encoding="utf-8") as fh:
        data = json.load(fh)
    coordinate_lists = 4 * (len(data["generators"]) + 2)
    parsed = []
    original = Cyc.from_strings.__func__

    def counting(cls, parts):
        parsed.append(parts)
        return original(cls, parts)

    monkeypatch.setattr(Cyc, "from_strings", classmethod(counting))
    code, _, _ = run(capsys, "verify", "--check", "model.twist-axioms",
                     "--model", SAMPLE_MODEL)
    assert code == 0
    assert len(parsed) == coordinate_lists


@pytest.mark.parametrize("field", ["action_unitary", "central_element"])
def test_sample_model_with_an_identity_field_passes(capsys, tmp_path, field):
    # the identity action fixes every object, so the crossed product and the
    # twist are commutative; the identity central element is the trivial
    # grading, whose twist is C(G) itself, restricted from its verified
    # crossed product like every other twist
    with open(SAMPLE_MODEL, encoding="utf-8") as fh:
        data = json.load(fh)
    data[field] = [[["1", "0", "0", "0"], ["0"] * 4],
                   [["0"] * 4, ["1", "0", "0", "0"]]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--check", "model.twist-axioms",
                       "--json", "--model", str(path))
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "pass"
    assert record["witness"] == (
        "user model verified; twist blocks (1, 1, 1, 1, 1, 1, 1, 1)")


def test_broken_model_fails_with_witness(capsys, tmp_path):
    # well formed, but the central element is not in the generated group
    with open(SAMPLE_MODEL, encoding="utf-8") as fh:
        data = json.load(fh)
    data["central_element"] = [[["0", "1", "0", "0"], ["0"] * 4],
                               [["0"] * 4, ["0", "1", "0", "0"]]]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "--check", "model.twist-axioms",
                       "--model", str(bad))
    assert code == 1
    assert "exception" in out


@pytest.mark.parametrize("text", [
    '{"generators": []}', '{"generators": "nope"}', "{not json", None,
    # the sample model with a cap that is not a positive int
    *(pytest.param({"cap": cap}, id=f"cap={cap!r}")
      for cap in (0, -1, 2.5, True)),
    # a coordinate not in the canonical integer or fraction form
    *(pytest.param({"central_element": [[[coef, "0", "0", "0"], ["0"] * 4],
                                        [["0"] * 4, ["-1", "0", "0", "0"]]]},
                   id=f"coefficient={coef}")
      for coef in ("1e5000", "0.5", "1/0"))])
def test_malformed_model_is_a_usage_error(capsys, tmp_path, text):
    path = tmp_path / "model.json"
    if isinstance(text, dict):
        with open(SAMPLE_MODEL, encoding="utf-8") as fh:
            text = json.dumps({**json.load(fh), **text})
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "verify", "--check", "model.twist-axioms",
                         "--model", str(path))
    assert code == 2
    assert not out
    assert "model" in err


def test_deeply_nested_model_is_a_usage_error(capsys, tmp_path):
    # json.load recurses once per nested array, past the recursion limit
    path = tmp_path / "model.json"
    path.write_text("[" * 200_000)
    code, out, err = run(capsys, "verify", "--check", "model.twist-axioms",
                         "--model", str(path))
    assert code == 2
    assert not out
    assert err.startswith("cannot read model")


def test_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "--check", "nosuch")
    assert code == 2
    assert "unknown check" in err


def test_bad_tau(capsys):
    # only an integer or a fraction of integers: an exponent would build a
    # number too large to print, or to build at all
    for tau in ("bogus", "1e5000", "0.5"):
        code, _, err = run(capsys, "verify", "--check", "ty.pentagon",
                           "--tau", tau)
        assert code == 2
        assert "--tau" in err


def test_wrong_tau_is_an_unexpected_failure(capsys):
    code, out, _ = run(capsys, "verify", "--check", "ty.pentagon",
                       "--tau", "1")
    assert code == 1
    assert "UNEXPECTED" in out


def test_negative_tau(capsys):
    code, out, _ = run(capsys, "verify", "--check", "ty.pentagon",
                       "--tau=-1/2")
    assert code == 0
    assert "PASS" in out


def test_usage_error(capsys):
    assert run(capsys, "verify")[0] == 2
    assert run(capsys)[0] == 2


@pytest.mark.parametrize("check, target", [
    ("ty.pentagon-negative", (ty, "pentagon_report")),
    ("modcat.unitarity", (modcat, "module_report")),
])
def test_crash_is_not_a_designed_failure(capsys, monkeypatch, check, target):
    def boom(*args, **kwargs):
        raise TypeError("boom")

    monkeypatch.setattr(*target, boom)
    code, out, _ = run(capsys, "verify", "--check", check, "--json")
    assert code == 1
    result = json.loads(out)
    assert result["verdict"] == "error"
    assert result["witness"] == "exception: TypeError: boom"


def with_failure(report, name, witness):
    """A copy of report in which check name fails with witness."""
    out = Report()
    for k, ok in report.checks.items():
        out.record(k, ok)
    out.record(name, False, witness)
    return out


# the Build property that each patched builder builds
BUILT_BY = {"build_phi_and_verify": "phi", "build_fundamental": "fundamental",
            "kp_tensor_square": "tensor_square"}


@pytest.mark.parametrize("check, builder, name, witness", [
    ("twist.iso-phi", "build_phi_and_verify", "v_aligns_betap_conjugator",
     "V W_betap V* is not the direct model's conjugator"),
    ("su2m1.quotient", "build_fundamental", "surjective",
     "the words reach rank 5, not the dimension 8"),
    ("kp.tensor-square", "kp_tensor_square", "tensor_square_decomposes",
     "entry (0, 1) of U (x) U is not sum_k P_k(0, 1) u_k"),
    ("kp.one-dim", "kp_tensor_square", "klein_squares", ""),
])
def test_a_failing_pass_expected_check_names_it(capsys, monkeypatch, check,
                                                 builder, name, witness):
    # each run builds afresh, through the module's builders
    record = getattr(BUILT, BUILT_BY[builder])
    broken = record._replace(report=with_failure(record.report, name, witness))
    monkeypatch.setattr(models, builder, lambda *inputs: broken)
    code, out, _ = run(capsys, "verify", "--check", check, "--json")
    assert code == 1
    result = json.loads(out)
    assert result["verdict"] == "fail"
    assert result["witness"] == (f"failing: {name}: {witness}" if witness
                                 else f"failing: {name}")


def test_a_check_reads_only_its_named_checks(capsys, monkeypatch):
    # kp.one-dim reads two of the tensor square's checks, not the split
    ts = BUILT.tensor_square
    broken = ts._replace(report=with_failure(
        ts.report, "tensor_square_decomposes", "entry (0, 1)"))
    monkeypatch.setattr(models, "kp_tensor_square", lambda *inputs: broken)
    code, out, _ = run(capsys, "verify", "--check", "kp.one-dim", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_a_failing_function_algebra_names_its_witness(capsys, monkeypatch):
    # KP is noncommutative, so it fails in place of C(G) with the product
    # that commutativity_flags names
    fake = types.SimpleNamespace(function_hopf=BUILT.kp.hopf)
    monkeypatch.setattr(models, "build_smash", lambda vtilde: fake)
    code, out, _ = run(capsys, "verify", "--check", "vtilde.function-algebra",
                       "--json")
    assert code == 1
    result = json.loads(out)
    assert result["verdict"] == "fail"
    assert result["witness"] == ("failing: commutative: m[0,0] * m[0,1] = "
                                 "m[0,1] but m[0,1] * m[0,0] = 0")


def test_each_run_builds_from_the_current_tables(capsys, monkeypatch):
    # no structure outlives its run: with W_alphap negated, the twist's
    # entered table is unchanged (-W conjugates as W does), but phi's
    # alignment of the alphap conjugator fails
    assert run(capsys, "verify", "--check", "twist.iso-phi")[0] == 0
    monkeypatch.setattr(models, "W_ALPHAP", -models.W_ALPHAP)
    code, out, _ = run(capsys, "verify", "--check", "twist.iso-phi",
                       "--json")
    assert code == 1
    assert json.loads(out)["witness"] == (
        "failing: v_aligns_alphap_conjugator: V W_alphap V* is not the "
        "direct model's conjugator")


def test_export_round_trip(capsys, tmp_path):
    for model_id in sorted(cli._EXPORTS):
        first = tmp_path / f"{model_id}.json"
        second = tmp_path / f"{model_id}.2.json"
        assert run(capsys, "export", model_id, str(first))[0] == 0
        assert run(capsys, "export", model_id, str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()
        h = hopf_from_dict(json.loads(first.read_text()))
        assert verify_hopf_axioms(h).passed


@pytest.mark.parametrize("tau", sorted(GOLDEN["verify"]))
def test_verify_all_matches_the_golden_records(capsys, tau):
    code, out, _ = run(capsys, "verify", "--all", "--json", "--model",
                       SAMPLE_MODEL, f"--tau={tau}")
    assert code == 0
    reports = json.loads(out)
    for r in reports:
        del r["elapsed_ms"]
    assert reports == GOLDEN["verify"][tau]


def test_exports_match_the_golden_hashes(capsys, tmp_path):
    hashes = {}
    for model_id in sorted(cli._EXPORTS):
        path = tmp_path / f"{model_id}.json"
        assert run(capsys, "export", model_id, str(path))[0] == 0
        hashes[model_id] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert hashes == GOLDEN["export_sha256"]


@pytest.mark.parametrize("parts", [("missing", "out.json"), ()],
                         ids=["missing-dir", "dir"])
def test_export_to_unwritable_path_is_a_usage_error(capsys, tmp_path, parts):
    code, out, err = run(capsys, "export", "kp", str(tmp_path.joinpath(*parts)))
    assert code == 2
    assert not out
    assert "cannot write" in err


def spy_on_verify_all(module, name, record):
    """Exit code of a fresh `verify --all --model` process and, per call of
    hopfcheck.<module>.<name>, the value of `record` (an expression in the
    call's args)."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", f"""
import contextlib, io, json, sys
from hopfcheck import cli, {module}
original, seen = {module}.{name}, []
def spy(*args):
    seen.append({record})
    return original(*args)
for mod in list(sys.modules.values()):
    if mod.__name__.startswith("hopfcheck") and \\
            vars(mod).get({name!r}) is original:
        setattr(mod, {name!r}, spy)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--all", "--json", "--model", {SAMPLE_MODEL!r}])
print(json.dumps([code, seen]))
"""], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(probe.stdout)


def test_verify_all_runs_the_axioms_once_per_closed_form():
    # the direct model, the built-in crossed product and the user model's;
    # C(G), the blocks and the twists are restrictions, never re-verified
    assert spy_on_verify_all("hopf_core", "verify_hopf_axioms",
                             "args[0].algebra.dim") == [0, [8, 16, 16]]


def test_verify_all_solves_each_intertwiner_space_once():
    # the certificate's 11 equal-size pairs, the fusion graph's 25
    # multiplicities and kp_fusion_rules' 4 fund_after_line spaces; the
    # fusion graph reads irreducibility off the certificate
    code, seen = spy_on_verify_all("corep", "intertwiners", "0")
    assert code == 0 and len(seen) == 40


def test_verify_all_builds_each_fusion_row_product_once():
    # the fusion graph's five fund (x) x, one per row, kp_tensor_square's
    # fund (x) fund and kp_fusion_rules' four x (x) fund
    code, seen = spy_on_verify_all("corep", "tensor_corep", "0")
    assert code == 0 and len(seen) == 10


def test_verify_all_verifies_each_corepresentation_once():
    # the twist's fundamental in build_fundamental, and the five members of
    # the certificate; the fundamental's image under phi is verified there
    # only, since a Hopf *-isomorphism carries a unitary corepresentation
    # to one
    code, seen = spy_on_verify_all("corep", "verify_corep", "0")
    assert code == 0 and len(seen) == 6


def probe_import_cli(*argv):
    """In a fresh process: hopfcheck.cli's file, the modules loaded before
    importing it and those loaded after importing it and running
    `hopfcheck *argv` (when argv is given; its exit code must be 0)."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = subprocess.run(
        [sys.executable, "-c", f"""
import contextlib, io, json, sys
bare = sorted(sys.modules)
import hopfcheck.cli
argv, code = {list(argv)!r}, 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = hopfcheck.cli.main(argv)
print(json.dumps([hopfcheck.cli.__file__, bare, sorted(sys.modules)]))
sys.exit(code)
"""], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(probe.stdout)


VERIFY_ALL = ("verify", "--all", "--model", SAMPLE_MODEL)


def test_import_loads_no_numpy():
    path, _, loaded = probe_import_cli(*VERIFY_ALL)
    assert Path(path).resolve().is_relative_to(
        Path(cli.__file__).resolve().parents[1])
    assert "numpy" not in loaded


def test_import_loads_neither_dataclasses_nor_inspect():
    # loading them adds to the start-up of every fresh process
    _, bare, loaded = probe_import_cli(*VERIFY_ALL)
    assert not (set(loaded) - set(bare)) & {"dataclasses", "inspect"}


CLI_MODULES = {"hopfcheck", "hopfcheck.cli", "hopfcheck.cyclotomic"}


@pytest.mark.parametrize("argv, more", [
    ((), set()),
    (("list",), set()),
    (("verify", "--check", "ty.pentagon"),
     {"hopfcheck.category_checks", "hopfcheck.category_checks.ty",
      "hopfcheck.report"}),
    (("verify", "--check", "model.twist-axioms", "--model", SAMPLE_MODEL),
     {"hopfcheck.group_twist", "hopfcheck.hopf_core", "hopfcheck.report",
      "hopfcheck.multimatrix", "hopfcheck.linalg"}),
], ids=["import", "list", "ty.pentagon", "model.twist-axioms"])
def test_a_command_loads_only_the_modules_it_calls(argv, more):
    # with no bytecode cache every module loaded is compiled again
    _, _, loaded = probe_import_cli(*argv)
    assert {m for m in loaded if m.split(".")[0] == "hopfcheck"} == (
        CLI_MODULES | more)
