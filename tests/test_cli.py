import json
import pathlib
import subprocess
import sys

import pytest

from adlog.cli import main

from conftest import FIXTURES


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def fixture_args(name: str) -> list[str]:
    """`-p`, and `-d` / `-u` where the fixture has a database / an update file."""
    args = ["-p", fx(f"{name}.adl")]
    for flag, suffix in (("-d", ".adb"), ("-u", ".adu")):
        if (FIXTURES / f"{name}{suffix}").exists():
            args += [flag, fx(name + suffix)]
    return args


def invoke(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestExitCodes:
    def test_apply_applied_exits_zero(self, capsys):
        code, _ = invoke(capsys, "apply", "-p", fx("new_hire_unique.adl"),
                         "-u", fx("new_hire_unique.adu"), "--semantics", "uts")
        assert code == 0

    def test_apply_rejected_exits_two(self, capsys):
        code, _ = invoke(capsys, "apply", "-p", fx("new_hire_mixed.adl"),
                         "-u", fx("new_hire_mixed.adu"), "--semantics", "twfs")
        assert code == 2

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.adl"
        bad.write_text("p(a)")
        code = main(["rewrite", "-p", str(bad)])
        assert code == 1

    def test_validation_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.adl"
        bad.write_text("p(X) :- not q(X).")
        code = main(["rewrite", "-p", str(bad)])
        assert code == 1

    def test_partial_db_precondition_exits_three(self, tmp_path, capsys):
        db = tmp_path / "partial.adb"
        db.write_text("emp(b)?")
        code = main(["apply", "-p", fx("new_hire_worker.adl"),
                     "-u", fx("new_hire_worker.adu"), "-d", str(db),
                     "--semantics", "ms"])
        assert code == 3

    def test_enumeration_cap_exits_three(self, tmp_path, capsys):
        prog = tmp_path / "wide.adl"
        prog.write_text("\n".join(f"p{i} :- not q{i}.\nq{i} :- not p{i}."
                                  for i in range(4)))
        code = main(["models", "-p", str(prog), "--cap", "3"])
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["apply", "-p", "x.adl"],                                    # missing --semantics
        ["models", "-p", fx("zoo_join.adl"), "--cap", "-1"],         # negative cap
        ["selftest", "--ordering-count", "-5", "--oracle-count", "-1"],  # negative counts
        ["selftest", "--genericity-count", "-1"],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


class TestOutputs:
    def test_apply_text_report(self, capsys):
        code, out = invoke(capsys, "apply", "-p", fx("confirm_manager.adl"),
                           "-u", fx("confirm_manager.adu"), "--semantics", "ws")
        assert code == 0
        assert "status: applied" in out
        assert "mgr(x,d)." in out

    def test_apply_json_report(self, capsys):
        code, out = invoke(capsys, "apply", "-p", fx("confirm_manager.adl"),
                           "-u", fx("confirm_manager.adu"), "--semantics", "ws-bm",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["semantics"] == "ws-bm"
        assert doc["output"]["unknown"] == ["mgr(x,d)"]

    def test_models_listing(self, capsys):
        code, out = invoke(capsys, "models", "-p", fx("zoo_join.adl"))
        assert code == 0
        assert out.startswith("4 stable models")
        assert "max-deterministic" in out

    def test_wf_command(self, capsys):
        code, out = invoke(capsys, "wf", "-p", fx("zoo_choice.adl"))
        assert code == 0
        assert out.strip().startswith("a.")

    def test_compare_lists_all_semantics(self, capsys):
        code, out = invoke(capsys, "compare", "-p", fx("new_hire_worker.adl"),
                           "-u", fx("new_hire_worker.adu"))
        assert code == 0
        for sem in ("ws", "md", "twfs", "tmds", "uts", "ts", "ms", "mstt", "ws-bm"):
            assert f"{sem} " in out

    def test_ground_emits_reparseable_rules(self, capsys):
        from adlog import parse_program
        code, out = invoke(capsys, "ground", "-p", fx("zoo_join.adl"))
        assert code == 0
        parse_program(out)

    def test_wf_prints_the_model_apply_uses(self, capsys):
        args = fixture_args("project_cascade")
        _, wf = invoke(capsys, "wf", *args)
        _, report = invoke(capsys, "apply", *args, "--semantics", "ws", "--json")
        assert wf.strip() == json.loads(report)["model"]


class TestByteStability:
    """The same invocation must print identical bytes across processes."""

    @pytest.mark.parametrize("argv", [
        ("rewrite", "-p", fx("project_cascade.adl"), "-u", fx("project_cascade.adu")),
        ("models", "-p", fx("zoo_choice.adl")),
        ("compare", "-p", fx("new_hire_roles.adl"), "-u", fx("new_hire_roles.adu")),
        ("wf", *fixture_args("project_cascade")),
        ("ground", *fixture_args("project_cascade")),
    ])
    def test_two_process_runs_agree(self, argv):
        def run_once():
            return subprocess.run(
                [sys.executable, "-m", "adlog.cli", *argv],
                capture_output=True, text=True, check=True).stdout
        assert run_once() == run_once()


UPDATE_FIXTURES = ("confirm_manager", "new_hire_mixed", "new_hire_roles", "new_hire_unique",
                   "new_hire_worker", "project_cascade", "promotion")


class TestGoldenReports:
    """Run reports pinned byte for byte: models, family counts, seeds, rejections."""

    @pytest.mark.parametrize("name", UPDATE_FIXTURES)
    def test_compare_json(self, name, capsys):
        code, out = invoke(capsys, "compare", "--json", *fixture_args(name))
        assert code == 0
        assert out == (GOLDEN / f"compare_{name}.json").read_text()

    @pytest.mark.parametrize("semantics", ["ts", "ms", "mstt"])
    def test_apply_random_choice_json(self, semantics, capsys):
        _, out = invoke(capsys, "apply", "--json", "--choose", "random", "--seed", "7",
                        "--semantics", semantics, *fixture_args("new_hire_worker"))
        golden = GOLDEN / f"apply_new_hire_worker_{semantics}_random7.json"
        assert out == golden.read_text()


class TestSelftestCommand:
    def test_reduced_counts_pass(self, capsys):
        code, out = invoke(capsys, "selftest", "--ordering-count", "5",
                           "--oracle-count", "5", "--genericity-count", "2")
        assert code == 0
        assert "fixtures:" in out and "ok" in out
