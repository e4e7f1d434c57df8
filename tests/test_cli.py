import functools
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

import adlog.cli
import adlog.update
from adlog import (Database, DeltaSet, Semantics, UpdateProgram, ValidationError,
                   parse_database, parse_delta, parse_program, run)
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

    @pytest.mark.parametrize("facts, shown", [("q(a). @ck_r(a).", "@ck_r(a)"),
                                              ("p(b). @plus_p(a).", "@plus_p(a)")])
    def test_reserved_database_fact_exits_one(self, facts, shown, tmp_path, capsys):
        prog, db = tmp_path / "r.adl", tmp_path / "r.adb"
        prog.write_text("+r(X) :- q(X).")
        db.write_text(facts)
        code = main(["apply", "-p", str(prog), "-d", str(db), "--semantics", "ws"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"reserved predicate name in database fact {shown}" in captured.err

    def test_program_and_database_arity_clash_exits_one(self, tmp_path, capsys):
        program, facts = "+r(X) :- q(X).", "q(a,b). q(c,d)."
        prog, db = tmp_path / "c.adl", tmp_path / "c.adb"
        prog.write_text(program)
        db.write_text(facts)
        code = main(["apply", "--semantics", "ws", "-p", str(prog), "-d", str(db)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: predicate q used with arity 1 and 2\n"
        with pytest.raises(ValidationError) as caught:
            run(UpdateProgram(DeltaSet(), parse_program(program)), parse_database(facts),
                Semantics.WS)
        assert str(caught.value) == "predicate q used with arity 1 and 2"

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
        # A refused enumeration is a row error; the well-founded rows still apply.
        code, out = invoke(capsys, "compare", "-p", fx("new_hire_worker.adl"),
                           "-u", fx("new_hire_worker.adu"), "--cap", "0")
        assert code == 0
        rows = {line.split()[0]: line for line in out.splitlines()[:9]}
        for sem in ("md", "tmds", "uts", "ts", "ms", "mstt"):
            assert rows[sem].startswith(f"{sem:6s} error: 5 atoms undefined")
        for sem in ("ws", "twfs", "ws-bm"):
            assert "error:" not in rows[sem]

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


class TestParserReuse:
    """`main` keeps one parser for the process; no call leaks into the next."""

    def test_calls_with_different_subcommands_and_flags_are_independent(self, capsys):
        args = fixture_args("new_hire_worker")
        _, seeded = invoke(capsys, "apply", "--json", "--choose", "random", "--seed", "7",
                           "--semantics", "ms", *args)
        _, listing = invoke(capsys, "models", "--json", "--cap", "12", "-p", fx("zoo_join.adl"))
        _, lex = invoke(capsys, "apply", "--json", "--semantics", "ms", *args)
        _, text = invoke(capsys, "apply", "--semantics", "ms", *args)
        assert seeded == (GOLDEN / "apply_new_hire_worker_ms_random7.json").read_text()
        assert json.loads(listing)["counts"]["models"] == 4
        doc = json.loads(lex)
        assert (doc["policy"], doc["seed"]) == ("lex", None)
        assert text.startswith("semantics: ms\n")
        fresh = subprocess.run([sys.executable, "-m", "adlog.cli", "apply", "--json",
                                "--semantics", "ms", *args],
                               capture_output=True, text=True, check=True).stdout
        assert lex == fresh

    def test_parser_is_built_on_first_use(self):
        code = ("import adlog.cli as cli\n"
                "print(cli._parser.cache_info().currsize)\n"
                "cli._parser()\n"
                "print(cli._parser() is cli._parser())")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["0", "True"]


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


class TestErrorsDoNotDependOnHashSeed:
    """An input error prints one message, located where the input has one, under any hash seed."""

    @pytest.mark.parametrize("program, database, delta, message", [
        ("+r(X) :- q(X).", "q(a). p(a). p(a,b). p(c). p(d,e).", "",
         "{db}:1:13: predicate p used with arity 1 and 2"),
        ("+r(X) :- q(X).", "", "+s(a). +s(b,c). +s(d). +s(e,f).",
         "{delta}:1:8: predicate s used with arity 1 and 2"),
        ("+r(X) :- p(X), q(X).", "q(a,b). p(c,d).", "",      # checked by the session
         "predicate p used with arity 1 and 2"),
        ("+r(X) :- p(X), q(X).", "", "+q(a,b). +p(c,d).",    # checked against the program
         "predicate p used with arity 1 and 2"),
    ])
    def test_one_message_under_six_hash_seeds(self, program, database, delta, message,
                                              tmp_path):
        files = {"-p": tmp_path / "e.adl", "-d": tmp_path / "e.adb", "-u": tmp_path / "e.adu"}
        for flag, text in zip(files, (program, database, delta)):
            files[flag].write_text(text)
        argv = [sys.executable, "-m", "adlog.cli", "apply", "--semantics", "ws"]
        for flag, path in files.items():
            argv += [flag, str(path)]
        src = str(FIXTURES.parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        errors = set()
        for seed in range(1, 7):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
            done = subprocess.run(argv, capture_output=True, text=True, env=env)
            assert done.returncode == 1
            errors.add(done.stderr)
        expected = message.format(db=files["-d"], delta=files["-u"])
        assert errors == {f"error: {expected}\n"}


UPDATE_FIXTURES = ("confirm_manager", "new_hire_mixed", "new_hire_roles", "new_hire_unique",
                   "new_hire_worker", "project_cascade", "promotion")
ALL_FIXTURES = sorted(path.stem for path in FIXTURES.glob("*.adl"))


class TestGoldenReports:
    """Output pinned byte for byte: run reports (models, family counts, seeds,
    rejections), and the ground program and well-founded model of every fixture."""

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

    @pytest.mark.parametrize("mode, golden", [("st", "models_zoo_join.json"),
                                              ("bm", "models_bm_zoo_join.json")])
    def test_models_json(self, mode, golden, capsys):
        code, out = invoke(capsys, "models", "--json", "--mode", mode, "-p", fx("zoo_join.adl"))
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("mode", ["st", "bm"])
    @pytest.mark.parametrize("name", ALL_FIXTURES)
    @pytest.mark.parametrize("command, suffix", [("ground", "adl"), ("wf", "txt")])
    def test_ground_and_wf(self, command, suffix, name, mode, capsys):
        code, out = invoke(capsys, command, "--mode", mode, *fixture_args(name))
        assert code == 0
        assert out == (GOLDEN / f"{command}_{mode}_{name}.{suffix}").read_text()

    @pytest.mark.parametrize("mode", ["st", "bm"])
    @pytest.mark.parametrize("command, suffix",
                             [("rewrite", "adl"), ("ground", "adl"), ("wf", "txt")])
    def test_quoted_constants(self, command, suffix, mode, capsys):
        """Symbols that are not plain words render quoted, a quote doubled."""
        code, out = invoke(capsys, command, "--mode", mode,
                           "-p", str(GOLDEN / "quoted_constants.adl"))
        assert code == 0
        assert out == (GOLDEN / f"{command}_{mode}_quoted_constants.{suffix}").read_text()

    @pytest.mark.parametrize("argv, golden", [
        (("ground", "--mode", "st"), "ground_st_project_cascade_unknown.adl"),
        (("ground", "--mode", "bm"), "ground_bm_project_cascade_unknown.adl"),
        (("compare", "--json"), "compare_project_cascade_unknown.json")])
    def test_unknown_facts(self, argv, golden, capsys):
        """No fixture database holds an unknown fact; this one does, and a quoted constant."""
        code, out = invoke(capsys, *argv, "-p", fx("project_cascade.adl"),
                           "-d", str(GOLDEN / "project_cascade_unknown.adb"),
                           "-u", fx("project_cascade.adu"))
        assert code == 0
        assert out == (GOLDEN / golden).read_text()


CHOICE_PROGRAM = """\
pick(X) :- cand(X), not skip(X).
skip(X) :- cand(X), not pick(X).
+chosen(X) :- pick(X), +req(X).
+covered(G) :- pick(X), member(X,G), +want(G).
"""


class TestRendersOnce:
    """`compare --json` applies each distinct model once and renders each database once."""

    @pytest.fixture
    def argv(self, tmp_path) -> list[str]:
        files = {"-p": tmp_path / "c.adl", "-d": tmp_path / "c.adb", "-u": tmp_path / "c.adu"}
        files["-p"].write_text(CHOICE_PROGRAM)
        files["-d"].write_text("cand(c1). cand(c2). cand(c3). cand(c4). "
                               "member(c3,g0). member(c4,g0).")
        files["-u"].write_text("+req(c1). +req(c2). +want(g0).")
        argv = ["compare", "--json"]
        for flag, path in files.items():
            argv += [flag, str(path)]
        return argv

    def test_each_distinct_model_is_applied_once(self, argv, monkeypatch, capsys):
        applied = []
        extract = adlog.update.extract_updates

        def counted(model, schema=None, updates=None):
            applied.append(model)
            return extract(model, schema, updates)

        monkeypatch.setattr(adlog.update, "extract_updates", counted)
        code, out = invoke(capsys, *argv)
        assert code == 0
        # ws, twfs, md and tmds apply the well-founded model; ts, ms and mstt the
        # least total model; ws-bm its own well-founded model.
        contents = {(m.universe, m.true_atoms, m.false_atoms) for m in applied}
        assert len(applied) == len(contents) == 3

    def test_each_database_is_rendered_once(self, argv, monkeypatch, capsys):
        built = []
        texts = Database.__dict__["fact_texts"]

        def counted(database):
            built.append(database)
            return texts.func(database)

        loaded = []

        def recorded(text, origin="<string>"):
            loaded.append(parse_database(text, origin))
            return loaded[-1]

        cached = functools.cached_property(counted)
        cached.__set_name__(Database, "fact_texts")
        monkeypatch.setattr(Database, "fact_texts", cached)
        monkeypatch.setattr(adlog.cli, "parse_database", recorded)
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        # The input database, shared by all nine reports, is rendered once too.
        assert [id(db) for db in built].count(id(loaded[0])) == 1
        assert len({id(db) for db in built}) == len(built)

    @pytest.mark.parametrize("shape", ["mixed", "free pairs"])
    def test_each_distinct_value_is_written_once(self, argv, shape, monkeypatch, capsys):
        """One `{"true", "unknown"}` block per distinct database, one encoded key per model."""
        if shape == "free pairs":   # the benchmark's three free choice pairs
            pathlib.Path(argv[argv.index("-d") + 1]).write_text("cand(c1). cand(c2). cand(c3).")
            pathlib.Path(argv[argv.index("-u") + 1]).write_text("+req(c1). +req(c2). +req(c3).")
        encoded, encode = Counter(), adlog.cli._ENCODE

        def counted(text):
            encoded[text] += 1
            return encode(text)

        texts, read = Database.__dict__["fact_texts"], []

        def recorded(database):     # a property: every read counts, not only the first
            read.append(id(database))
            return texts.func(database)

        results = []

        def kept(*args, **kwargs):
            results.append(adlog.update.compare(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(adlog.cli, "_ENCODE", counted)
        monkeypatch.setattr(Database, "fact_texts", property(recorded))
        monkeypatch.setattr(adlog.cli, "compare", kept)
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        reports = [row.report for row in results[0].rows if row.report is not None]
        databases = {id(db): db for r in reports for db in (r.input_db, r.output_db)}
        models = {id(r.chosen_model): r.chosen_model for r in reports if r.chosen_model}
        assert sorted(read) == sorted(databases)
        keys = Counter(model.render_key() for model in models.values())
        assert {key: encoded[key] for key in keys} == keys
        facts = Counter(fact for db in databases.values()
                        for part in texts.func(db) for fact in part)
        assert {fact: encoded[fact] for fact in facts} == facts
        if shape == "free pairs":   # nine rows: the well-founded, least total and ws-bm models
            assert len(reports) == 9 and sum(keys.values()) == 3

    def test_to_json_dict_returns_new_lists(self):
        up = UpdateProgram(parse_delta("+req(c1)."), parse_program(CHOICE_PROGRAM))
        report = run(up, parse_database("cand(c1). cand(c2)."), Semantics.WS)
        first, second = report.to_json_dict(), report.to_json_dict()
        assert first == second
        for side in ("input", "output"):
            for key in ("true", "unknown"):
                assert type(first[side][key]) is list
                assert first[side][key] is not second[side][key]
        first["input"]["true"].append("changed")
        assert report.to_json_dict() == second


class TestSelftestCommand:
    def test_reduced_counts_pass(self, capsys):
        code, out = invoke(capsys, "selftest", "--ordering-count", "5",
                           "--oracle-count", "5", "--genericity-count", "2")
        assert code == 0
        assert "fixtures:" in out and "ok" in out
