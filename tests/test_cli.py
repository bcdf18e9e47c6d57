import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import FIXTURES, REPO
from modelkit.cli import main
from modelkit.fsm import parse_scenario
from modelkit.objtext import parse_object_model, serialize_object_model
from modelkit.puml import parse_class_model

GREETING = (FIXTURES / "greeting.fsm").read_text()
GUARDED = ("machine m\nstate A\nstate B\ninitial A\nevent go\nevent stay\n"
           "trans A -> B on go when x / 0 > 1\n")
LOOPING = ("machine m\nstate A\nstate B action b\nstate C action c\ninitial A\n"
           "event go\nevent stay\nevent back\ntrans A -> B on go when x > 2\n"
           "trans A -> C on go\ntrans B -> C on go when x < 5 and x > 0\n"
           "trans B -> A on back\ntrans C -> A on back when x > 6\n")
BYTES_PER_STEP = 120
CYCLIC = "@startuml\nclass A {\n}\nclass B {\n}\nA <|-- B\nB <|-- A\n@enduml\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_model_exits_zero_silently(self, capsys, fixtures_dir):
        code, out, err = run(capsys, "validate", "--model",
                             str(fixtures_dir / "dpp.buml.puml"))
        assert (code, out, err) == (0, "", "")

    def test_cycle_exits_one_with_a_diagnostic_line(self, capsys, tmp_path):
        path = tmp_path / "cyclic.buml.puml"
        path.write_text(CYCLIC)
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert code == 1
        assert out.startswith("error gen-cycle ")
        assert "1 error(s)" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "validate", "--model",
                           str(tmp_path / "absent.puml"))
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_file_exits_two_without_a_traceback(self, capsys, tmp_path):
        path = tmp_path / "bad.puml"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: ")
        assert "Traceback" not in err

    def test_syntax_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.puml"
        path.write_text("@startuml\nclass A <<weird>>\n@enduml\n")
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 2
        assert "unsupported-construct" in out


@pytest.mark.parametrize("command", [
    "validate --model {fx}/dpp.buml.puml",
    "check --model {fx}/dpp.buml.puml --objects {fx}/dpp.objs --ocl {fx}/dpp.ocl",
    "fsm-run --machine {fx}/greeting.fsm --scenario {fx}/greeting.scenario",
    "fsm-run --machine {fx}/nondet.fsm --scenario {fx}/greeting.scenario",
    "enforce --model {fx}/dpp.buml.puml --objects {fx}/dpp.objs --out {out}/p.objs",
], ids=["validate", "check", "fsm-run", "fsm-run-invalid", "enforce"])
def test_a_byte_order_mark_changes_no_output(capsys, tmp_path, command):
    """Some editors begin a UTF-8 file with a byte-order mark; the readers
    never see it."""
    marked = tmp_path / "marked"
    marked.mkdir()
    for source in FIXTURES.iterdir():
        (marked / source.name).write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    results = []
    for fx in (FIXTURES, marked):
        code, out, _ = run(capsys, *command.format(fx=fx, out=tmp_path).split())
        results.append((code, out.replace(str(fx), "<fixtures>")))
    assert results[0] == results[1]


class TestCheck:
    def test_dpp_fixture_passes(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "check",
                           "--model", str(fixtures_dir / "dpp.buml.puml"),
                           "--objects", str(fixtures_dir / "dpp.objs"),
                           "--ocl", str(fixtures_dir / "dpp.ocl"))
        assert code == 0
        assert out == ""

    def test_failing_invariant_lists_the_instance(self, capsys, fixtures_dir,
                                                  tmp_path):
        objs = tmp_path / "bad.objs"
        objs.write_text('@startobjects\n'
                        'object p1 : ProductPassport\n'
                        'p1.code = ""\n'
                        'p1.product_name = "Phone"\n'
                        'p1.brand = "Acme"\n'
                        '@endobjects\n')
        ocl = tmp_path / "rules.ocl"
        ocl.write_text("context ProductPassport inv hasCode: self.code <> ''\n")
        code, out, _ = run(capsys, "check",
                           "--model", str(fixtures_dir / "dpp.buml.puml"),
                           "--objects", str(objs), "--ocl", str(ocl))
        assert code == 1
        assert "FAIL hasCode p1" in out.splitlines()

    def test_float_overflow_is_an_error_verdict(self, capsys, tmp_path):
        model = tmp_path / "m.puml"
        model.write_text("@startuml\nclass M {\n  x : float\n}\n@enduml\n")
        objs = tmp_path / "m.objs"
        objs.write_text("@startobjects\nobject m1 : M\nm1.x = 1.5e308\n@endobjects\n")
        ocl = tmp_path / "m.ocl"
        ocl.write_text("context M inv big: self.x * 10.0 > 0\n")
        code, out, _ = run(capsys, "check", "--model", str(model),
                           "--objects", str(objs), "--ocl", str(ocl))
        assert (code, out) == (1, "ERROR big m1 float overflow in '*'\n")

    def test_conformance_errors_are_reported(self, capsys, fixtures_dir,
                                             tmp_path):
        objs = tmp_path / "bad.objs"
        objs.write_text('@startobjects\n'
                        'object x : Ghost\n'
                        '@endobjects\n')
        ocl = tmp_path / "rules.ocl"
        ocl.write_text("")
        code, out, _ = run(capsys, "check",
                           "--model", str(fixtures_dir / "dpp.buml.puml"),
                           "--objects", str(objs), "--ocl", str(ocl))
        assert code == 1
        assert "unknown-classifier" in out

    def test_malformed_ocl_exits_two(self, capsys, fixtures_dir, tmp_path):
        ocl = tmp_path / "broken.ocl"
        ocl.write_text("context ProductPassport inv bad: self.\n")
        code, _, _ = run(capsys, "check",
                         "--model", str(fixtures_dir / "dpp.buml.puml"),
                         "--objects", str(fixtures_dir / "dpp.objs"),
                         "--ocl", str(ocl))
        assert code == 2


class TestGenerate:
    def test_sql_artifact_is_written_under_target_subdir(self, capsys,
                                                         fixtures_dir, tmp_path):
        code, out, _ = run(capsys, "generate",
                           "--model", str(fixtures_dir / "dpp.buml.puml"),
                           "--target", "sql", "--out", str(tmp_path))
        assert code == 0
        schema = tmp_path / "sql" / "schema.sql"
        assert schema.exists()
        assert str(schema) in out
        assert "PRIMARY KEY (code)" in schema.read_text()

    def test_classes_on_empty_model_writes_nothing(self, capsys, tmp_path):
        model = tmp_path / "empty.puml"
        model.write_text("@startuml\n@enduml\n")
        code, out, _ = run(capsys, "generate", "--model", str(model),
                           "--target", "classes", "--out", str(tmp_path / "o"))
        assert code == 0
        assert out == ""
        assert not (tmp_path / "o" / "classes").exists() or \
            list((tmp_path / "o" / "classes").iterdir()) == []

    def test_each_output_directory_is_made_once(self, capsys, fixtures_dir,
                                                tmp_path, monkeypatch):
        made = []
        mkdir = Path.mkdir

        def counted(path, *args, **kwargs):
            made.append(path)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counted)
        code, out, _ = run(capsys, "generate",
                           "--model", str(fixtures_dir / "dpp.buml.puml"),
                           "--target", "classes", "--out", str(tmp_path))
        assert code == 0
        assert len(out.splitlines()) > 1
        assert made == [tmp_path / "classes"]

    def test_unknown_target_exits_two_listing_ids(self, capsys, fixtures_dir,
                                                  tmp_path):
        code, _, err = run(capsys, "generate",
                           "--model", str(fixtures_dir / "dpp.buml.puml"),
                           "--target", "bogus", "--out", str(tmp_path))
        assert code == 2
        assert "classes" in err and "sql" in err

    def test_unsupported_feature_exits_one_with_diagnostics(self, capsys,
                                                            tmp_path):
        model = tmp_path / "m.puml"
        model.write_text('@startuml\n'
                         'abstract class A {\n  a : int\n}\n'
                         'class B {\n  b : int\n}\n'
                         'A "1" -- "0..*" B : r\n'
                         '@enduml\n')
        code, out, _ = run(capsys, "generate", "--model", str(model),
                           "--target", "sql", "--out", str(tmp_path / "o"))
        assert code == 1
        assert "gen-unsupported" in out
        assert (tmp_path / "o" / "sql" / "schema.sql").exists()


    @pytest.mark.parametrize("target, artifact, message, kept, dropped", [
        ("classes", "foo_bar.gen", "file name 'foo_bar.gen'", "self.a = a", "self.b"),
        ("sql", "schema.sql", "table name 'foo_bar'", "  a INTEGER\n", "b INTEGER"),
    ])
    def test_two_classes_with_one_snake_case_name_collide(self, capsys, tmp_path, target,
                                                         artifact, message, kept, dropped):
        """The second class is reported and left out; nothing is overwritten."""
        model = tmp_path / "m.puml"
        model.write_text("@startuml\nclass FooBar {\n  a : int\n}\n"
                         "class foo_bar {\n  b : int\n}\n@enduml\n")
        code, out, err = run(capsys, "generate", "--model", str(model),
                             "--target", target, "--out", str(tmp_path / "o"))
        written = tmp_path / "o" / target / artifact
        assert (code, out, err) == (
            1, f"{written}\nerror name-collision - {message} produced twice after "
            "snake_case mangling\n", "1 error(s)\n")
        assert kept in written.read_text() and dropped not in written.read_text()


class TestFsmRun:
    def test_greeting_scenario(self, capsys, fixtures_dir):
        code, out, _ = run(capsys, "fsm-run",
                           "--machine", str(fixtures_dir / "greeting.fsm"),
                           "--scenario", str(fixtures_dir / "greeting.scenario"))
        assert code == 0
        assert out == (fixtures_dir / "greeting.trace").read_text()

    def test_empty_scenario(self, capsys, fixtures_dir, tmp_path):
        scenario = tmp_path / "empty.scenario"
        scenario.write_text("")
        code, out, _ = run(capsys, "fsm-run",
                           "--machine", str(fixtures_dir / "greeting.fsm"),
                           "--scenario", str(scenario))
        assert (code, out) == (0, "")

    def test_undeclared_event_aborts_with_partial_trace(self, capsys,
                                                        fixtures_dir, tmp_path):
        scenario = tmp_path / "broken.scenario"
        scenario.write_text("greet\nvanish\nbye\n")
        code, out, err = run(capsys, "fsm-run",
                             "--machine", str(fixtures_dir / "greeting.fsm"),
                             "--scenario", str(scenario))
        assert code == 1
        assert out == "greet Idle -> Greeting [say_hello]\n"
        assert "vanish" in err

    def test_invalid_machine_exits_two_with_diagnostics(self, capsys,
                                                        fixtures_dir, tmp_path):
        scenario = tmp_path / "s.scenario"
        scenario.write_text("greet\n")
        code, out, _ = run(capsys, "fsm-run",
                           "--machine", str(fixtures_dir / "nondet.fsm"),
                           "--scenario", str(scenario))
        assert code == 2
        assert "nondeterministic" in out

    def test_guards_nested_too_deeply_exit_without_a_traceback(self, capsys,
                                                               tmp_path):
        machine = tmp_path / "m.fsm"
        scenario = tmp_path / "s.scenario"
        scenario.write_text("stay\ngo\n")
        head = "machine m\nstate A\nstate B\ninitial A\nevent go\nevent stay\n"
        machine.write_text(head + "trans A -> B on go when "
                           + "+".join(["1"] * 2000) + " > 0\n")
        code, out, err = run(capsys, "fsm-run", "--machine", str(machine),
                             "--scenario", str(scenario))
        assert (code, out) == (1, "stay A -> A []\n")
        assert err.endswith("failed: expression nested too deeply\n")
        machine.write_text(head + "trans A -> B on go when "
                           + "(" * 200 + "true" + ")" * 200 + "\n")
        code, out, err = run(capsys, "fsm-run", "--machine", str(machine),
                             "--scenario", str(scenario))
        assert code == 2
        assert "malformed guard: expression nested too deeply" in out
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("machine, scenario, errors", [
        (GREETING, "greet\nvanish\n# later\n9bye\nbye x=\n", 2),
        (GUARDED, "stay\ngo x=1\ngo x=\nstay\n", 1),
    ], ids=["undeclared-event", "guard-error"])
    def test_a_malformed_line_after_a_failing_step_wins(self, capsys, tmp_path,
                                                        machine, scenario, errors):
        """The scenario is read as the machine runs it, and read to its end
        after a step fails: any malformed line is reported alone, exit 2."""
        (tmp_path / "m.fsm").write_text(machine)
        (tmp_path / "s.scenario").write_text(scenario)
        expected = "".join(d.format() + "\n" for d in parse_scenario(
            scenario, str(tmp_path / "s.scenario"))[1])
        code, out, err = run(capsys, "fsm-run", "--machine", str(tmp_path / "m.fsm"),
                             "--scenario", str(tmp_path / "s.scenario"))
        assert (code, out, err) == (2, expected, f"{errors} error(s)\n")
        assert expected.count("\n") == errors


def scenario_of(steps: int) -> str:
    rng = random.Random(steps)
    return "".join(f"{rng.choice(('go', 'stay', 'back'))} x={rng.randrange(10)}\n"
                   for _ in range(steps))


class _Sink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


def test_fsm_run_holds_its_output_not_its_scenario(tmp_path, monkeypatch):
    """The peak memory of an in-process fsm-run grows with the steps by the
    trace, its text and the scenario's lines: 82 bytes a step as measured,
    where holding every parsed step and a trace entry per step took 540."""
    (tmp_path / "m.fsm").write_text(LOOPING)
    peaks = []
    for steps in (4000, 16000):
        scenario = tmp_path / f"{steps}.scenario"
        scenario.write_text(scenario_of(steps))
        argv = ["fsm-run", "--machine", str(tmp_path / "m.fsm"), "--scenario", str(scenario)]
        monkeypatch.setattr(sys, "stdout", _Sink())
        assert main(argv) == 0  # imports and compiled patterns are not counted
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (peaks[1] - peaks[0]) / 12000 < BYTES_PER_STEP, peaks


class TestInferEnforce:
    def test_infer_then_check_round_trips(self, capsys, fixtures_dir, tmp_path):
        inferred = tmp_path / "inferred.buml.puml"
        code, _, _ = run(capsys, "infer",
                         "--objects", str(fixtures_dir / "dpp.objs"),
                         "--out", str(inferred))
        assert code == 0
        empty_ocl = tmp_path / "empty.ocl"
        empty_ocl.write_text("")
        code, out, _ = run(capsys, "check", "--model", str(inferred),
                           "--objects", str(fixtures_dir / "dpp.objs"),
                           "--ocl", str(empty_ocl))
        assert code == 0, out

    def test_infer_of_an_unserializable_model_exits_one_without_a_traceback(
            self, capsys, tmp_path):
        objs = tmp_path / "clash.objs"
        objs.write_text("@startobjects\nobject o : r\nlink o -- o : r\n@endobjects\n")
        out_path = tmp_path / "inferred.buml.puml"
        code, _, err = run(capsys, "infer", "--objects", str(objs),
                           "--out", str(out_path))
        assert code == 1
        assert err == ("error: cannot serialize invalid model: association 'r' "
                       "clashes with class of the same name\n")
        assert not out_path.exists()

    def test_enforce_on_conformant_input_is_canonical_identity(
            self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "pruned.objs"
        code, _, _ = run(capsys, "enforce",
                         "--model", str(fixtures_dir / "dpp.buml.puml"),
                         "--objects", str(fixtures_dir / "dpp.objs"),
                         "--out", str(out_path))
        assert code == 0
        model = parse_class_model(
            (fixtures_dir / "dpp.buml.puml").read_text()).model
        original = parse_object_model(
            (fixtures_dir / "dpp.objs").read_text(), model).model
        assert out_path.read_bytes() == serialize_object_model(original).encode()

    def test_enforce_residual_exits_one(self, capsys, tmp_path):
        model = tmp_path / "m.puml"
        model.write_text('@startuml\n'
                         'class P {\n}\n'
                         'class S {\n}\n'
                         'P "1" -- "1..*" S : r\n'
                         '@enduml\n')
        objs = tmp_path / "o.objs"
        objs.write_text("@startobjects\nobject p1 : P\n@endobjects\n")
        out_path = tmp_path / "pruned.objs"
        code, out, _ = run(capsys, "enforce", "--model", str(model),
                           "--objects", str(objs), "--out", str(out_path))
        assert code == 1
        assert "mult-lower" in out


def test_infer_check_enforce_pipeline_on_random_populations(capsys, tmp_path):
    import random
    from model_gen import random_object_population
    from modelkit.objtext import serialize_object_model

    rng = random.Random(211)
    empty_ocl = tmp_path / "empty.ocl"
    empty_ocl.write_text("")
    for case in range(20):
        objs_path = tmp_path / f"pop{case}.objs"
        objs_path.write_text(serialize_object_model(
            random_object_population(rng)))
        model_path = tmp_path / f"inferred{case}.buml.puml"
        pruned_path = tmp_path / f"pruned{case}.objs"

        assert main(["infer", "--objects", str(objs_path),
                     "--out", str(model_path)]) == 0
        assert main(["check", "--model", str(model_path),
                     "--objects", str(objs_path),
                     "--ocl", str(empty_ocl)]) == 0
        assert main(["enforce", "--model", str(model_path),
                     "--objects", str(objs_path),
                     "--out", str(pruned_path)]) == 0
        assert pruned_path.read_text() == objs_path.read_text()
    capsys.readouterr()


DPP = str(FIXTURES / "dpp.buml.puml")


# Each argv's exit code and the stream it writes, as recorded from the
# argparse-based reader this one replaced, except that an empty value,
# which argparse took, is a usage error.  A usage error writes a usage
# line and an `error:` line to stderr; help goes to stdout.
@pytest.mark.parametrize("argv, code, stream", [
    ([], 2, "err"),
    (["frobnicate"], 2, "err"),
    (["validate"], 2, "err"),
    (["validate", "--model"], 2, "err"),
    (["validate", "--model", "a", "extra"], 2, "err"),
    (["validate", "--nope", "x"], 2, "err"),
    (["validate", f"--model={DPP}"], 0, None),
    (["validate", "--mod", DPP], 0, None),
    (["validate", "--model", "a", "--model", DPP], 0, None),
    (["validate", "--model", "-x"], 2, "err"),
    (["check", "--o", "x"], 2, "err"),
    (["-h"], 0, "out"),
    (["--help"], 0, "out"),
    (["check", "-h"], 0, "out"),
    (["validate", "--model", DPP, "-h"], 0, "out"),
    (["validate", "--model="], 2, "err"),
    (["validate", "--model", ""], 2, "err"),
    (["enforce", "--model", DPP, "--objects", DPP, "--out="], 2, "err"),
    (["generate", "--model", DPP, "--target", "sql", "--out", ""], 2, "err"),
], ids=lambda v: " ".join(v).replace(DPP, "<fixture>") if isinstance(v, list) else None)
def test_argv_table(capsys, argv, code, stream):
    got, out, err = run(capsys, *argv)
    assert got == code
    assert [name for name, text in (("out", out), ("err", err)) if text] == \
        ([stream] if stream else [])
    text = out or err
    if text:
        assert text.startswith("usage: modelkit")
    if code == 2:
        assert "error: " in err.splitlines()[1]


@pytest.mark.parametrize("argv, option", [
    (["validate", "--model="], "model"),
    (["generate", "--model", DPP, "--target", "", "--out", "o"], "target"),
    (["enforce", "--mod", DPP, "--objects", DPP, "--out="], "out"),
])
def test_an_empty_value_is_a_usage_error(capsys, tmp_path, monkeypatch, argv, option):
    monkeypatch.chdir(tmp_path)
    usage = {"validate": "--model MODEL",
             "generate": "--model MODEL --target TARGET --out OUT",
             "enforce": "--model MODEL --objects OBJECTS --out OUT"}[argv[0]]
    assert run(capsys, *argv) == (2, "", f"usage: modelkit {argv[0]} {usage}\nmodelkit "
                                  f"{argv[0]}: error: argument --{option}: expected one argument\n")
    assert not any(tmp_path.iterdir())  # nothing was written


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(capsys, enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(capsys, "validate", "--model", DPP)[0] == 0
        assert gc.isenabled() is enabled
        assert run(capsys, "validate")[0] == 2
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


CHECK = "check --model {fx}/dpp.buml.puml --objects {fx}/dpp.objs --ocl "


@pytest.mark.parametrize("command, code", [
    ("validate --model {fx}/dpp.buml.puml", 0),
    (CHECK + "{fx}/dpp.ocl", 0),
    ("generate --model {fx}/dpp.buml.puml --target sql --out {tmp}", 0),
    ("generate --model {fx}/dpp.buml.puml --target classes --out {tmp}", 0),
    ("fsm-run --machine {fx}/greeting.fsm --scenario {fx}/greeting.scenario", 0),
    ("infer --objects {fx}/dpp.objs --out {tmp}/inferred.buml.puml", 0),
    ("enforce --model {fx}/dpp.buml.puml --objects {fx}/dpp.objs --out {tmp}/p.objs", 0),
    (CHECK + "{tmp}/navigation.ocl", 1),
    (CHECK + "{tmp}/division.ocl", 1),
    (CHECK + "{tmp}/malformed.ocl", 2),
    ("fsm-run --machine {tmp}/guarded.fsm --scenario {tmp}/go.scenario", 1),
    ("fsm-run --machine {tmp}/guarded.fsm --scenario {tmp}/late.scenario", 2),
    ("validate --nope x", 2),
], ids=["validate", "check", "generate-sql", "generate-classes", "fsm-run", "infer",
        "enforce", "unknown-navigation", "division-by-zero", "parse-error",
        "guard-error", "guard-error-then-malformed", "usage-error"])
def test_a_command_leaves_no_cyclic_garbage(capsys, tmp_path, command, code):
    """Why `main` may run with the collector off: whatever a command drops,
    reference counting frees, on success and on every kind of failure."""
    for name, text in (
            ("navigation.ocl", "context ProductPassport inv n: self.nope->size() > 0\n"),
            ("division.ocl", "context ProductPassport inv d: 1 / 0 > 0\n"),
            ("malformed.ocl", "context ProductPassport inv m: self.\n"),
            ("guarded.fsm", GUARDED), ("go.scenario", "go x=1\n"),
            ("late.scenario", "go x=1\ngo x=\n")):
        (tmp_path / name).write_text(text)
    argv = command.format(fx=FIXTURES, tmp=tmp_path).split()
    was = gc.isenabled()
    gc.collect()
    gc.disable()  # so that no automatic pass can hide a cycle
    try:
        assert main(argv) == code
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_two(capsys):
    assert main(["validate"]) == 2


def test_console_entry_point_works_in_a_subprocess(fixtures_dir):
    result = subprocess.run(
        [sys.executable, "-m", "modelkit.cli", "validate",
         "--model", str(fixtures_dir / "dpp.buml.puml")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert result.returncode == 0
    assert result.stdout == ""


class TestLostOutput:
    """A report that cannot be written ends the command with exit 2 and at
    most one error line, never a traceback."""

    @staticmethod
    def failing_check(tmp_path, fixtures_dir) -> list[str]:
        """A check that prints a FAIL line for every passport."""
        ocl = tmp_path / "never.ocl"
        ocl.write_text("context ProductPassport inv never: self.code = ''\n")
        return [sys.executable, "-m", "modelkit.cli", "check",
                "--model", str(fixtures_dir / "dpp.buml.puml"),
                "--objects", str(fixtures_dir / "dpp.objs"), "--ocl", str(ocl)]

    @staticmethod
    def run_into(argv, stdout) -> subprocess.CompletedProcess:
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True,
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")})

    def test_a_closed_pipe_exits_two_without_a_traceback(self, tmp_path, fixtures_dir):
        """As under `modelkit check ... | head -1`, with the reader gone first."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = self.run_into(self.failing_check(tmp_path, fixtures_dir), write_end)
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == "error: cannot write output: Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
    def test_a_full_disk_exits_two_without_a_traceback(self, tmp_path, fixtures_dir):
        with open("/dev/full", "w") as full:
            result = self.run_into(self.failing_check(tmp_path, fixtures_dir), full)
        assert result.returncode == 2
        assert result.stderr == "error: cannot write output: No space left on device\n"

    def test_the_check_prints_fail_lines_when_it_can(self, tmp_path, fixtures_dir):
        result = self.run_into(self.failing_check(tmp_path, fixtures_dir), subprocess.PIPE)
        assert (result.returncode, result.stderr) == (1, "")
        assert result.stdout.startswith("FAIL never ")
