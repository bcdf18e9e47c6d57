"""Property tests on arbitrary input: parsers return diagnostics and never
raise, the CLI always exits 0, 1 or 2, object text round-trips any string,
and an integer literal is read the same way on every interpreter: up to
4 300 digits it parses, past them every reader reports it.  Derandomized,
so every run tries the same examples."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO
from modelkit.cli import main
from modelkit.diagnostics import int_text, read_int
from modelkit.fsm import parse_machine, parse_scenario
from modelkit.metamodel import (
    AttributeLink, ClassModel, FloatV, IntV, Multiplicity, ObjectDef, ObjectModel, StrV)
from modelkit.objtext import parse_object_model, render_value, serialize_object_model
from modelkit.ocl.parser import parse_expression, parse_ocl
from modelkit.puml import parse_class_model, serialize_class_model

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

# Any code point: st.characters() draws no surrogate, so they are mixed in.
ANY_CHAR = st.one_of(st.characters(), st.characters(categories=["Cs"]))
# Text made mostly of the notations' own pieces, so examples reach past the
# first line; arbitrary text alone adds arbitrary Unicode.
PIECES = st.sampled_from([
    "@startuml", "@enduml", "@startobjects", "@endobjects", "class A {", "enum E {",
    "}", "x : int", "A \"1\" -- \"0..*\" B : r", "A <|-- B", "object o : A",
    "o.x = ", "link o -- o : r", "machine m", "state S", "initial S", "event e",
    "trans S -> S on e when ", "context A inv c: ", "self.x", "->size()", "'", '"',
    "#", "(", ")", " and ", " implies ", "1", "\"s\"", "'s'", "\n", " ",
])
NOTATION_TEXT = st.one_of(st.text(ANY_CHAR),
                          st.lists(st.one_of(PIECES, st.text(ANY_CHAR, max_size=3)))
                          .map("".join))

PARSERS = [
    parse_class_model,
    lambda text: parse_object_model(text, ClassModel(name="m")),
    parse_machine,
    parse_scenario,
    parse_ocl,
    parse_expression,
]


@FUZZ
@given(NOTATION_TEXT)
def test_every_parser_returns_on_arbitrary_text(text):
    for parse in PARSERS:
        parse(text)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
INPUTS = {"model": "dpp.buml.puml", "objects": "dpp.objs", "ocl": "dpp.ocl",
          "machine": "greeting.fsm", "scenario": "greeting.scenario"}
COMMANDS = [
    ["validate", "--model", "{model}"],
    ["check", "--model", "{model}", "--objects", "{objects}", "--ocl", "{ocl}"],
    ["generate", "--model", "{model}", "--target", "sql", "--out", "{out}"],
    ["fsm-run", "--machine", "{machine}", "--scenario", "{scenario}"],
    ["infer", "--objects", "{objects}", "--out", "{out}"],
    ["enforce", "--model", "{model}", "--objects", "{objects}", "--out", "{out}"],
]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.binary(), st.sampled_from(sorted(INPUTS)))
def test_cli_exits_0_1_or_2_on_arbitrary_file_bytes(data, role):
    """Every command that reads `role` gets `data` in its place; the other
    inputs are the valid fixtures."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: str(FIXTURES / file) for name, file in INPUTS.items()}
        paths[role] = str(Path(tmp) / "input")
        Path(paths[role]).write_bytes(data)
        paths["out"] = str(Path(tmp) / "out")
        for command in COMMANDS:
            if f"{{{role}}}" in command:
                assert main([arg.format(**paths) for arg in command]) in (0, 1, 2)


@FUZZ
@given(st.lists(st.text(ANY_CHAR), max_size=6))
def test_object_text_round_trips_arbitrary_strings(values):
    """Every string reads back equal, lone surrogates included, from text
    that has a UTF-8 form.  A high surrogate followed by a low one has no
    literal: JSON reads its two escapes as one character."""
    objects = ObjectModel(objects=[ObjectDef(
        "o1", "K", slots=[AttributeLink(f"s{i}", StrV(v)) for i, v in enumerate(values)])])
    if any(re.search("[\ud800-\udbff][\udc00-\udfff]", v) for v in values):
        with pytest.raises(ValueError, match="no literal for a surrogate pair"):
            serialize_object_model(objects)
        return
    text = serialize_object_model(objects)
    text.encode("utf-8")  # raises on a character with no UTF-8 form
    reparsed = parse_object_model(text, ClassModel(name="m"))
    assert reparsed.ok, reparsed.diagnostics
    assert reparsed.model == objects


# ---------------------------------------------------------------------------
# Long digit runs

LIMIT = 4300
TOO_LONG = f"integer literal of more than {LIMIT} digits"


def digit_run(length: int, digit: str = "7", sign: str = "") -> str:
    return sign + digit * length


# A run of 4 290-4 310 digits, ASCII or Arabic-Indic (`\d` takes both).
LONG_RUNS = st.tuples(st.integers(LIMIT - 10, LIMIT + 10),
                      st.sampled_from(["7", "1", "٣"]))


def objects_with(value: str) -> str:
    return f"@startobjects\nobject a : A\na.p = {value}\n@endobjects\n"


def model_with(multiplicity: str) -> str:
    return (f'@startuml\nclass A {{\n  p : int\n}}\nclass B {{\n}}\n'
            f'A "{multiplicity}" -- "0..*" B : r\n@enduml\n')


@FUZZ
@given(LONG_RUNS, st.sampled_from(["", "-"]))
def test_a_long_slot_or_payload_integer_parses_up_to_the_limit(run, sign):
    length, digit = run
    value = digit_run(length, digit, sign)
    objects = parse_object_model(objects_with(value), ClassModel(name="m"))
    steps, diagnostics = parse_scenario(f"go x={value} y=1\n")
    if length <= LIMIT:
        assert objects.model.objects[0].slots[0].value == IntV(int(value))
        assert steps == [("go", {"x": IntV(int(value)), "y": IntV(1)})]
    else:
        assert [d.code for d in objects.diagnostics] == ["bad-value"]
        assert [d.message for d in diagnostics] == ["malformed payload value for 'x'"]


@FUZZ
@given(LONG_RUNS)
def test_a_long_multiplicity_parses_up_to_the_limit(run):
    length, digit = run
    bound = digit_run(length, digit)
    result = parse_class_model(model_with(f"0..{bound}"))
    if length <= LIMIT:
        assert result.model.associations[0].ends[0].multiplicity.upper == int(bound)
    else:
        assert [d.message for d in result.diagnostics] == [
            f'malformed multiplicity "0..{bound}"']


@FUZZ
@given(LONG_RUNS)
def test_a_long_ocl_or_guard_literal_parses_up_to_the_limit(run):
    length, digit = run
    literal = digit_run(length, digit)
    constraints = parse_ocl(f"context A inv c: self.x < {literal}")
    guard, diagnostics = parse_expression(f"x < {literal}")
    machine = parse_machine(f"machine m\nstate S\ninitial S\nevent e\n"
                            f"trans S -> S on e when x < {literal}\n")
    if length <= LIMIT:
        assert constraints.ok and guard is not None and machine.ok
        assert constraints.constraints[0].body.rhs.value == IntV(int(literal))
    else:
        assert [(d.message, d.span.column) for d in constraints.diagnostics] == [
            (TOO_LONG, 27)]
        assert [(d.message, d.span.column) for d in diagnostics] == [(TOO_LONG, 5)]
        assert [d.message for d in machine.diagnostics] == [f"malformed guard: {TOO_LONG}"]


@pytest.mark.parametrize("sign", ["", "-"])
def test_object_text_round_trips_the_longest_integer_and_refuses_a_longer_one(sign):
    longest = digit_run(LIMIT, "9", sign)
    text = objects_with(longest)
    parsed = parse_object_model(text, ClassModel(name="m"))
    assert serialize_object_model(parsed.model) == text
    assert parse_object_model(serialize_object_model(parsed.model),
                              ClassModel(name="m")).model == parsed.model
    longer = parse_object_model(objects_with(digit_run(LIMIT + 1, "9", sign)),
                                ClassModel(name="m"))
    assert [(d.code, d.message[:24]) for d in longer.diagnostics] == [
        ("bad-value", "malformed value for 'a.p")]


def test_the_serializer_refuses_an_integer_it_could_not_read_back():
    """On every interpreter, whatever PYTHONINTMAXSTRDIGITS says."""
    assert render_value(IntV(10 ** LIMIT - 1)) == "9" * LIMIT
    assert render_value(IntV(-10 ** LIMIT + 1)) == "-" + "9" * LIMIT
    message = f"the notation has no literal for an integer of more than {LIMIT} digits"
    for number in (10 ** LIMIT, -10 ** LIMIT, 10 ** 5000):
        with pytest.raises(ValueError) as raised:
            render_value(IntV(number))
        assert str(raised.value) == message
    objects = ObjectModel(objects=[ObjectDef("o1", "K", slots=[
        AttributeLink("n", IntV(10 ** 5000))])])
    with pytest.raises(ValueError) as raised:
        serialize_object_model(objects)
    assert str(raised.value) == f"cannot write slot 'o1.n': {message}"


def test_a_class_model_round_trips_the_longest_multiplicity():
    bound = digit_run(LIMIT, "9")
    model = parse_class_model(model_with(f"{bound}..{bound}")).model
    assert model.associations[0].ends[0].multiplicity.lower == int(bound)
    assert parse_class_model(serialize_class_model(model)).model == model
    longer = parse_class_model(model_with(digit_run(LIMIT + 1)))
    assert [(d.code, d.message[:22]) for d in longer.diagnostics] == [
        ("syntax", 'malformed multiplicity')]


def test_the_class_model_serializer_refuses_a_bound_it_could_not_read_back():
    """On every interpreter, whatever PYTHONINTMAXSTRDIGITS says."""
    message = f"the notation has no literal for an integer of more than {LIMIT} digits"
    for ends in ((Multiplicity(10 ** 5000, None), Multiplicity()),
                 (Multiplicity(), Multiplicity(0, 10 ** LIMIT))):
        model = parse_class_model(model_with("*")).model
        for end, multiplicity in zip(model.associations[0].ends, ends):
            end.multiplicity = multiplicity
        with pytest.raises(ValueError) as raised:
            serialize_class_model(model)
        j = 0 if ends[0].lower else 1
        assert str(raised.value) == (
            f"cannot write end {j} ('{'AB'[j]}') of association 'r': {message}")


@pytest.mark.parametrize("length", [639, 640, 641, 1280, 1281, LIMIT])
def test_long_integers_convert_exactly_under_the_lowest_digit_limit(length):
    """Runs longer than 640 digits are converted 640 at a time, inner
    chunks of zeros included."""
    texts = ["1" + "0" * (length - 1), digit_run(length, "9"), "-" + ("10" * length)[:length]]
    numbers = [int(text) for text in texts]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        read = [read_int(text) for text in texts]
        written = [int_text(number) for number in numbers]
    finally:
        sys.set_int_max_str_digits(before)
    assert read == numbers and written == texts


@pytest.mark.parametrize("limit", [640, 1000])
def test_readers_and_writers_convert_the_longest_literal_under_any_digit_limit(limit):
    """PYTHONINTMAXSTRDIGITS may set Python's own limit as low as 640
    digits; it changes nothing that the notations read or write."""
    longest = digit_run(LIMIT, "9")
    number = int(longest)
    model_text, objects_text = model_with(f"{longest}..{longest}"), objects_with(f"-{longest}")
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        model = parse_class_model(model_text).model
        objects = parse_object_model(objects_text, ClassModel(name="m")).model
        steps, _ = parse_scenario(f"go x={longest} y=-{longest}\n")
        constraints = parse_ocl(f"context A inv c: self.x > {longest}")
        written = serialize_class_model(model), serialize_object_model(objects)
    finally:
        sys.set_int_max_str_digits(before)
    assert model.associations[0].ends[0].multiplicity == Multiplicity(number, number)
    assert objects.objects[0].slots[0].value == IntV(-number)
    assert steps == [("go", {"x": IntV(number), "y": IntV(-number)})]
    assert constraints.constraints[0].body.rhs.value == IntV(number)
    assert parse_class_model(written[0]).model == model and written[1] == objects_text


def test_the_scenario_and_ocl_readers_take_the_longest_literal():
    longest = digit_run(LIMIT, "9")
    steps, diagnostics = parse_scenario(f"go x=-{longest}\n")
    assert steps == [("go", {"x": IntV(-int(longest))})] and diagnostics == []
    constraints = parse_ocl(f"context A inv c: self.x > -{longest}")
    assert constraints.constraints[0].body.rhs.operand.value == IntV(int(longest))
    steps, diagnostics = parse_scenario(f"go x={longest}9\n")
    assert steps == [] and [d.code for d in diagnostics] == ["bad-value"]
    constraints = parse_ocl(f"context A inv c: self.x > {longest}9")
    assert [d.code for d in constraints.diagnostics] == ["syntax"]


def test_an_ocl_or_guard_float_literal_past_the_largest_float_is_a_syntax_error():
    """Written out in digits, 10^308 is a float and 10^400 is not: it is
    reported where it stands, as the object reader reports it, instead of
    evaluating as infinity."""
    largest, huge = "1" + "0" * 308 + ".0", "1" + "0" * 400 + ".0"
    expr, diagnostics = parse_expression(f"x < {largest}")
    assert diagnostics == [] and expr.rhs.value == FloatV(1e308)
    message = "float literal out of range"
    for text in (f"{huge} > 0", f"{huge} * 1.0"):
        expr, diagnostics = parse_expression(text)
        assert expr is None
        assert [(d.code, d.message, d.span.column) for d in diagnostics] == [
            ("syntax", message, 1)]
    constraints = parse_ocl(f"context A inv c: self.x < {huge}\ncontext A inv d: true")
    assert [(d.message, d.span.column) for d in constraints.diagnostics] == [(message, 27)]
    assert [c.name for c in constraints.constraints] == ["d"]
    machine = parse_machine(f"machine m\nstate S\ninitial S\nevent e\n"
                            f"trans S -> S on e when x < {huge}\n")
    assert [d.message for d in machine.diagnostics] == [f"malformed guard: {message}"]


def _cli(argv, env):
    return subprocess.run([sys.executable, "-m", "modelkit.cli", *argv],
                          capture_output=True, env=env)


# (files to write, command, exit code): one literal per reader at the
# limit and one past it.
LONG_LITERAL_RUNS = [
    ({"m.puml": model_with(digit_run(LIMIT))}, "validate --model m.puml", 0),
    ({"m.puml": model_with(digit_run(LIMIT + 1))}, "validate --model m.puml", 2),
    ({"m.puml": model_with("*"), "o.objs": objects_with(digit_run(LIMIT, sign="-")),
      "c.ocl": f"context A inv c: {digit_run(LIMIT)} > 0\n"},
     "check --model m.puml --objects o.objs --ocl c.ocl", 0),
    ({"m.puml": model_with("*"), "o.objs": objects_with(digit_run(LIMIT + 1)),
      "c.ocl": "context A inv c: true\n"},
     "check --model m.puml --objects o.objs --ocl c.ocl", 2),
    ({"m.puml": model_with("*"), "o.objs": objects_with("1"),
      "c.ocl": f"context A inv c: {digit_run(LIMIT + 1)} > 0\n"},
     "check --model m.puml --objects o.objs --ocl c.ocl", 2),
    ({"m.puml": model_with("*"), "o.objs": objects_with("1"),
      "c.ocl": f"context A inv c: {digit_run(400)} + 1.5 > 0\n"},
     "check --model m.puml --objects o.objs --ocl c.ocl", 1),
    ({"m.fsm": f"machine m\nstate S\ninitial S\nevent e\n"
               f"trans S -> S on e when x < {digit_run(LIMIT)}\n",
      "s.scn": f"e x={digit_run(LIMIT)}\n"}, "fsm-run --machine m.fsm --scenario s.scn", 0),
    ({"m.fsm": f"machine m\nstate S\ninitial S\nevent e\n"
               f"trans S -> S on e when x < {digit_run(LIMIT + 1)}\n",
      "s.scn": "e x=1\n"}, "fsm-run --machine m.fsm --scenario s.scn", 2),
    ({"m.fsm": "machine m\nstate S\ninitial S\nevent e\ntrans S -> S on e\n",
      "s.scn": f"e x={digit_run(LIMIT + 1)}\n"},
     "fsm-run --machine m.fsm --scenario s.scn", 2),
    # 2 000 digits: past Python's limit when PYTHONINTMAXSTRDIGITS is
    # 640 or 1 000, and written back in diagnostics.
    ({"m.puml": model_with(f"{digit_run(2000, '9')}..{digit_run(2000, '8')}")},
     "validate --model m.puml", 1),
    ({"m.puml": model_with(f"{digit_run(2000)}..*"), "o.objs": objects_with(digit_run(2000)),
      "c.ocl": f"context A inv c: self.p = -{digit_run(2000)}\n"},
     "check --model m.puml --objects o.objs --ocl c.ocl", 1),
    ({"m.fsm": f"machine m\nstate S\nstate T action t\ninitial S\nevent e\n"
               f"trans S -> T on e when x = {digit_run(2000)}\ntrans T -> S on e\n",
      "s.scn": f"e x={digit_run(2000)}\ne x=-{digit_run(2000)}\ne\n"},
     "fsm-run --machine m.fsm --scenario s.scn", 0),
    # A float literal past the largest float, written out in digits.
    ({"m.puml": model_with("*"), "o.objs": objects_with("1"),
      "c.ocl": f"context A inv c: {digit_run(400, '1')}.0 > 0\n"},
     "check --model m.puml --objects o.objs --ocl c.ocl", 2),
]


@pytest.mark.parametrize("files, command, code", LONG_LITERAL_RUNS,
                         ids=[f"{command.split()[0]}-{i}-exit{code}"
                              for i, (_, command, code) in enumerate(LONG_LITERAL_RUNS)])
def test_the_cli_reads_long_literals_alike_on_every_interpreter(files, command, code,
                                                                 tmp_path):
    """Byte-identical output and exit code with Python's digit limit at its
    default, off (PYTHONINTMAXSTRDIGITS=0), at its lowest (640) and in
    between (1 000), and never a traceback."""
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [str(tmp_path / arg) if arg in files else arg for arg in command.split()]
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    limited = _cli(argv, env)
    assert limited.returncode == code, limited.stderr
    assert b"Traceback" not in limited.stderr
    for digits in ("0", "640", "1000"):
        other = _cli(argv, {**env, "PYTHONINTMAXSTRDIGITS": digits})
        assert (other.returncode, other.stdout, other.stderr) == (
            limited.returncode, limited.stdout, limited.stderr), digits
