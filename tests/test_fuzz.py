"""Property tests on arbitrary input: parsers return diagnostics and never
raise, the CLI always exits 0, 1 or 2, and object text round-trips any
string.  Derandomized, so every run tries the same examples."""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from modelkit.cli import main
from modelkit.fsm import parse_machine, parse_scenario
from modelkit.metamodel import AttributeLink, ClassModel, ObjectDef, ObjectModel, StrV
from modelkit.objtext import parse_object_model, serialize_object_model
from modelkit.ocl.parser import parse_expression, parse_ocl
from modelkit.puml import parse_class_model

FUZZ = settings(derandomize=True, max_examples=150, deadline=None)

# Text made mostly of the notations' own pieces, so examples reach past the
# first line; st.text() alone adds arbitrary Unicode.
PIECES = st.sampled_from([
    "@startuml", "@enduml", "@startobjects", "@endobjects", "class A {", "enum E {",
    "}", "x : int", "A \"1\" -- \"0..*\" B : r", "A <|-- B", "object o : A",
    "o.x = ", "link o -- o : r", "machine m", "state S", "initial S", "event e",
    "trans S -> S on e when ", "context A inv c: ", "self.x", "->size()", "'", '"',
    "#", "(", ")", " and ", " implies ", "1", "\"s\"", "'s'", "\n", " ",
])
NOTATION_TEXT = st.one_of(st.text(), st.lists(st.one_of(PIECES, st.text(max_size=3)))
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
@given(st.lists(st.text(), max_size=6))
def test_object_text_round_trips_arbitrary_strings(values):
    objects = ObjectModel(objects=[ObjectDef(
        "o1", "K", slots=[AttributeLink(f"s{i}", StrV(v)) for i, v in enumerate(values)])])
    reparsed = parse_object_model(serialize_object_model(objects), ClassModel(name="m"))
    assert reparsed.ok, reparsed.diagnostics
    assert reparsed.model == objects
