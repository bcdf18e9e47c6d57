"""Differential tests of the object, scenario and machine readers, and of
the class-model declaration pattern, against the naive reference code in
`reader_oracle`, on generated lines made to reach every branch of a
statement: plain and escaped strings, control characters, Unicode digits
and blanks, items with no blank between them, duplicate and undeclared
ids, keywords out of place, and comments.  Derandomized, so every run
tries the same examples."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import reader_oracle
from modelkit.fsm import parse_machine, parse_scenario
from modelkit.puml import _DECL_RE
from modelkit.metamodel import ClassModel, IntV, StrV
from modelkit.objtext import parse_object_model, render_value

ORACLE = settings(derandomize=True, max_examples=200, deadline=None)

# Characters a literal or a blank can be made of: quotes, backslashes,
# control characters (tab included), DEL, comment markers, Unicode digits
# (Arabic-Indic, fullwidth, superscript) and Unicode blanks.
CHARS = st.sampled_from(
    list('"\\\'# \t=.-:') + ["\x00", "\x01", "\x1f", "\x7f", "\x0b", "\x1c", "\xa0",
                             " ", "٣", "５", "²", "a", "Z", "_",
                             "e", "1", "0", "é"])
SOME_TEXT = st.one_of(st.text(CHARS, max_size=6), st.text(max_size=4))
BLANK = st.sampled_from(["", " ", "  ", "\t", " \t ", "\xa0"])
# `c` is never declared up front; the others are.
DECLARED = ["a", "b", "object", "link", "x_1", "xé"]
IDS = st.sampled_from(DECLARED + ["c"])

# Slot and payload values, about two in three well-formed.
VALUE = st.one_of(
    st.integers(-10**20, 10**20).map(str),
    SOME_TEXT.map(lambda s: '"' + s + '"'),                  # plain or not, raw
    SOME_TEXT.map(json.dumps),                               # escaped, ASCII
    SOME_TEXT.map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.sampled_from(["٣١", "-٣", "５", "²", "007", "-0", "1e999", "-1e999", "1e-999",
                     "2.5", "1E3", "1.", ".5", "null", "true", "false", "E::X", "E::",
                     "nan", "inf", "-", '"a" "b"', '"a', '"\\"', '"\\u00e9"',
                     '"\\ud800"', "x", "'"]),
)
# What may follow a line's last item: mostly nothing, else a blank, a
# comment or a malformed item.
OBJECT_END = st.sampled_from(["", "", "", "", " ", " ' note", "'", " ' \"x\"", " x"])
SCENARIO_END = st.sampled_from(["", "", "", "", " ", " # note", "#", " # 'x'", " 1k=1",
                                " x = 1", " x", " =1", "x=1"])


@st.composite
def object_line(draw):
    kind = draw(st.sampled_from(["object"] + ["slot"] * 6 + ["link"] * 2 + ["text"]))
    if kind == "object":
        line = (f"object{draw(BLANK)} {draw(IDS)}{draw(BLANK)}:{draw(BLANK)}"
                f"{draw(IDS)}")
    elif kind == "slot":
        line = (f"{draw(IDS)}.{draw(st.sampled_from(['p', 'q', 'r2']))}{draw(BLANK)}="
                f"{draw(BLANK)}{draw(VALUE)}")
    elif kind == "link":
        line = (f"link {draw(IDS)}{draw(BLANK)}--{draw(BLANK)}{draw(IDS)}{draw(BLANK)}"
                f":{draw(BLANK)}{draw(IDS)}")
    else:
        line = draw(SOME_TEXT)
    return draw(BLANK) + line + draw(BLANK) + draw(OBJECT_END)


@st.composite
def object_text(draw):
    lines = [f"object {oid} : K" for oid in DECLARED]
    lines += draw(st.lists(object_line(), max_size=12))
    head = draw(st.sampled_from([["@startobjects"], ["@startobjects"], []]))
    tail = draw(st.sampled_from([["@endobjects"], ["@endobjects"], [],
                                 ["@endobjects", "x"]]))
    return "\n".join(head + lines + tail) + draw(st.sampled_from(["\n", ""]))


@st.composite
def scenario_line(draw):
    event = draw(st.sampled_from(["go", "tick", "x_1", "xé", "_", "1go", "go!", "été",
                                  None]))
    if event is None:
        event = draw(SOME_TEXT)
    items = draw(st.lists(st.tuples(st.sampled_from(["x", "y", "label"]), VALUE,
                                    st.sampled_from(["", " ", " ", "\t", "  \xa0"])),
                          max_size=4))
    payload = "".join(f"{key}={value}{gap}" for key, value, gap in items)
    return draw(BLANK) + event + draw(BLANK) + " " + payload + draw(SCENARIO_END)


def _agree(actual, expected):
    """Equal models, spans included, and the same diagnostics in order."""
    assert repr(actual) == repr(expected)


def _agree_on_objects(text):
    actual = parse_object_model(text, ClassModel(name="m"))
    expected = reader_oracle.parse_object_model(text)
    _agree(actual.model, expected.model)
    _agree(actual.diagnostics, expected.diagnostics)


@ORACLE
@given(st.lists(object_line(), max_size=8))
def test_object_lines_match_the_oracle(lines):
    """Each line on its own after the declarations, so that one bad line
    does not hide what the others parse to."""
    head = "".join(f"object {oid} : K\n" for oid in DECLARED)
    for line in lines:
        _agree_on_objects(f"@startobjects\n{head}{line}\n@endobjects\n")


@ORACLE
@given(object_text())
def test_object_reader_matches_the_oracle(text):
    _agree_on_objects(text)


@ORACLE
@given(st.lists(scenario_line(), max_size=6).map("\n".join))
def test_scenario_reader_matches_the_oracle(text):
    steps, diagnostics = parse_scenario(text)
    expected_steps, expected_diagnostics = reader_oracle.parse_scenario(text)
    _agree(steps, expected_steps)
    _agree(diagnostics, expected_diagnostics)


# Lines each reader must treat as the old reader did, whatever the
# generators happen to draw.
OBJECT_CASES = [
    'a.p = "plain"', 'a.p = "tab\there"', 'a.p = "q\\"x"', 'a.p = "\\u00e9"',
    "a.p = 12", "a.p = -٣", "a.p = ５", "a.p = ²", "a.p = 1e999", "a.p = 2.5",
    'a.p = "a" "b"', "a.p = x", "a.p = 1\na.p = 2", "a.p = bad\na.p = 1",
    "z.p = 1", "object a : B", "link a -- z : r", "a.p = \"O'Brien\" ' comment",
    "a.p = " + "7" * 4300, "a.p = -" + "7" * 4300, "a.p = " + "7" * 4301,
    "a.p = -" + "7" * 4301, "a.p = ٣" * 4301,
    "object é : A", "object a· : A", "object ａ : A", "object ab : é", "link a -- a : é",
]
SCENARIO_CASES = [
    'go x="a"y=2', "go x=1y=2", "go x=1 y=2", 'go x="a b" y="c\\"d"',
    "go x=\t-7\xa0y=٣", "go x=1e999", "go x=1.5 y=true z=null w=E::X",
    "go x=", "go =1", "go x=1 # comment", "1go x=1", 'go x="a#b"', "go x=1 y",
    "go x=" + "7" * 4300, "go x=-" + "7" * 4301 + " y=1", "go x=" + "7" * 4301 + "y",
]


@pytest.mark.parametrize("line", OBJECT_CASES)
def test_object_cases_match_the_oracle(line):
    """`line` between a declaration of `a` and a link."""
    _agree_on_objects(f"@startobjects\nobject a : A\n{line}\nlink a -- a : r\n@endobjects\n")


@pytest.mark.parametrize("line", SCENARIO_CASES)
def test_scenario_cases_match_the_oracle(line):
    _agree(parse_scenario(line + "\n"), reader_oracle.parse_scenario(line + "\n"))


# Declarations after which the object reader knows, as the pattern matched
# them, every classifier, property and association name the object lines
# and cases use, so that later lines may take its split-only path.
OBJECT_NAMES = DECLARED + ["c", "K", "A", "B", "p", "q", "r2", "r", "z"]
OBJECT_PRIME = "".join(f"object w{i} : {name}\n" for i, name in enumerate(OBJECT_NAMES))



@pytest.mark.parametrize("line", OBJECT_CASES)
def test_object_cases_match_the_oracle_after_a_prime(line):
    """Each case after the prime, twice: the second read of it finds the
    slot or object the first one read."""
    _agree_on_objects(f"@startobjects\n{OBJECT_PRIME}object a : A\n{line}\n{line}\n"
                      "link a -- a : r\nlink a -- a : r\n@endobjects\n")


@ORACLE
@given(object_text())
def test_object_reader_matches_the_oracle_after_a_prime(text):
    start = "@startobjects\n"
    primed = start + OBJECT_PRIME + text[len(start):] if text.startswith(start) \
        else OBJECT_PRIME + text
    _agree_on_objects(primed)


@ORACLE
@given(st.lists(object_line(), max_size=8))
def test_object_lines_match_the_oracle_after_a_prime(lines):
    head = "".join(f"object {oid} : K\n" for oid in DECLARED)
    for line in lines:
        _agree_on_objects(f"@startobjects\n{OBJECT_PRIME}{head}{line}\n{line}\n@endobjects\n")


def test_every_unicode_blank_separates_object_statements_as_the_oracle_does():
    """`str.split` and the statement pattern's `\\s` agree on what a blank is,
    in each of the three statements the split-only path reads."""
    blanks = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(blanks) > 20
    lines = []
    for k, blank in enumerate(blanks):
        o = f"o{k}"
        lines += [f"object{blank}{o}{blank}:{blank}K", f"{o}.p{blank}={blank}\"v{blank}w\"",
                  f"{o}.q{blank}={blank}12", f"{o}.r2 ={blank}{blank}\"x\"",
                  f"link{blank}{o}{blank}--{blank}a{blank}:{blank}r",
                  f"link {o} --{blank}{o}{blank}{blank}: r", f"object{blank}{o}_{blank}:K"]
    _agree_on_objects("@startobjects\n" + OBJECT_PRIME + "object a : K\n"
                      + "\n".join(lines) + "\n@endobjects\n")


def test_the_statement_pattern_reads_only_the_first_sighting_of_a_name(monkeypatch):
    """500 passports and 1 000 stages with the same two properties and one
    association: the pattern reads the first statement that names each
    classifier, property or association, and `split` reads every other."""
    import modelkit.objtext

    calls = []
    pattern = modelkit.objtext._STATEMENT_RE

    class Counting:
        def fullmatch(self, line):
            calls.append(line)
            return pattern.fullmatch(line)

    monkeypatch.setattr(modelkit.objtext, "_STATEMENT_RE", Counting())
    lines = ["@startobjects"]
    for i in range(500):
        lines += [f"object p{i} : Passport", f'p{i}.code = "DPP-{i:04}"', f"p{i}.year = {i}"]
        for k in (2 * i, 2 * i + 1):
            lines += [f"object s{k} : Stage", f's{k}.code = "S {k}"',
                      f"link p{i} -- s{k} : stages"]
    text = "\n".join(lines + ["@endobjects"]) + "\n"
    result = parse_object_model(text, ClassModel(name="m"))
    assert result.diagnostics == [] and len(result.model.objects) == 1500
    assert calls == ["object p0 : Passport", 'p0.code = "DPP-0000"', "p0.year = 0",
                     "object s0 : Stage", "link p0 -- s0 : stages"]
    objects, links = result.model.objects, result.model.links
    assert len({id(o.classifier) for o in objects}) == 2
    assert len({id(slot.property_name) for o in objects for slot in o.slots}) == 2
    assert len({id(link.association_name) for link in links}) == 1
    _agree(result.model, reader_oracle.parse_object_model(text).model)


# A first line after which the reader knows the event `go`, every key the
# generated lines use and some small integers, so that later lines may take
# its split-only path.
PRIME = "go x=1 y=2 label=3 x_1=-7 _=0 tick=5\n"


@pytest.mark.parametrize("line", SCENARIO_CASES)
def test_scenario_cases_match_the_oracle_after_a_prime(line):
    """Each case after the prime, twice: the second read of it finds what
    the first one checked."""
    text = PRIME + line + "\n" + line + "\n"
    _agree(parse_scenario(text), reader_oracle.parse_scenario(text))


@ORACLE
@given(st.lists(scenario_line(), max_size=30).map("\n".join))
def test_scenario_reader_matches_the_oracle_after_a_prime(text):
    _agree(parse_scenario(PRIME + text), reader_oracle.parse_scenario(PRIME + text))


def test_every_unicode_blank_separates_payload_items_as_the_oracle_does():
    """`str.split` and the payload pattern's `\\s` agree on what a blank is."""
    blanks = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(blanks) > 20
    lines = []
    for blank in blanks:
        lines += [f"go{blank}x=1{blank}y=2", f"tick x=1{blank}label=3{blank}",
                  f"go x=1{blank}y=2z=3", f"go x=1{blank}{blank}y", f"go{blank}x=-7"]
    text = PRIME + "\n".join(lines * 2) + "\n"
    _agree(parse_scenario(text), reader_oracle.parse_scenario(text))


def test_a_repeated_line_is_read_without_the_payload_pattern(monkeypatch):
    """Only the first of 1 000 equal lines goes through the item pattern;
    each later one is read by `split` from what the first one checked."""
    import modelkit.fsm

    calls = []
    pattern = modelkit.fsm._PAYLOAD_ITEM_RE

    class Counting:
        def match(self, *args):
            calls.append(args)
            return pattern.match(*args)

    monkeypatch.setattr(modelkit.fsm, "_PAYLOAD_ITEM_RE", Counting())
    steps, diagnostics = parse_scenario("go x=1 y=-20 label=3\n" * 1000)
    assert diagnostics == [] and len(steps) == 1000
    assert steps[-1] == ("go", {"x": IntV(1), "y": IntV(-20), "label": IntV(3)})
    assert len(calls) == 3


@ORACLE
@given(st.text())
def test_render_value_writes_what_json_dumps_writes(s):
    assert render_value(StrV(s)) == json.dumps(s, ensure_ascii=False)


# Machine text: the statements' keywords, identifiers, arrows, guards and
# comments, in and out of their places.
DECLARED_NAMES = ["S", "T", "go", "x_1", "_", "xé", "on", "when", "state"]
NAME = st.sampled_from(DECLARED_NAMES + ["1a", "a-b"])
GAP = st.sampled_from([" ", " ", "  ", "\t", " \t", "\xa0"])
MAYBE_GAP = st.sampled_from(["", "", " ", "\t"])
GOOD_GUARDS = ["x > 1", "x + 1 = 2 and y", "'#' = s", "true", " x = 1 ", "9" * 4300]
GUARD = st.sampled_from(GOOD_GUARDS + ["(", "x >", "not", "x -> size()", "1 " * 3,
                                       "9" * 4301])
MACHINE_WORD = st.sampled_from(["machine", "state", "initial", "event", "trans",
                                "action", "on", "when", "->", "-", ">", "#", "# note",
                                "'#'", '"#"', "=", "S", "go"])


@st.composite
def machine_line(draw, kinds=("machine", "state", "initial", "event", "trans", "trans",
                              "trans", "words"), names=NAME, guards=GUARD):
    kind = draw(st.sampled_from(kinds))
    if kind == "state":
        line = f"state{draw(GAP)}{draw(names)}"
        if draw(st.booleans()):
            line += f"{draw(GAP)}action{draw(GAP)}{draw(names)}"
    elif kind == "trans":
        line = (f"trans{draw(GAP)}{draw(names)}{draw(MAYBE_GAP)}->{draw(MAYBE_GAP)}"
                f"{draw(names)}{draw(GAP)}on{draw(GAP)}{draw(names)}")
        if draw(st.booleans()):
            line += f"{draw(GAP)}when{draw(GAP)}{draw(guards)}"
    elif kind == "words":
        line = "".join(w + draw(MAYBE_GAP) for w in draw(st.lists(MACHINE_WORD,
                                                                  max_size=6)))
    else:
        line = f"{kind}{draw(GAP)}{draw(names)}"
    return draw(MAYBE_GAP) + line + draw(st.sampled_from(["", "", " ", " # c", "#"]))


@ORACLE
@given(st.lists(machine_line(), max_size=10).map("\n".join))
def test_machine_reader_matches_the_oracle(text):
    assert repr(parse_machine(text)) == repr(reader_oracle.parse_machine(text))


@ORACLE
@given(st.lists(machine_line(("initial", "event", "trans", "trans"),
                             st.sampled_from(DECLARED_NAMES), st.sampled_from(GOOD_GUARDS)),
                max_size=10))
def test_a_valid_machine_reads_as_the_oracle_reads_it(lines):
    """Well-formed statements after a declaration of every name they use,
    so that validation passes and the machines themselves are compared."""
    head = ["machine m", "initial S"] + [f"state {n} action do_{n}\nstate {n}_\nevent {n}"
                                         for n in DECLARED_NAMES]
    text = "\n".join(head + lines)
    assert repr(parse_machine(text)) == repr(reader_oracle.parse_machine(text))


# Class-model declarations: the notation's keywords, arrows, quoted
# multiplicities, braces and names, in and out of their places.
MULT = st.sampled_from(['"1"', '"*"', '"0..1"', '"1..*"', '"2..5"', '""', '"a b"', '"'])
CONN = st.sampled_from(["--", "*--", "--*", "<|--", "-", "*-*", "<|-"])
DECL_WORD = st.sampled_from(["class", "abstract", "enum", "interface", "{", "}", "--",
                             "*--", "--*", "<|--", '"1"', '"0..*"', ":", "A", "B_2",
                             "<<x>>", "note", "r"])


@st.composite
def declaration_line(draw):
    kind = draw(st.sampled_from(["class", "enum", "generalization", "association",
                                 "association", "words"]))
    if kind == "class":
        line = (draw(st.sampled_from(["", "abstract ", "abstract\t", "abstract"]))
                + f"class{draw(GAP)}{draw(NAME)}{draw(MAYBE_GAP)}"
                + draw(st.sampled_from(["{", "{", "", "{}", "{ x"])))
    elif kind == "enum":
        line = f"enum{draw(GAP)}{draw(NAME)}{draw(MAYBE_GAP)}" + draw(
            st.sampled_from(["{", "{", "", "}"]))
    elif kind == "generalization":
        line = f"{draw(NAME)}{draw(MAYBE_GAP)}<|--{draw(MAYBE_GAP)}{draw(NAME)}"
    elif kind == "association":
        line = draw(NAME) + draw(MAYBE_GAP)
        if draw(st.booleans()):
            line += draw(MULT) + draw(MAYBE_GAP)
        line += draw(CONN) + draw(MAYBE_GAP)
        if draw(st.booleans()):
            line += draw(MULT) + draw(MAYBE_GAP)
        line += draw(NAME)
        if draw(st.booleans()):
            line += f"{draw(MAYBE_GAP)}:{draw(MAYBE_GAP)}{draw(NAME)}"
    else:
        line = "".join(w + draw(MAYBE_GAP) for w in draw(st.lists(DECL_WORD, max_size=7)))
    return line.strip()


# Each statement's groups in `_DECL_RE`, by the name the old pattern gave
# it; the first is the one that captures whenever the statement matches.
DECL_GROUPS = {
    "class": {"cls": "name", "abstract": "abstract"},
    "enum": {"enum": "name"},
    "generalization": {"general": "general", "specific": "specific"},
    "association": {g: g for g in ("left", "m0", "conn", "m1", "right", "name")},
}


def one_pattern_declaration(line):
    """`_DECL_RE`'s reading of `line` in the form `match_declaration` gives;
    a group outside the statement matched must not capture."""
    m = _DECL_RE.fullmatch(line)
    if m is None:
        return None
    groups = m.groupdict()
    kind = next(kind for kind, names in DECL_GROUPS.items()
                if groups[next(iter(names))] is not None)
    for other, names in DECL_GROUPS.items():
        if other != kind:
            assert all(groups[name] is None for name in names), (line, other)
    return kind, {old: groups[new] for new, old in DECL_GROUPS[kind].items()}


@ORACLE
@given(st.lists(declaration_line(), min_size=1, max_size=8))
def test_the_declaration_pattern_picks_what_the_old_patterns_picked(lines):
    for line in lines:
        assert one_pattern_declaration(line) == reader_oracle.match_declaration(line), line
