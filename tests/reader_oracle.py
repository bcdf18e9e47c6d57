"""Reference readers for object text, scenarios and machines, and the
class-model declaration patterns.

Naive code kept as the readers were before they matched each line once:
one regex per statement kind, tried in turn, `json.loads` for every
string, a linear scan for duplicate slots, and a string pattern for event
names.  It shares only the line reader (`read_lines`, `read_envelope`),
the diagnostic constructors, the model records and, for machines, the
guard parser and `validate_machine` with `modelkit`; the readers' fast
paths are tested against it and must never be folded in.

The deliberate changes from the old code are two documented rules: a
float literal which overflows to infinity is malformed, and so is an
integer literal of more than 4 300 digits.
"""

import json
import math
import re

from modelkit.diagnostics import (
    JSON_STRING,
    ParseResult,
    SourceSpan,
    error,
    has_errors,
    read_envelope,
    read_lines,
)
from modelkit.fsm import State, StateMachine, Transition, validate_machine
from modelkit.metamodel import AttributeLink, EnumV, Link, ObjectDef, ObjectModel
from modelkit.ocl.parser import parse_expression

_OBJECT_RE = re.compile(
    r"^object\s+(?P<id>[A-Za-z_]\w*)\s*:\s*(?P<class>[A-Za-z_]\w*)$")
_SLOT_RE = re.compile(
    r"^(?P<id>[A-Za-z_]\w*)\.(?P<prop>[A-Za-z_]\w*)\s*=\s*(?P<value>.+)$")
_LINK_RE = re.compile(
    r"^link\s+(?P<a>[A-Za-z_]\w*)\s*--\s*(?P<b>[A-Za-z_]\w*)"
    r"\s*:\s*(?P<assoc>[A-Za-z_]\w*)$")

_INT_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^-?(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)$")
_ENUM_RE = re.compile(r"^(?P<enum>[A-Za-z_]\w*)::(?P<lit>[A-Za-z_]\w*)$")

# What parse_value gives for a malformed literal: None is null.
MALFORMED = object()


def parse_value(text):
    text = text.strip()
    if text == "null":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    if _INT_RE.match(text):
        if len(text.lstrip("-")) > 4300:
            return MALFORMED
        return int(text)
    if _FLOAT_RE.match(text):
        number = float(text)
        return MALFORMED if math.isinf(number) else number
    if text.startswith('"'):
        try:
            decoded = json.loads(text)
        except ValueError:
            return MALFORMED
        return decoded if isinstance(decoded, str) else MALFORMED
    m = _ENUM_RE.match(text)
    if m:
        return EnumV(m.group("enum"), m.group("lit"))
    return MALFORMED


def parse_object_model(text, filename="<input>"):
    diagnostics = []
    result = ObjectModel(file=filename)
    by_id = {}

    def err(code, message, lineno):
        diagnostics.append(error(code, message, SourceSpan(filename, lineno)))

    for lineno, line in read_envelope(read_lines(text, "'"), text.count("\n") + 1,
                                      "@startobjects", "@endobjects", err):
        m = _OBJECT_RE.match(line)
        if m:
            oid = m.group("id")
            if oid in by_id:
                err("dup-object", f"object '{oid}' declared twice", lineno)
                continue
            obj = ObjectDef(id=oid, classifier=m.group("class"), line=lineno)
            by_id[oid] = obj
            result.objects.append(obj)
            continue

        m = _SLOT_RE.match(line)
        if m:
            oid = m.group("id")
            obj = by_id.get(oid)
            if obj is None:
                err("unknown-object", f"slot assigned to undeclared object '{oid}'",
                    lineno)
                continue
            prop = m.group("prop")
            if obj.slot(prop) is not None:
                err("dup-slot", f"slot '{oid}.{prop}' assigned twice", lineno)
                continue
            value = parse_value(m.group("value"))
            if value is MALFORMED:
                err("bad-value", f"malformed value for '{oid}.{prop}': "
                    f"{m.group('value').strip()}", lineno)
                continue
            obj.slots.append(AttributeLink(property_name=prop, value=value, line=lineno))
            continue

        m = _LINK_RE.match(line)
        if m:
            missing = [o for o in (m.group("a"), m.group("b")) if o not in by_id]
            if missing:
                err("unknown-object",
                    f"link references undeclared object '{missing[0]}'", lineno)
                continue
            result.links.append(Link(
                association_name=m.group("assoc"),
                ends=(m.group("a"), m.group("b")),
                line=lineno))
            continue

        err("syntax", f"unrecognized statement: {line}", lineno)

    return ParseResult(result if not has_errors(diagnostics) else None, diagnostics)


_PAYLOAD_RE = re.compile(rf"(?P<key>[A-Za-z_]\w*)=(?P<value>{JSON_STRING}|\S+)")


def parse_scenario(text, filename="<scenario>"):
    steps = []
    diagnostics = []
    for lineno, line in read_lines(text, "#"):
        parts = line.split(None, 1)
        event = parts[0]
        if not re.match(r"^[A-Za-z_]\w*$", event):
            diagnostics.append(error("syntax", f"malformed event name '{event}'",
                                     SourceSpan(filename, lineno)))
            continue
        payload = {}
        rest = parts[1] if len(parts) > 1 else ""
        pos = 0
        ok = True
        while pos < len(rest):
            if rest[pos].isspace():
                pos += 1
                continue
            m = _PAYLOAD_RE.match(rest, pos)
            if m is None:
                diagnostics.append(error(
                    "syntax", f"malformed payload near: {rest[pos:]}",
                    SourceSpan(filename, lineno)))
                ok = False
                break
            value = parse_value(m.group("value"))
            if value is MALFORMED:
                diagnostics.append(error(
                    "bad-value",
                    f"malformed payload value for '{m.group('key')}'",
                    SourceSpan(filename, lineno)))
                ok = False
                break
            payload[m.group("key")] = value
            pos = m.end()
        if ok:
            steps.append((event, payload))
    return steps, diagnostics


_MACHINE_RE = re.compile(r"^machine\s+(?P<name>[A-Za-z_]\w*)$")
_STATE_RE = re.compile(
    r"^state\s+(?P<name>[A-Za-z_]\w*)(?:\s+action\s+(?P<action>[A-Za-z_]\w*))?$")
_INITIAL_RE = re.compile(r"^initial\s+(?P<name>[A-Za-z_]\w*)$")
_EVENT_RE = re.compile(r"^event\s+(?P<name>[A-Za-z_]\w*)$")
_TRANS_RE = re.compile(
    r"^trans\s+(?P<src>[A-Za-z_]\w*)\s*->\s*(?P<dst>[A-Za-z_]\w*)"
    r"\s+on\s+(?P<event>[A-Za-z_]\w*)(?:\s+when\s+(?P<guard>.+))?$")


def parse_machine(text, filename="<machine>"):
    diagnostics = []
    machine = StateMachine(name="machine")

    def err(message, lineno, code="syntax"):
        diagnostics.append(error(code, message, SourceSpan(filename, lineno)))

    named = False
    for lineno, line in read_lines(text, "#"):
        m = _MACHINE_RE.match(line)
        if m:
            if named:
                err("machine name declared twice", lineno)
            machine.name = m.group("name")
            named = True
            continue
        m = _STATE_RE.match(line)
        if m:
            machine.states.append(State(name=m.group("name"),
                                        body_action=m.group("action")))
            continue
        m = _INITIAL_RE.match(line)
        if m:
            machine.initial_state = m.group("name")
            continue
        m = _EVENT_RE.match(line)
        if m:
            if m.group("name") not in machine.events:
                machine.events.append(m.group("name"))
            continue
        m = _TRANS_RE.match(line)
        if m:
            guard_text = m.group("guard")
            guard = None
            if guard_text is not None:
                guard, guard_diags = parse_expression(guard_text.strip(), filename)
                if guard is None:
                    err(f"malformed guard: {guard_diags[0].message}", lineno)
                    continue
            machine.transitions.append(Transition(
                source=m.group("src"), target=m.group("dst"),
                event=m.group("event"), guard=guard,
                guard_text=guard_text.strip() if guard_text else None))
            continue
        err(f"unrecognized statement: {line}", lineno)

    if not named:
        err("missing machine declaration", 1)
    if not has_errors(diagnostics):
        diagnostics.extend(validate_machine(machine))
    return ParseResult(machine if not has_errors(diagnostics) else None,
                       diagnostics)


# The class-model reader's declaration patterns, in the order it tried them.
_PUML_CLASS_RE = re.compile(
    r"^(?P<abstract>abstract\s+)?class\s+(?P<name>[A-Za-z_]\w*)\s*\{$")
_PUML_ENUM_RE = re.compile(r"^enum\s+(?P<name>[A-Za-z_]\w*)\s*\{$")
_PUML_GEN_RE = re.compile(
    r"^(?P<general>[A-Za-z_]\w*)\s*<\|--\s*(?P<specific>[A-Za-z_]\w*)$")
_PUML_ASSOC_RE = re.compile(
    r'^(?P<left>[A-Za-z_]\w*)\s*(?:"(?P<m0>[^"]*)"\s*)?'
    r"(?P<conn>\*--|--\*|--)"
    r'\s*(?:"(?P<m1>[^"]*)"\s*)?(?P<right>[A-Za-z_]\w*)'
    r"\s*(?::\s*(?P<name>[A-Za-z_]\w*))?$")


def match_declaration(line):
    """("class" | "enum" | "generalization" | "association", the groups of
    the first pattern that matches `line`), or None when none does."""
    for kind, pattern in (("class", _PUML_CLASS_RE), ("enum", _PUML_ENUM_RE),
                          ("generalization", _PUML_GEN_RE),
                          ("association", _PUML_ASSOC_RE)):
        m = pattern.match(line)
        if m:
            return kind, m.groupdict()
    return None
