"""Textual object-model syntax.

A population lives between @startobjects/@endobjects, one statement per
line:

    object p1 : ProductPassport        declares an instance
    p1.code = "DPP-001"                assigns a slot value
    link p1 -- s1 : stages             links two objects via an association

Slot values: integers, floats, double-quoted strings (JSON escaping),
true/false, null, and qualified enum literals `Color::RED`.  Objects must
be declared before they are assigned or linked.  Comments run from an
apostrophe outside a string to end of line.

The parser checks syntax, duplicate ids, and duplicate slots only;
whether classifiers, properties, and associations actually exist is the
conformance checker's job.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from modelkit.diagnostics import (
    ParseResult,
    SourceSpan,
    error,
    has_errors,
    read_envelope,
    read_lines,
)
from modelkit.metamodel import (
    AttributeLink,
    BoolV,
    ClassModel,
    EnumV,
    FloatV,
    IntV,
    Link,
    LinkEnd,
    NULL,
    ObjectDef,
    ObjectModel,
    StrV,
    Value,
)

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


def parse_value(text: str) -> Optional[Value]:
    """Parse one slot-value literal; None when malformed."""
    text = text.strip()
    if text == "null":
        return NULL
    if text == "true":
        return BoolV(True)
    if text == "false":
        return BoolV(False)
    if _INT_RE.match(text):
        return IntV(int(text))
    if _FLOAT_RE.match(text):
        return FloatV(float(text))
    if text.startswith('"'):
        try:
            decoded = json.loads(text)
        except ValueError:
            return None
        return StrV(decoded) if isinstance(decoded, str) else None
    m = _ENUM_RE.match(text)
    if m:
        return EnumV(m.group("enum"), m.group("lit"))
    return None


def render_value(value: Value) -> str:
    if isinstance(value, IntV):
        return str(value.value)
    if isinstance(value, FloatV):
        return repr(value.value)
    if isinstance(value, StrV):
        return json.dumps(value.value, ensure_ascii=False)
    if isinstance(value, BoolV):
        return "true" if value.value else "false"
    if isinstance(value, EnumV):
        return f"{value.enum}::{value.literal}"
    return "null"


def parse_object_model(text: str, model: ClassModel,
                       filename: str = "<input>") -> ParseResult:
    """Parse object-model text; resolution against `model` is deferred to
    check_conformance, so the class model is accepted here without being
    consulted."""
    del model
    diagnostics = []
    result = ObjectModel(name="objects")
    by_id: dict[str, ObjectDef] = {}

    def err(code: str, message: str, lineno: int) -> None:
        diagnostics.append(error(code, message, SourceSpan(filename, lineno)))

    for lineno, line in read_envelope(read_lines(text, "'"), text.count("\n") + 1,
                                      "@startobjects", "@endobjects", err):
        m = _OBJECT_RE.match(line)
        if m:
            oid = m.group("id")
            if oid in by_id:
                err("dup-object", f"object '{oid}' declared twice", lineno)
                continue
            obj = ObjectDef(id=oid, classifier=m.group("class"),
                            span=SourceSpan(filename, lineno))
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
            if value is None:
                err("bad-value", f"malformed value for '{oid}.{prop}': "
                    f"{m.group('value').strip()}", lineno)
                continue
            obj.slots.append(AttributeLink(property_name=prop, value=value,
                                           span=SourceSpan(filename, lineno)))
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
                ends=(LinkEnd(m.group("a")), LinkEnd(m.group("b"))),
                span=SourceSpan(filename, lineno)))
            continue

        err("syntax", f"unrecognized statement: {line}", lineno)

    return ParseResult(result if not has_errors(diagnostics) else None, diagnostics)


def serialize_object_model(objects: ObjectModel) -> str:
    """Canonical text: object blocks (each with its slots) then all links."""
    out = ["@startobjects"]
    for obj in objects.objects:
        out.append(f"object {obj.id} : {obj.classifier}")
        for slot in obj.slots:
            out.append(f"{obj.id}.{slot.property_name} = {render_value(slot.value)}")
    for link in objects.links:
        out.append(f"link {link.ends[0].object_id} -- {link.ends[1].object_id} "
                   f": {link.association_name}")
    out.append("@endobjects")
    return "\n".join(out) + "\n"
