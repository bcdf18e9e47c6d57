"""Textual object-model syntax.

A population lives between @startobjects/@endobjects, one statement per
line:

    object p1 : ProductPassport        declares an instance
    p1.code = "DPP-001"                assigns a slot value
    link p1 -- s1 : stages             links two objects via an association

Slot values: integers, floats (one that overflows to infinity is
malformed, as JSON has no infinity), double-quoted strings (JSON
escaping), true/false, null, and qualified enum literals `Color::RED`.  Objects must
be declared before they are assigned or linked.  Comments run from an
apostrophe outside a string to end of line.

The parser checks syntax, duplicate ids, and duplicate slots only;
whether classifiers, properties, and associations actually exist is the
conformance checker's job.
"""

from __future__ import annotations

import math
import re
from typing import Optional

from modelkit.diagnostics import (
    INT_CHARS,
    PLAIN_CHARS,
    ParseResult,
    SourceSpan,
    error,
    has_errors,
    int_literal,
    read_envelope,
    read_int,
    read_lines,
)
from modelkit.metamodel import (
    AttributeLink,
    BoolV,
    ClassModel,
    EnumV,
    FALSE,
    FloatV,
    IntV,
    Link,
    NULL,
    ObjectDef,
    ObjectModel,
    StrV,
    TRUE,
    Value,
)

# The readers take a plain string or a short integer straight from their
# match, and any other value goes through parse_value, which reads a longer
# integer with read_int; render_value writes a plain string as is.
_PLAIN_RE = re.compile(PLAIN_CHARS)

# Object, slot and link statements, tried in that order.
_STATEMENT_RE = re.compile(
    r"object\s+(?P<oid>[A-Za-z_]\w*)\s*:\s*(?P<classifier>[A-Za-z_]\w*)"
    r"|(?P<sid>[A-Za-z_]\w*)\.(?P<prop>[A-Za-z_]\w*)\s*=\s*"
    rf'(?:"(?P<str>{PLAIN_CHARS})"|(?P<int>{INT_CHARS})|(?P<value>.+))'
    r"|link\s+(?P<a>[A-Za-z_]\w*)\s*--\s*(?P<b>[A-Za-z_]\w*)"
    r"\s*:\s*(?P<assoc>[A-Za-z_]\w*)")

_INT_RE = re.compile(r"^-?\d+$")
_FLOAT_RE = re.compile(r"^-?(?:\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)$")
_ENUM_RE = re.compile(r"^(?P<enum>[A-Za-z_]\w*)::(?P<lit>[A-Za-z_]\w*)$")


def parse_value(text: str) -> Optional[Value]:
    """Parse one slot-value literal; None when malformed."""
    text = text.strip()
    if text == "null":
        return NULL
    if text == "true":
        return TRUE
    if text == "false":
        return FALSE
    if _INT_RE.match(text):
        number = read_int(text)
        return None if number is None else IntV(number)
    if _FLOAT_RE.match(text):
        number = float(text)
        return None if math.isinf(number) else FloatV(number)
    if text.startswith('"'):
        import json  # deferred: the readers take plain strings from their match
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
    """The literal for `value`; ValueError for a float that is not finite
    and for an integer of more than MAX_DIGITS digits."""
    kind = type(value)
    if kind is IntV:
        return int_literal(value.value)
    if kind is FloatV:
        if not math.isfinite(value.value):
            raise ValueError(f"the notation has no literal for {value.value!r}")
        return repr(value.value)
    if kind is StrV:
        text = value.value
        if _PLAIN_RE.fullmatch(text):
            return '"' + text + '"'
        import json
        return json.dumps(text, ensure_ascii=False)
    if kind is BoolV:
        return "true" if value.value else "false"
    if kind is EnumV:
        return f"{value.enum}::{value.literal}"
    return "null"


def parse_object_model(text: str, model: ClassModel,
                       filename: str = "<input>") -> ParseResult:
    """Parse object-model text; resolution against `model` is deferred to
    check_conformance, so the class model is accepted here without being
    consulted."""
    del model
    diagnostics = []
    result = ObjectModel()
    by_id: dict[str, ObjectDef] = {}
    assigned: set[tuple[str, str]] = set()

    def err(code: str, message: str, lineno: int) -> None:
        diagnostics.append(error(code, message, SourceSpan(filename, lineno)))

    for lineno, line in read_envelope(read_lines(text, "'"), text.count("\n") + 1,
                                      "@startobjects", "@endobjects", err):
        m = _STATEMENT_RE.fullmatch(line)
        if m is None:
            err("syntax", f"unrecognized statement: {line}", lineno)
            continue
        oid, classifier, sid, prop, plain, digits, other, a, b, assoc = m.groups()
        if oid is not None:
            if oid in by_id:
                err("dup-object", f"object '{oid}' declared twice", lineno)
                continue
            obj = ObjectDef(oid, classifier, span=SourceSpan(filename, lineno))
            by_id[oid] = obj
            result.objects.append(obj)
        elif sid is not None:
            obj = by_id.get(sid)
            if obj is None:
                err("unknown-object", f"slot assigned to undeclared object '{sid}'",
                    lineno)
                continue
            if (sid, prop) in assigned:
                err("dup-slot", f"slot '{sid}.{prop}' assigned twice", lineno)
                continue
            if plain is not None:
                value = StrV(plain)
            elif digits is not None:
                value = IntV(int(digits))
            else:
                value = parse_value(other)
                if value is None:
                    err("bad-value", f"malformed value for '{sid}.{prop}': "
                        f"{other.strip()}", lineno)
                    continue
            obj.slots.append(AttributeLink(prop, value, SourceSpan(filename, lineno)))
            assigned.add((sid, prop))
        else:
            missing = [o for o in (a, b) if o not in by_id]
            if missing:
                err("unknown-object",
                    f"link references undeclared object '{missing[0]}'", lineno)
                continue
            result.links.append(Link(assoc, (by_id[a].id, by_id[b].id),
                                     SourceSpan(filename, lineno)))

    return ParseResult(result if not has_errors(diagnostics) else None, diagnostics)


def serialize_object_model(objects: ObjectModel) -> str:
    """Canonical text: object blocks (each with its slots) then all links.
    Raises ValueError on a float or integer slot the notation has no literal
    for and on a link with other than two ends."""
    out = ["@startobjects"]
    for obj in objects.objects:
        out.append(f"object {obj.id} : {obj.classifier}")
        for slot in obj.slots:
            try:
                out.append(f"{obj.id}.{slot.property_name} = {render_value(slot.value)}")
            except ValueError as exc:
                raise ValueError(f"cannot write slot '{obj.id}.{slot.property_name}': "
                                 f"{exc}") from None
    for link in objects.links:
        if len(link.ends) != 2:
            raise ValueError(f"cannot write link of '{link.association_name}' with "
                             f"{len(link.ends)} ends ({', '.join(link.ends)})"
                             ": the notation holds two")
        out.append(f"link {link.ends[0]} -- {link.ends[1]} : {link.association_name}")
    out.append("@endobjects")
    return "\n".join(out) + "\n"
