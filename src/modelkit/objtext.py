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
    PLAIN_CHARS,
    ParseResult,
    SAFE_DIGITS,
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

# A string with nothing to escape: render_value writes it between quotes as
# is, and parse_value reads it back so, without json.
_PLAIN_RE = re.compile(PLAIN_CHARS)

# Object, slot and link statements, tried in that order.
_STATEMENT_RE = re.compile(
    r"object\s+(?P<oid>[A-Za-z_]\w*)\s*:\s*(?P<classifier>[A-Za-z_]\w*)"
    r"|(?P<sid>[A-Za-z_]\w*)\.(?P<prop>[A-Za-z_]\w*)\s*=\s*(?P<value>.+)"
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
        plain = text[1:-1]
        if len(text) > 1 and text.endswith('"') and _PLAIN_RE.fullmatch(plain):
            return StrV(plain)
        import json  # deferred: a string with nothing to escape needs none
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
    """The literal for `value`; ValueError for a float that is not finite,
    an integer of more than MAX_DIGITS digits and a string holding a high
    surrogate followed by a low one, which JSON reads as one character."""
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
        if re.search("[\ud800-\udbff][\udc00-\udfff]", text):
            raise ValueError("the notation has no literal for a surrogate pair")
        import json
        # A lone surrogate has no UTF-8 form: it is written as its \udXXX escape.
        text = json.dumps(text, ensure_ascii=False)
        return text.encode("utf-8", "backslashreplace").decode("utf-8")
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
    objects, links, by_id = [], [], {}
    assigned: set[str] = set()  # the `id.prop` of every slot read
    # Each classifier, property and association name the pattern has
    # matched in this read, mapped to the one string every record shares.
    names: dict[str, str] = {}

    def err(code: str, message: str, lineno: int) -> None:
        diagnostics.append(error(code, message, SourceSpan(filename, lineno)))

    for lineno, line in read_envelope(read_lines(text, "'"), text.count("\n") + 1,
                                      "@startobjects", "@endobjects", err):
        # A statement made of names in `names`, a new ASCII id or declared
        # ones, and a plain string or a short unsigned integer is read by
        # `split` alone.
        parts = line.split()
        n = len(parts)
        if n == 4 and parts[0] == "object" and parts[2] == ":" and parts[3] in names:
            oid = parts[1]
            if oid.isascii() and oid.isidentifier() and oid not in by_id:
                by_id[oid] = obj = ObjectDef(oid, names[parts[3]], None, lineno)
                objects.append(obj)
                continue
        elif (n == 6 and parts[0] == "link" and parts[2] == "--" and parts[4] == ":"
              and parts[1] in by_id and parts[3] in by_id and parts[5] in names):
            links.append(Link(names[parts[5]], (by_id[parts[1]].id, by_id[parts[3]].id),
                              lineno))
            continue
        elif n > 2 and parts[1] == "=" and parts[0] not in assigned:
            sid, _, prop = parts[0].partition(".")
            if sid in by_id and prop in names:
                literal = parts[2] if n == 3 else line.partition("=")[2].lstrip()
                plain = literal[1:-1]
                if (literal[0] == literal[-1] == '"' and len(literal) > 1 and '"' not in plain
                        and "\\" not in plain and plain.isprintable()):
                    value = StrV(plain)
                elif literal.isdecimal() and len(literal) <= SAFE_DIGITS:
                    value = IntV(int(literal))
                else:
                    value = None
                if value is not None:
                    by_id[sid].slots.append(AttributeLink(names[prop], value, lineno))
                    assigned.add(parts[0])
                    continue

        m = _STATEMENT_RE.fullmatch(line)
        if m is None:
            err("syntax", f"unrecognized statement: {line}", lineno)
            continue
        oid, classifier, sid, prop, literal, a, b, assoc = m.groups()
        name = classifier or prop or assoc  # the statement's one name that `names` keeps
        name = names.setdefault(name, name)
        if oid is not None:
            if oid in by_id:
                err("dup-object", f"object '{oid}' declared twice", lineno)
                continue
            by_id[oid] = obj = ObjectDef(oid, name, None, lineno)
            objects.append(obj)
        elif sid is not None:
            obj = by_id.get(sid)
            if obj is None:
                err("unknown-object", f"slot assigned to undeclared object '{sid}'",
                    lineno)
                continue
            key = f"{sid}.{prop}"
            if key in assigned:
                err("dup-slot", f"slot '{key}' assigned twice", lineno)
                continue
            value = parse_value(literal)
            if value is None:
                err("bad-value", f"malformed value for '{key}': {literal.strip()}", lineno)
                continue
            obj.slots.append(AttributeLink(name, value, lineno))
            assigned.add(key)
        else:
            missing = [o for o in (a, b) if o not in by_id]
            if missing:
                err("unknown-object",
                    f"link references undeclared object '{missing[0]}'", lineno)
                continue
            links.append(Link(name, (by_id[a].id, by_id[b].id), lineno))

    return ParseResult(ObjectModel(objects, links, filename)
                       if not has_errors(diagnostics) else None, diagnostics)


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
