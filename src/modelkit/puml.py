"""Textual class-model syntax: a PlantUML subset.

Supported declarations between @startuml/@enduml:

    [abstract] class Name {            attributes: `name : type [{id}]`,
      code : str {id}                  optional +/-/# visibility marker
    }                                  (accepted and ignored)
    enum Name { LIT ... }
    A "1" -- "0..*" B : name           association (also *-- / --* for
    A <|-- B                           composition); generalization, with
                                       the general class on the left

Multiplicities: "1", "*", "0..1", "1..*", "n..m"; absent means "*".
Unnamed associations get a generated `<EndA>_<EndB>_<k>` name.
Comments run from an apostrophe outside a double-quoted string to end of
line.  Anything else is reported as `unsupported-construct` and parsing
resumes at the next declaration, so one pass collects every error it can.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from modelkit.diagnostics import (
    Diagnostic,
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
    Association,
    AssociationEnd,
    ClassDef,
    ClassModel,
    EnumDef,
    Generalization,
    Multiplicity,
    Property,
)
from modelkit.index import validate_class_model


# PlantUML constructs we recognize but deliberately do not model.
_FOREIGN_KEYWORDS = (
    "interface", "note", "package", "namespace", "skinparam", "title",
    "hide", "show", "legend", "actor", "usecase", "participant", "entity",
    "left", "right", "together", "@startmindmap", "@startgantt",
)

# Class, enum, generalization and association declarations, tried in that
# order.
_DECL_RE = re.compile(
    r"(?P<abstract>abstract\s+)?class\s+(?P<cls>[A-Za-z_]\w*)\s*\{"
    r"|enum\s+(?P<enum>[A-Za-z_]\w*)\s*\{"
    r"|(?P<general>[A-Za-z_]\w*)\s*<\|--\s*(?P<specific>[A-Za-z_]\w*)"
    r'|(?P<left>[A-Za-z_]\w*)\s*(?:"(?P<m0>[^"]*)"\s*)?(?P<conn>\*--|--\*|--)'
    r'\s*(?:"(?P<m1>[^"]*)"\s*)?(?P<right>[A-Za-z_]\w*)'
    r"\s*(?::\s*(?P<name>[A-Za-z_]\w*))?")
_ATTR_RE = re.compile(
    r"^(?:[+\-#]\s*)?(?P<name>[A-Za-z_]\w*)\s*:\s*(?P<type>[A-Za-z_]\w*)"
    r"\s*(?P<id>\{id\})?$")
_LITERAL_RE = re.compile(r"^[A-Za-z_]\w*$")
_MULT_RE = re.compile(r"^(?:(?P<star>\*)|(?P<single>\d+)|(?P<lo>\d+)\.\.(?P<hi>\d+|\*))$")


def _parse_multiplicity(spec: str) -> Optional[Multiplicity]:
    m = _MULT_RE.match(spec.strip())
    if m is None:
        return None
    star, single, lo, hi = m.groups()
    if star:
        return Multiplicity(0, None)
    lower = read_int(single or lo)
    upper = None if hi == "*" else read_int(single or hi)
    if lower is None or upper is None and hi != "*":
        return None  # a bound of more than MAX_DIGITS digits
    return Multiplicity(lower, upper)


def render_multiplicity(m: Multiplicity) -> str:
    """The multiplicity's literal; ValueError for a bound of more than
    MAX_DIGITS digits."""
    if m.upper is not None and m.lower == m.upper:
        return int_literal(m.lower)
    upper = "*" if m.upper is None else int_literal(m.upper)
    return f"{int_literal(m.lower)}..{upper}"


def parse_class_model(text: str, filename: str = "<input>") -> ParseResult:
    """Parse class-model text; the model is present iff there are no errors."""
    diagnostics: list[Diagnostic] = []
    model = ClassModel(name="model")
    unnamed_counters: dict[tuple[str, str], int] = {}
    lines = read_lines(text, "'")
    last = text.count("\n") + 1

    def err(code: str, message: str, lineno: int) -> None:
        diagnostics.append(error(code, message, SourceSpan(filename, lineno)))

    def block(owner: Optional[str]) -> Iterator[tuple[int, str]]:
        """The lines of a body up to its closing `}`, taken from the lines
        the envelope reads, so an end marker inside a body is body text.
        A body never closed is reported for its `owner`, if given."""
        for lineno, line in lines:
            if line == "}":
                return
            yield lineno, line
        if owner is not None:
            err("syntax", f"{owner} body is never closed", last)

    for lineno, line in read_envelope(lines, last, "@startuml", "@enduml", err):
        m = _DECL_RE.fullmatch(line)
        if m is None:
            first = line.split()[0]
            if "<<" in line or first in _FOREIGN_KEYWORDS or first.startswith("@start"):
                err("unsupported-construct",
                    f"construct '{first}' is outside the supported subset", lineno)
            elif first in ("class", "abstract", "enum"):
                err("syntax", f"malformed {first} declaration", lineno)
                # Skip the body block, if one follows.
                if line.endswith("{"):
                    for _ in block(None):
                        pass
            else:
                err("syntax", f"unrecognized declaration: {line}", lineno)
            continue
        (abstract, cls_name, enum_name, general, specific,
         left, m0, conn, m1, right, name) = m.groups()
        if cls_name is not None:
            cls = ClassDef(name=cls_name, is_abstract=abstract is not None,
                           span=SourceSpan(filename, lineno))
            model.classes.append(cls)
            for body_lineno, body in block(f"class '{cls_name}'"):
                am = _ATTR_RE.match(body)
                if am is None:
                    err("syntax", f"malformed attribute in class '{cls_name}': {body}",
                        body_lineno)
                    continue
                cls.properties.append(Property(
                    name=am.group("name"), type_name=am.group("type"),
                    is_id=am.group("id") is not None, span=SourceSpan(filename, body_lineno)))
        elif enum_name is not None:
            enum = EnumDef(name=enum_name, span=SourceSpan(filename, lineno))
            model.enumerations.append(enum)
            for body_lineno, body in block(f"enum '{enum_name}'"):
                if _LITERAL_RE.match(body) is None:
                    err("syntax", f"malformed literal in enum '{enum_name}': {body}",
                        body_lineno)
                    continue
                enum.literals.append(body)
        elif general is not None:
            model.generalizations.append(Generalization(
                general=general, specific=specific, span=SourceSpan(filename, lineno)))
        else:
            mults = []
            for spec in (m0, m1):
                parsed = Multiplicity(0, None) if spec is None else _parse_multiplicity(spec)
                if parsed is None:
                    err("syntax", f"malformed multiplicity \"{spec}\"", lineno)
                    parsed = Multiplicity(0, None)
                mults.append(parsed)
            if name is None:
                key = (left, right)
                unnamed_counters[key] = unnamed_counters.get(key, 0) + 1
                name = f"{left}_{right}_{unnamed_counters[key]}"
            model.associations.append(Association(
                name=name,
                ends=(
                    AssociationEnd(target=left, multiplicity=mults[0],
                                   is_composite=(conn == "*--")),
                    AssociationEnd(target=right, multiplicity=mults[1],
                                   is_composite=(conn == "--*")),
                ),
                span=SourceSpan(filename, lineno)))

    if not has_errors(diagnostics):
        diagnostics.extend(validate_class_model(model))
    return ParseResult(model if not has_errors(diagnostics) else None, diagnostics)


def serialize_class_model(model: ClassModel) -> str:
    """Canonical text for a valid model; parsing it back yields an equal model.
    Raises ValueError for a model it cannot write that way: an invalid one,
    an association end with a role, or a bound too long to read back.

    Declarations are emitted in model order (classes, enumerations,
    associations, generalizations), attributes one per line at two-space
    indent, multiplicities always explicit.
    """
    problems = validate_class_model(model)
    if has_errors(problems):
        raise ValueError("cannot serialize invalid model: "
                         + "; ".join(d.message for d in problems[:3]))
    out: list[str] = ["@startuml"]
    for cls in model.classes:
        prefix = "abstract class" if cls.is_abstract else "class"
        out.append(f"{prefix} {cls.name} {{")
        for prop in cls.properties:
            suffix = " {id}" if prop.is_id else ""
            out.append(f"  {prop.name} : {prop.type_name}{suffix}")
        out.append("}")
    for enum in model.enumerations:
        out.append(f"enum {enum.name} {{")
        for lit in enum.literals:
            out.append(f"  {lit}")
        out.append("}")
    for assoc in model.associations:
        e0, e1 = assoc.ends
        conn = "*--" if e0.is_composite else "--*" if e1.is_composite else "--"
        mults = []
        for j, end in enumerate(assoc.ends):
            try:
                if end.role is not None:  # parsing it back would drop the role
                    raise ValueError(f"role '{end.role}' has no syntax in the notation")
                mults.append(render_multiplicity(end.multiplicity))
            except ValueError as exc:
                raise ValueError(f"cannot write end {j} ('{end.target}') of association "
                                 f"'{assoc.name}': {exc}") from None
        out.append(f'{e0.target} "{mults[0]}" {conn} "{mults[1]}" {e1.target} : {assoc.name}')
    for gen in model.generalizations:
        out.append(f"{gen.general} <|-- {gen.specific}")
    out.append("@enduml")
    return "\n".join(out) + "\n"
