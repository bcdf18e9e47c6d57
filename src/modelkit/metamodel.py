"""Core model types: class models, object models, and values.

Models are plain slotted records (`diagnostics.Record`), treated as
immutable once built; every operation over them is a pure function.
Source spans attached by the text parsers are excluded from equality so
that structural comparison ignores where a model came from.
"""

from __future__ import annotations

import re
from typing import Optional

from modelkit.diagnostics import Diagnostic, Record, SourceSpan, error, int_text

IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def is_identifier(name: str) -> bool:
    return bool(IDENTIFIER_RE.match(name))


# ---------------------------------------------------------------------------
# Values

class Value(Record):
    """Base of the value union stored in object slots."""


def _same_value(self, other):
    # The one-field values compare directly: OCL's `=` calls this.
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (self.value,) == (other.value,)


class IntV(Value):
    """An integer slot value."""

    __eq__ = _same_value

    def __init__(self, value: int):
        self.value = value


class FloatV(Value):
    """A floating-point slot value."""

    __eq__ = _same_value

    def __init__(self, value: float):
        self.value = value


class StrV(Value):
    """A string slot value."""

    __eq__ = _same_value

    def __init__(self, value: str):
        self.value = value


class BoolV(Value):
    """A boolean slot value."""

    __eq__ = _same_value

    def __init__(self, value: bool):
        self.value = value


class EnumV(Value):
    """A qualified enumeration literal, `Enum::LITERAL`."""

    def __init__(self, enum: str, literal: str):
        self.enum, self.literal = enum, literal


class NullV(Value):
    """The null slot value; use the NULL singleton."""


NULL = NullV()
# Values are treated as immutable, so whatever yields a boolean shares one of
# these two: BOOLS[flag] is the value of a Python bool.
FALSE, TRUE = BoolV(False), BoolV(True)
BOOLS = (FALSE, TRUE)


# ---------------------------------------------------------------------------
# Class model

class Multiplicity(Record):
    """[lower, upper] bound on links at an association end; upper None = unbounded."""

    def __init__(self, lower: int = 0, upper: Optional[int] = None):
        self.lower, self.upper = lower, upper


class Property(Record):
    """A typed attribute of a class, optionally its identifier; `type_name` is
    one of index.PRIMITIVE_TYPES, a class name, or an enum name."""

    def __init__(self, name: str, type_name: str, is_id: bool = False,
                 span: Optional[SourceSpan] = None):
        self.name, self.type_name = name, type_name
        self.is_id, self.span = is_id, span


class ClassDef(Record):
    """A class with its own (not inherited) properties."""

    def __init__(self, name: str, is_abstract: bool = False,
                 properties: Optional[list[Property]] = None,
                 span: Optional[SourceSpan] = None):
        self.name, self.is_abstract, self.span = name, is_abstract, span
        self.properties = [] if properties is None else properties


class EnumDef(Record):
    """An enumeration and its literals, in declaration order."""

    def __init__(self, name: str, literals: Optional[list[str]] = None,
                 span: Optional[SourceSpan] = None):
        self.name, self.span = name, span
        self.literals = [] if literals is None else literals


class AssociationEnd(Record):
    """One end of a binary association: target class name, role and multiplicity."""

    def __init__(self, target: str, role: Optional[str] = None,
                 multiplicity: Optional[Multiplicity] = None, is_composite: bool = False):
        self.target, self.role, self.is_composite = target, role, is_composite
        self.multiplicity = Multiplicity() if multiplicity is None else multiplicity

    def nav_name(self) -> str:
        """Name this end answers to when navigating: role, or class name."""
        return self.role if self.role is not None else self.target


class Association(Record):
    """A named binary association between two ends."""

    def __init__(self, name: str, ends: tuple[AssociationEnd, AssociationEnd],
                 span: Optional[SourceSpan] = None):
        self.name, self.ends, self.span = name, ends, span


class Generalization(Record):
    """`specific` inherits from `general`."""

    def __init__(self, general: str, specific: str, span: Optional[SourceSpan] = None):
        self.general, self.specific, self.span = general, specific, span


class ClassModel(Record):
    """A class model: classes, enumerations, associations and generalizations."""

    def __init__(self, name: str = "model", classes: Optional[list[ClassDef]] = None,
                 enumerations: Optional[list[EnumDef]] = None,
                 associations: Optional[list[Association]] = None,
                 generalizations: Optional[list[Generalization]] = None):
        self.name = name
        self.classes = [] if classes is None else classes
        self.enumerations = [] if enumerations is None else enumerations
        self.associations = [] if associations is None else associations
        self.generalizations = [] if generalizations is None else generalizations


# ---------------------------------------------------------------------------
# Object model

class AttributeLink(Record):
    """A slot of an object: a property name and its value."""

    def __init__(self, property_name: str, value: Value, span: Optional[SourceSpan] = None):
        self.property_name, self.value, self.span = property_name, value, span


class ObjectDef(Record):
    """An object: its id, classifier and slots in assignment order."""

    def __init__(self, id: str, classifier: str,
                 slots: Optional[list[AttributeLink]] = None,
                 span: Optional[SourceSpan] = None):
        self.id, self.classifier, self.span = id, classifier, span
        self.slots = [] if slots is None else slots

    def slot(self, property_name: str) -> Optional[AttributeLink]:
        for s in self.slots:
            if s.property_name == property_name:
                return s
        return None


class LinkEnd(Record):
    """The object at one end of a link."""

    def __init__(self, object_id: str):
        self.object_id = object_id


class Link(Record):
    """An instance of an association, its ends in association-end order."""

    def __init__(self, association_name: str, ends: tuple[LinkEnd, LinkEnd],
                 span: Optional[SourceSpan] = None):
        self.association_name, self.ends, self.span = association_name, ends, span


class ObjectModel(Record):
    """A population: objects in declaration order, then links."""

    def __init__(self, name: str = "objects", objects: Optional[list[ObjectDef]] = None,
                 links: Optional[list[Link]] = None):
        self.name = name
        self.objects = [] if objects is None else objects
        self.links = [] if links is None else links


# ---------------------------------------------------------------------------
# Well-formedness

def _generalization_cycles(model: ClassModel) -> list[list[str]]:
    """Strongly connected components of size >= 2 in the generalization graph."""
    names = [c.name for c in model.classes]
    edges: dict[str, list[str]] = {n: [] for n in names}
    for gen in model.generalizations:
        if gen.specific in edges and gen.general in edges and gen.specific != gen.general:
            edges[gen.specific].append(gen.general)

    # Tarjan's algorithm with an explicit stack of (class, successor iterator)
    # frames, so that deep hierarchies cannot exhaust the interpreter stack.
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    frames: list = []

    def enter(v: str) -> None:
        index[v] = lowlink[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        frames.append((v, iter(edges[v])))

    for n in names:
        if n in index:
            continue
        enter(n)
        while frames:
            v, successors = frames[-1]
            for w in successors:
                if w not in index:
                    enter(w)
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    if len(comp) > 1:
                        sccs.append(comp)
    decl_pos = {n: i for i, n in enumerate(names)}
    for comp in sccs:
        comp.sort(key=lambda n: decl_pos[n])
    sccs.sort(key=lambda comp: decl_pos[comp[0]])
    return sccs


def validate_class_model(model: ClassModel) -> list[Diagnostic]:
    """Check every class-model invariant; empty result means well-formed.

    Diagnostics are ordered by (declaration order, code), where declaration
    order runs classes, then enumerations, then associations, then
    generalizations.
    """
    from modelkit.index import ModelIndex  # deferred: fsm-run builds no class model

    found: list[tuple[int, str, Diagnostic]] = []
    index = ModelIndex(model)
    n_classes = len(model.classes)
    n_enums = len(model.enumerations)
    n_assocs = len(model.associations)

    def add(order: int, diag: Diagnostic) -> None:
        found.append((order, diag.code, diag))

    if not is_identifier(model.name):
        add(-1, error("bad-name", f"model name '{model.name}' is not an identifier"))

    # One namespace for classes, enumerations, and associations.
    seen: dict[str, str] = {}
    named = (
        [(i, "class", c.name, c.span) for i, c in enumerate(model.classes)]
        + [(n_classes + i, "enum", e.name, e.span)
           for i, e in enumerate(model.enumerations)]
        + [(n_classes + n_enums + i, "association", a.name, a.span)
           for i, a in enumerate(model.associations)]
    )
    for order, kind, name, span in named:
        if not is_identifier(name):
            add(order, error("bad-name", f"{kind} name '{name}' is not an identifier",
                             span, subject=name))
        if name in seen:
            add(order, error("dup-name",
                             f"{kind} '{name}' clashes with {seen[name]} of the same name",
                             span, subject=name))
        else:
            seen[name] = kind

    cycles = _generalization_cycles(model)
    cyclic = {name for comp in cycles for name in comp}

    for ci, cls in enumerate(model.classes):
        own: set[str] = set()
        for prop in cls.properties:
            if not is_identifier(prop.name):
                add(ci, error("bad-name",
                              f"property name '{prop.name}' is not an identifier",
                              prop.span, subject=f"{cls.name}.{prop.name}"))
            if prop.name in own:
                add(ci, error("dup-property",
                              f"property '{prop.name}' declared twice in class '{cls.name}'",
                              prop.span, subject=f"{cls.name}.{prop.name}"))
            own.add(prop.name)
            kind = index.kind(prop.type_name)
            if kind is None:
                add(ci, error("bad-type",
                              f"property '{cls.name}.{prop.name}' references unknown type "
                              f"'{prop.type_name}'",
                              prop.span, subject=f"{cls.name}.{prop.name}"))
            elif prop.is_id and kind != "primitive":
                add(ci, error("id-not-primitive",
                              f"identifier property '{cls.name}.{prop.name}' must have a "
                              f"primitive type, not '{prop.type_name}'",
                              prop.span, subject=f"{cls.name}.{prop.name}"))

        # Shadowing of inherited properties, skipped for classes on a cycle
        # (their ancestry is not well defined until the cycle is fixed).
        if cls.name not in cyclic and not (set(index.ancestors(cls.name)) & cyclic):
            inherited_from: dict[str, str] = {}
            for anc in index.ancestors(cls.name):
                anc_cls = index.classes.get(anc)
                if anc_cls is None:
                    continue
                for prop in anc_cls.properties:
                    if prop.name in inherited_from and inherited_from[prop.name] != anc:
                        # Clash between two unrelated ancestors: report at the
                        # most specific class where both lines first meet.
                        meets_below = any(
                            inherited_from[prop.name] in ([d] + index.ancestors(d))
                            and anc in ([d] + index.ancestors(d))
                            for d in index.parents[cls.name]
                        )
                        if not meets_below:
                            add(ci, error(
                                "dup-property",
                                f"class '{cls.name}' inherits property '{prop.name}' "
                                f"from both '{inherited_from[prop.name]}' and '{anc}'",
                                cls.span, subject=f"{cls.name}.{prop.name}"))
                    else:
                        inherited_from[prop.name] = anc
            for prop in cls.properties:
                if prop.name in inherited_from:
                    add(ci, error("dup-property",
                                  f"property '{cls.name}.{prop.name}' redeclares a property "
                                  f"inherited from '{inherited_from[prop.name]}'",
                                  prop.span, subject=f"{cls.name}.{prop.name}"))

    for ei, enum in enumerate(model.enumerations):
        order = n_classes + ei
        if not enum.literals:
            add(order, error("no-literals",
                             f"enumeration '{enum.name}' has no literals",
                             enum.span, subject=enum.name))
        lits: set[str] = set()
        for lit in enum.literals:
            if not is_identifier(lit):
                add(order, error("bad-name",
                                 f"enumeration literal '{lit}' is not an identifier",
                                 enum.span, subject=f"{enum.name}.{lit}"))
            if lit in lits:
                add(order, error("dup-literal",
                                 f"literal '{lit}' repeated in enumeration '{enum.name}'",
                                 enum.span, subject=f"{enum.name}.{lit}"))
            lits.add(lit)

    for ai, assoc in enumerate(model.associations):
        order = n_classes + n_enums + ai
        if len(assoc.ends) != 2:
            add(order, error("assoc-ends",
                             f"association '{assoc.name}' must have exactly two ends",
                             assoc.span, subject=assoc.name))
            continue
        for end in assoc.ends:
            if end.target not in index.classes:
                add(order, error("unknown-class",
                                 f"association '{assoc.name}' end references unknown class "
                                 f"'{end.target}'",
                                 assoc.span, subject=assoc.name))
            m = end.multiplicity
            if m.lower < 0 or (m.upper is not None and m.upper < 1):
                add(order, error("bad-mult",
                                 f"association '{assoc.name}' end has malformed multiplicity "
                                 f"bounds",
                                 assoc.span, subject=assoc.name))
            elif m.upper is not None and m.lower > m.upper:
                add(order, error("bad-mult",
                                 f"association '{assoc.name}' end multiplicity has "
                                 f"lower {int_text(m.lower)} > upper {int_text(m.upper)}",
                                 assoc.span, subject=assoc.name))
            if end.role is not None and not is_identifier(end.role):
                add(order, error("bad-name",
                                 f"role '{end.role}' on association '{assoc.name}' is not "
                                 f"an identifier",
                                 assoc.span, subject=assoc.name))
        r0, r1 = assoc.ends[0].role, assoc.ends[1].role
        if r0 is not None and r0 == r1:
            add(order, error("dup-role",
                             f"association '{assoc.name}' has two ends with role '{r0}'",
                             assoc.span, subject=assoc.name))
        if assoc.ends[0].is_composite and assoc.ends[1].is_composite:
            add(order, error("two-composites",
                             f"association '{assoc.name}' has two composite ends",
                             assoc.span, subject=assoc.name))

    gen_base = n_classes + n_enums + n_assocs
    for gi, gen in enumerate(model.generalizations):
        order = gen_base + gi
        for name in (gen.general, gen.specific):
            if name not in index.classes:
                add(order, error("unknown-class",
                                 f"generalization references unknown class '{name}'",
                                 gen.span, subject=name))
        if gen.general == gen.specific:
            add(order, error("gen-self",
                             f"class '{gen.general}' cannot specialize itself",
                             gen.span, subject=gen.general))

    decl_pos = {c.name: i for i, c in enumerate(model.classes)}
    for comp in cycles:
        add(decl_pos[comp[0]],
            error("gen-cycle",
                  "generalization cycle: " + " -> ".join(comp + [comp[0]]),
                  subject=comp[0]))

    found.sort(key=lambda item: (item[0], item[1]))
    return [diag for _, _, diag in found]
