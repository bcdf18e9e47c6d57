"""Core model types: class models, object models, and the slot value union.

Models are plain slotted records (`diagnostics.Record`), treated as
immutable once built; every operation over them is a pure function.
Where the text parsers read an element (a class model's spans, a
population's lines and file) is excluded from equality, so that structural
comparison ignores where a model came from.
"""

from __future__ import annotations

from typing import Optional, Union

from modelkit.diagnostics import Record, SourceSpan

# ---------------------------------------------------------------------------
# Values

class EnumV(Record):
    """A qualified enumeration literal, `Enum::LITERAL`."""

    def __init__(self, enum: str, literal: str):
        self.enum, self.literal = enum, literal


# A slot value: a plain int, float, str or bool, None for null, or an enum
# literal.  Kinds are told apart by exact type, bool first: True is an int.
Value = Union[int, float, str, bool, None, EnumV]


# ---------------------------------------------------------------------------
# Class model

class Multiplicity(Record):
    """[lower, upper] bound on links at an association end; upper None = unbounded."""

    def __init__(self, lower: int = 0, upper: Optional[int] = None):
        self.lower, self.upper = lower, upper


class Property(Record):
    """A typed attribute of a class, optionally its identifier; `type_name` is
    one of index.PRIMITIVE_VALUES, a class name, or an enum name."""

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

    def __init__(self, property_name: str, value: Value, line: int = 0):
        self.property_name, self.value, self.line = property_name, value, line


class ObjectDef(Record):
    """An object: its id, classifier and slots in assignment order."""

    def __init__(self, id: str, classifier: str,
                 slots: Optional[list[AttributeLink]] = None, line: int = 0):
        self.id, self.classifier, self.line = id, classifier, line
        self.slots = [] if slots is None else slots

    def slot(self, property_name: str) -> Optional[AttributeLink]:
        for s in self.slots:
            if s.property_name == property_name:
                return s
        return None


class Link(Record):
    """An instance of an association: its ends' object ids, in association-end order."""

    def __init__(self, association_name: str, ends: tuple[str, str], line: int = 0):
        self.association_name, self.ends, self.line = association_name, ends, line


class ObjectModel(Record):
    """A population: objects in declaration order, links, and the file it was read from."""

    def __init__(self, objects: Optional[list[ObjectDef]] = None,
                 links: Optional[list[Link]] = None, file: str = "<input>"):
        self.objects = [] if objects is None else objects
        self.links = [] if links is None else links
        self.file = file
