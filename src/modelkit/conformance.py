"""Structural conformance of an object model against a class model.

Callers are expected to validate the class model first; conformance
assumes it is well formed.  The check never aborts: all violations are
accumulated into one deterministic diagnostic list, ordered objects, then
links, then per-association multiplicity counts.
"""

from __future__ import annotations

from modelkit.diagnostics import Diagnostic, error, int_text
from modelkit.index import PRIMITIVE_VALUES, ModelIndex, PopulationIndex
from modelkit.metamodel import ClassModel, EnumV, NullV, ObjectModel, Value


def value_conforms(value: Value, declared_type: str, index: ModelIndex) -> bool:
    """Type compatibility of one slot value against a declared type.

    Null fits everything.  Ints additionally fit float properties, and enum
    values fit str properties (an enum literal is observable as its string).
    Class-typed properties hold no literal values, only null; object
    references travel through links instead.
    """
    if type(value) is NullV:
        return True
    kind = index.kind(declared_type)
    if kind == "primitive":
        return type(value) in PRIMITIVE_VALUES[declared_type]
    if kind == "enum":
        return (type(value) is EnumV and value.enum == declared_type
                and value.literal in index.enums[declared_type].literals)
    return False  # class-typed (non-null) or unresolvable


def check_conformance(objects: ObjectModel, model: ClassModel) -> list[Diagnostic]:
    """All the ways `objects` fails to instantiate `model`; empty = conforms."""
    diags: list[Diagnostic] = []
    index = ModelIndex(model)
    population = PopulationIndex(objects)
    for obj in objects.objects:
        _check_object(obj, index, diags)
    for i, link in enumerate(objects.links):
        _check_link(i, link, population.objects, index, diags)
    check_multiplicities(index, population, diags)
    return diags


def _check_object(obj, index, diags) -> None:
    cls = index.classes.get(obj.classifier)
    if cls is None:
        diags.append(error("unknown-classifier",
                           f"object '{obj.id}' has unknown classifier '{obj.classifier}'",
                           obj.span, subject=obj.id))
        return
    if cls.is_abstract:
        diags.append(error("abstract-instance",
                           f"object '{obj.id}' instantiates abstract class '{cls.name}'",
                           obj.span, subject=obj.id))

    props = index.properties(cls.name)
    seen_slots: set[str] = set()
    for slot in obj.slots:
        name = slot.property_name
        if name in seen_slots:
            code, message = "dup-slot", (f"object '{obj.id}' assigns property "
                                         f"'{name}' more than once")
        else:
            seen_slots.add(name)
            prop = props.get(name)
            if prop is None:
                code, message = "unknown-property", (
                    f"object '{obj.id}' assigns unknown property "
                    f"'{name}' of class '{cls.name}'")
            elif not value_conforms(slot.value, prop.type_name, index):
                code, message = "slot-type", (
                    f"value of slot '{obj.id}.{name}' does not "
                    f"fit declared type '{prop.type_name}'")
            else:
                continue
        diags.append(error(code, message, slot.span, subject=f"{obj.id}.{name}"))

    check_missing_slots(obj, props, seen_slots, index, diags)


def check_missing_slots(obj, props, present, index, diags) -> None:
    """slot-missing for each of `props`, those of obj's class, not in `present`."""
    for prop in props.values():
        # Class-typed properties admit omission (their only value is null).
        if prop.name not in present and index.kind(prop.type_name) != "class":
            diags.append(error("slot-missing",
                               f"object '{obj.id}' has no slot for required property "
                               f"'{prop.name}'",
                               obj.span, subject=f"{obj.id}.{prop.name}"))


def _check_link(position, link, known, index, diags) -> None:
    assoc = index.associations.get(link.association_name)
    if assoc is None:
        diags.append(error("unknown-association",
                           f"link references unknown association "
                           f"'{link.association_name}'",
                           link.span, subject=f"link[{position}]"))
        return
    if len(link.ends) != 2:
        diags.append(error("link-ends",
                           f"link of '{assoc.name}' must have exactly two ends",
                           link.span, subject=f"link[{position}]"))
        return
    for pos, object_id in enumerate(link.ends):
        obj = known.get(object_id)
        if obj is None:
            diags.append(error("unknown-object",
                               f"link of '{assoc.name}' references unknown object "
                               f"'{object_id}'",
                               link.span, subject=f"link[{position}]"))
            continue
        end = assoc.ends[pos]
        if end.target not in index.classes or obj.classifier not in index.classes:
            continue  # already reported against the model or the object
        if not index.conforms(obj.classifier, end.target):
            diags.append(error("link-end-type",
                               f"object '{obj.id}' ({obj.classifier}) cannot occupy the "
                               f"'{end.target}' end of association '{assoc.name}'",
                               link.span, subject=f"link[{position}]"))


def check_multiplicities(index, population, diags) -> None:
    # The multiplicity at end j bounds, for each instance at the opposite
    # end, how many links of the association it participates in.
    for assoc in index.binary:
        for j, bound_end in enumerate(assoc.ends):
            mult = bound_end.multiplicity
            for obj, links in population.bounded(index, assoc, j):
                count = len(links)
                if count < mult.lower:
                    diags.append(error(
                        "mult-lower",
                        f"object '{obj.id}' has {count} '{assoc.name}' link(s) toward "
                        f"'{bound_end.target}', below lower bound {int_text(mult.lower)}",
                        obj.span, subject=f"{obj.id}@{assoc.name}[{j}]"))
                elif mult.upper is not None and count > mult.upper:
                    diags.append(error(
                        "mult-upper",
                        f"object '{obj.id}' has {count} '{assoc.name}' link(s) toward "
                        f"'{bound_end.target}', above upper bound {mult.upper}",
                        obj.span, subject=f"{obj.id}@{assoc.name}[{j}]"))
