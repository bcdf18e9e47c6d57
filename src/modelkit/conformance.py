"""Structural conformance of an object model against a class model.

Callers are expected to validate the class model first; conformance
assumes it is well formed.  `object_faults` and `link_faults` hold each
object, slot and link rule, for flex's pruning too.  The check never
aborts: all violations are accumulated into one deterministic diagnostic
list, ordered objects, then links, then per-association multiplicity counts.
"""

from __future__ import annotations

from modelkit.diagnostics import Diagnostic, SourceSpan, error, int_text
from modelkit.index import PRIMITIVE_VALUES, ModelIndex, PopulationIndex
from modelkit.metamodel import ClassModel, EnumV, ObjectModel, Value


def value_conforms(value: Value, declared_type: str, index: ModelIndex) -> bool:
    """Type compatibility of one slot value against a declared type.

    Null fits everything.  Ints additionally fit float properties, and enum
    values fit str properties (an enum literal is observable as its string).
    Class-typed properties hold no literal values, only null; object
    references travel through links instead.
    """
    if value is None:
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
    file = objects.file
    for obj in objects.objects:
        faults = object_faults(obj, index)
        if faults:
            object_errors(obj, faults, file, diags)
    for i, link in enumerate(objects.links):
        for code, message, _ in link_faults(link, population.objects, index):
            diags.append(error(code, message, _at(file, link.line), subject=f"link[{i}]"))
    check_multiplicities(index, population, file, diags)
    return diags


def _at(file: str, line: int):
    """The span of line `line` of `file`; None for line 0 (built through the API)."""
    return SourceSpan(file, line) if line else None


def object_faults(obj, index) -> list:
    """What is wrong with `obj`, in report order, as (code, slot, subject,
    message, removal reason); the slot is None for the object itself, the
    reason None for slot-missing, which no removal mends."""
    cls = index.classes.get(obj.classifier)
    if cls is None:
        return [("unknown-classifier", None, obj.id,
                 f"object '{obj.id}' has unknown classifier '{obj.classifier}'",
                 f"unknown classifier '{obj.classifier}'")]
    faults = [("abstract-instance", None, obj.id,
               f"object '{obj.id}' instantiates abstract class '{cls.name}'",
               f"abstract classifier '{cls.name}'")] if cls.is_abstract else []
    props = index.properties(cls.name)
    seen: set[str] = set()
    for slot in obj.slots:
        name = slot.property_name
        if name in seen:
            code, message, reason = ("dup-slot", f"object '{obj.id}' assigns property "
                                     f"'{name}' more than once", "duplicate assignment")
        else:
            seen.add(name)
            prop = props.get(name)
            if prop is None:
                code, message, reason = ("unknown-property", f"object '{obj.id}' assigns "
                                         f"unknown property '{name}' of class '{cls.name}'",
                                         f"unknown property of '{cls.name}'")
            elif not value_conforms(slot.value, prop.type_name, index):
                fit = f"does not fit declared type '{prop.type_name}'"
                code, message, reason = ("slot-type", f"value of slot '{obj.id}.{name}' {fit}",
                                         f"value {fit}")
            else:
                continue
        faults.append((code, slot, f"{obj.id}.{name}", message, reason))
    for prop in props.values():
        # Class-typed properties admit omission (their only value is null).
        if prop.name not in seen and index.kind(prop.type_name) != "class":
            faults.append(("slot-missing", None, f"{obj.id}.{prop.name}",
                           f"object '{obj.id}' has no slot for required property "
                           f"'{prop.name}'", None))
    return faults


def object_errors(obj, faults, file, diags) -> None:
    """Append object_faults' `faults` of `obj` to `diags`, at their slot's line or obj's."""
    for code, slot, subject, message, _ in faults:
        diags.append(error(code, message, _at(file, (slot or obj).line), subject=subject))


def link_faults(link, known, index) -> list:
    """What is wrong with `link`, whose ends name objects `known` by id, in
    report order, as (code, message, removal reason)."""
    assoc = index.associations.get(link.association_name)
    if assoc is None:
        return [("unknown-association",
                 f"link references unknown association '{link.association_name}'",
                 f"unknown association '{link.association_name}'")]
    if len(link.ends) != 2:
        message = f"link of '{assoc.name}' must have exactly two ends"
        return [("link-ends", message, message)]
    faults = []
    for end, object_id in zip(assoc.ends, link.ends):
        obj = known.get(object_id)
        if obj is None:
            faults.append(("unknown-object",
                           f"link of '{assoc.name}' references unknown object '{object_id}'",
                           f"end object '{object_id}' is gone or unknown"))
        # An unknown class is reported against the model or the object.
        elif (end.target in index.classes and obj.classifier in index.classes
              and not index.conforms(obj.classifier, end.target)):
            occupy = (f"object '{obj.id}' ({obj.classifier}) cannot occupy the "
                      f"'{end.target}' end")
            faults.append(("link-end-type", f"{occupy} of association '{assoc.name}'", occupy))
    return faults


def check_multiplicities(index, population, file, diags) -> None:
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
                        _at(file, obj.line), subject=f"{obj.id}@{assoc.name}[{j}]"))
                elif mult.upper is not None and count > mult.upper:
                    diags.append(error(
                        "mult-upper",
                        f"object '{obj.id}' has {count} '{assoc.name}' link(s) toward "
                        f"'{bound_end.target}', above upper bound {mult.upper}",
                        _at(file, obj.line), subject=f"{obj.id}@{assoc.name}[{j}]"))
