"""Flexible modeling: infer a class model from instances, or prune an
object model down to what conforms.

Both operations implement one fixed strategy each (documented below);
richer strategies can replace them behind the same signatures.
"""

from __future__ import annotations

from typing import Optional

from modelkit.conformance import check_conformance, value_conforms
from modelkit.diagnostics import Diagnostic, warning
from modelkit.index import ModelIndex, PopulationIndex
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    AttributeLink,
    BoolV,
    ClassDef,
    ClassModel,
    EnumV,
    FloatV,
    Generalization,
    IntV,
    Multiplicity,
    NullV,
    ObjectDef,
    ObjectModel,
    Property,
    StrV,
)

# Observed value kinds form a little lattice: int < float, everything
# else joins at str (enum literals are observable as strings), and null
# is bottom.  A kind of None stands for null/bottom.
_KINDS = {IntV: "int", FloatV: "float", BoolV: "bool", StrV: "str", EnumV: "str"}


def _kind(value) -> Optional[str]:
    if isinstance(value, NullV):
        return None
    return _KINDS[type(value)]


def _lub(a: Optional[str], b: Optional[str]) -> Optional[str]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    if {a, b} == {"int", "float"}:
        return "float"
    return "str"


def infer_class_model(objects: ObjectModel,
                      diagnostics: Optional[list[Diagnostic]] = None
                      ) -> ClassModel:
    """Infer the class model an object population instantiates.

    One concrete class per distinct classifier, one property per observed
    slot name (typed by the kind lattice above, all-null defaulting to
    str), one association per distinct link name with multiplicities
    [min, max] of the observed per-object link counts, widened to
    unbounded when max exceeds one.  No hierarchy is invented among the
    observed classes themselves; the one exception is an association end
    that observes several classifiers, which gets a fresh property-less
    general class that exactly those classifiers specialize, so the end
    stays typeable.  The result always accepts the population it was
    inferred from.
    """
    sink = diagnostics if diagnostics is not None else []
    model = ClassModel(name="inferred")
    classes: dict[str, ClassDef] = {}
    slot_kinds: dict[str, dict[str, Optional[str]]] = {}

    for obj in objects.objects:
        if obj.classifier not in classes:
            cls = ClassDef(name=obj.classifier)
            classes[obj.classifier] = cls
            slot_kinds[obj.classifier] = {}
            model.classes.append(cls)
        kinds = slot_kinds[obj.classifier]
        for slot in obj.slots:
            if slot.property_name in kinds:
                kinds[slot.property_name] = _lub(kinds[slot.property_name],
                                                 _kind(slot.value))
            else:
                kinds[slot.property_name] = _kind(slot.value)

    for cls in model.classes:
        for name, kind in slot_kinds[cls.name].items():
            if kind is None:
                sink.append(warning(
                    "all-null",
                    f"every observed value of '{cls.name}.{name}' is null; "
                    f"defaulting its type to str",
                    subject=f"{cls.name}.{name}"))
                kind = "str"
            cls.properties.append(Property(name=name, type_name=kind))

    by_id = {obj.id: obj for obj in objects.objects}
    observed: dict[str, tuple[list[str], list[str]]] = {}
    for link in objects.links:
        if len(link.ends) != 2:
            continue
        if any(e.object_id not in by_id for e in link.ends):
            raise ValueError(
                f"link of '{link.association_name}' references an object that "
                f"does not exist in the population")
        sides = observed.setdefault(link.association_name, ([], []))
        for pos in (0, 1):
            classifier = by_id[link.ends[pos].object_id].classifier
            if classifier not in sides[pos]:
                sides[pos].append(classifier)

    # Classes, enums, and associations share one namespace.
    taken = {c.name for c in model.classes} | set(observed)

    def end_class(assoc_name: str, pos: int, classifiers: list[str]) -> str:
        if len(classifiers) == 1:
            return classifiers[0]
        base = f"{assoc_name}_End{pos}"
        while base in taken:
            base += "_"
        taken.add(base)
        model.classes.append(ClassDef(name=base))
        for classifier in classifiers:
            model.generalizations.append(
                Generalization(general=base, specific=classifier))
        sink.append(warning(
            "mixed-end",
            f"links of '{assoc_name}' mix classifiers {classifiers} at end "
            f"{pos}; unified under new general class '{base}'",
            subject=assoc_name))
        return base

    # All end classes exist before the model is indexed for the link counts.
    end_targets = {name: (end_class(name, 0, seen0), end_class(name, 1, seen1))
                   for name, (seen0, seen1) in observed.items()}
    index = ModelIndex(model)
    population = PopulationIndex(objects)
    for name, targets in end_targets.items():
        mults = []
        for j in (0, 1):
            # End j's multiplicity bounds link counts per instance
            # conforming to the opposite end's class.
            i = 1 - j
            counts = [len(population.linked(name, i, obj.id)) for obj in objects.objects
                      if index.conforms(obj.classifier, targets[i])]
            low = min(counts) if counts else 0
            high = max(counts) if counts else 1
            mults.append(Multiplicity(low, None if high > 1 else max(high, 1)))
        model.associations.append(Association(
            name=name,
            ends=(AssociationEnd(target=targets[0], multiplicity=mults[0]),
                  AssociationEnd(target=targets[1], multiplicity=mults[1]))))
    return model


def enforce_conformance(objects: ObjectModel, model: ClassModel
                        ) -> tuple[ObjectModel, list[Diagnostic]]:
    """Prune everything that breaks conformance; never add or repair.

    Removes, in order: objects with unknown or abstract classifiers, slots
    naming unknown properties or carrying ill-typed values, links with
    unknown associations, dangling or ill-typed ends, then links past an
    upper bound (newest declared dropped first, keeping the earliest).
    Lower-bound and missing-slot violations cannot be fixed by removal,
    so they stay in the output as residual diagnostics.  The returned
    diagnostics list removals (warnings) followed by residuals (errors).
    """
    diags: list[Diagnostic] = []

    def removed(kind: str, subject: str, reason: str) -> None:
        diags.append(warning(f"removed-{kind}", f"removed {kind} {subject}: {reason}",
                             subject=subject))

    index = ModelIndex(model)
    kept_objects: list[ObjectDef] = []
    for obj in objects.objects:
        cls = index.classes.get(obj.classifier)
        if cls is None:
            removed("object", f"'{obj.id}'",
                    f"unknown classifier '{obj.classifier}'")
            continue
        if cls.is_abstract:
            removed("object", f"'{obj.id}'",
                    f"abstract classifier '{obj.classifier}'")
            continue
        kept_objects.append(obj)

    pruned_objects: list[ObjectDef] = []
    for obj in kept_objects:
        props = index.properties(obj.classifier)
        kept_slots: list[AttributeLink] = []
        seen: set[str] = set()
        for slot in obj.slots:
            subject = f"'{obj.id}.{slot.property_name}'"
            prop = props.get(slot.property_name)
            if slot.property_name in seen:
                removed("slot", subject, "duplicate assignment")
                continue
            seen.add(slot.property_name)
            if prop is None:
                removed("slot", subject,
                        f"unknown property of '{obj.classifier}'")
                continue
            if not value_conforms(slot.value, prop.type_name, index):
                removed("slot", subject,
                        f"value does not fit declared type '{prop.type_name}'")
                continue
            kept_slots.append(slot)
        pruned_objects.append(ObjectDef(id=obj.id, classifier=obj.classifier,
                                        slots=kept_slots, span=obj.span))

    population = PopulationIndex(ObjectModel(objects=pruned_objects, links=objects.links))
    dropped: set[int] = set()  # id() of every removed link
    for position, link in enumerate(objects.links):
        subject = f"link[{position}]"
        assoc = index.associations.get(link.association_name)
        if assoc is None or len(link.ends) != 2:
            removed("link", subject, f"unknown association '{link.association_name}'")
            dropped.add(id(link))
            continue
        bad = None
        for pos, link_end in enumerate(link.ends):
            holder = population.objects.get(link_end.object_id)
            if holder is None:
                bad = f"end object '{link_end.object_id}' is gone or unknown"
                break
            end = assoc.ends[pos]
            if not index.conforms(holder.classifier, end.target):
                bad = (f"object '{holder.id}' ({holder.classifier}) cannot occupy "
                       f"the '{end.target}' end")
                break
        if bad is not None:
            removed("link", subject, bad)
            dropped.add(id(link))

    # Upper bounds: walk associations and directions deterministically,
    # dropping the newest-declared surplus links as we go.
    link_index = {id(ln): i for i, ln in enumerate(objects.links)}
    for assoc in model.associations:
        if len(assoc.ends) != 2:
            continue
        for j, bound_end in enumerate(assoc.ends):
            upper = bound_end.multiplicity.upper
            if upper is None:
                continue
            i = 1 - j
            for obj in pruned_objects:
                if not index.conforms(obj.classifier, assoc.ends[i].target):
                    continue
                mine = [ln for ln in population.linked(assoc.name, i, obj.id)
                        if id(ln) not in dropped]
                for surplus in mine[upper:][::-1]:
                    dropped.add(id(surplus))
                    removed("link", f"link[{link_index[id(surplus)]}]",
                            f"'{assoc.name}' exceeds upper bound {upper} "
                            f"at object '{obj.id}'")

    result = ObjectModel(name=objects.name, objects=pruned_objects,
                         links=[ln for ln in objects.links if id(ln) not in dropped])
    residual = check_conformance(result, model)
    diags.extend(residual)
    return result, diags
