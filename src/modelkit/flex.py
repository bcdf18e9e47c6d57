"""Flexible modeling: infer a class model from instances, or prune an
object model down to what conforms.

Both operations implement one fixed strategy each (documented below);
richer strategies can replace them behind the same signatures.
"""

from __future__ import annotations

from typing import Optional

# check_conformance stays bound here, where bench/spans.py wraps it by name.
from modelkit.conformance import (check_conformance, check_missing_slots,  # noqa: F401
                                  check_multiplicities, value_conforms)
from modelkit.diagnostics import Diagnostic, warning
from modelkit.index import PRIMITIVE_VALUES, ModelIndex, PopulationIndex
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    AttributeLink,
    ClassDef,
    ClassModel,
    Generalization,
    Multiplicity,
    NullV,
    ObjectDef,
    ObjectModel,
    Property,
)


def infer_class_model(objects: ObjectModel,
                      diagnostics: Optional[list[Diagnostic]] = None
                      ) -> ClassModel:
    """Infer the class model an object population instantiates.

    One concrete class per distinct classifier, one property per observed
    slot name, typed as the narrowest primitive type that admits every
    observed value by `index.PRIMITIVE_VALUES`, or str with a
    warning when the values are all null or no primitive admits them all.
    One association per distinct link name with multiplicities [min, max]
    of the observed per-object link counts, widened to unbounded when max
    exceeds one.  No hierarchy is invented among the observed classes
    themselves; the one exception is an association end that observes
    several classifiers, which gets a fresh property-less general class
    that exactly those classifiers specialize, so the end stays typeable.
    The result accepts the population it was inferred from, except for
    slots some objects omit, mixed-kind values, links without two ends and
    links with an end that names no object.
    """
    sink = diagnostics if diagnostics is not None else []
    model = ClassModel(name="inferred")
    # Per classifier and slot name, the classes of its observed values.
    slot_values: dict[str, dict[str, set[type]]] = {}

    for obj in objects.objects:
        if obj.classifier not in slot_values:
            slot_values[obj.classifier] = {}
            model.classes.append(ClassDef(name=obj.classifier))
        seen = slot_values[obj.classifier]
        for slot in obj.slots:
            if slot.property_name in seen:
                seen[slot.property_name].add(type(slot.value))
            else:
                seen[slot.property_name] = {type(slot.value)}

    for cls in model.classes:
        for name, kinds in slot_values[cls.name].items():
            kinds.discard(NullV)
            subject = f"{cls.name}.{name}"
            type_name = next((t for t, admitted in PRIMITIVE_VALUES.items()
                              if kinds and kinds.issubset(admitted)), "str")
            if not kinds:
                sink.append(warning(
                    "all-null",
                    f"every observed value of '{subject}' is null; "
                    f"defaulting its type to str",
                    subject=subject))
            elif not kinds.issubset(PRIMITIVE_VALUES[type_name]):
                sink.append(warning(
                    "mixed-kind",
                    f"no primitive type admits every observed value of "
                    f"'{subject}'; defaulting its type to str",
                    subject=subject))
            cls.properties.append(Property(name=name, type_name=type_name))

    population = PopulationIndex(objects)
    observed: dict[str, tuple[list[str], list[str]]] = {}
    for link in objects.links:
        holders = [population.objects.get(e) for e in link.ends]
        if len(holders) != 2 or None in holders:
            continue  # such a link infers nothing
        sides = observed.setdefault(link.association_name, ([], []))
        for side, holder in zip(sides, holders):
            if holder.classifier not in side:
                side.append(holder.classifier)

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

    for name, (seen0, seen1) in observed.items():
        model.associations.append(Association(name=name, ends=(
            AssociationEnd(target=end_class(name, 0, seen0)),
            AssociationEnd(target=end_class(name, 1, seen1)))))
    # Every end class exists now, so the link counts can be taken.
    index = ModelIndex(model)
    for assoc in index.binary:
        for j, end in enumerate(assoc.ends):
            counts = [len(links) for _, links in population.bounded(index, assoc, j)]
            high = max(counts, default=1)
            end.multiplicity = Multiplicity(min(counts, default=0),
                                            None if high > 1 else max(high, 1))
    return model


def enforce_conformance(objects: ObjectModel, model: ClassModel
                        ) -> tuple[ObjectModel, list[Diagnostic]]:
    """Prune everything that breaks conformance; never add or repair.

    Removes, in order: objects with unknown or abstract classifiers, slots
    naming unknown properties or carrying ill-typed values, links with
    unknown associations, other than two ends, or dangling or ill-typed
    ends, then links past an upper bound (newest declared dropped first,
    keeping the earliest).
    Lower-bound and missing-slot violations cannot be fixed by removal,
    so they stay in the output as residual diagnostics.  The returned
    diagnostics list removals (warnings) followed by residuals (errors):
    all that check_conformance finds in the output, in its order.
    """
    diags: list[Diagnostic] = []
    residual: list[Diagnostic] = []  # pruning leaves only missing slots and lower bounds

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
            name = slot.property_name
            if name in seen:
                reason = "duplicate assignment"
            else:
                seen.add(name)
                prop = props.get(name)
                if prop is None:
                    reason = f"unknown property of '{obj.classifier}'"
                elif not value_conforms(slot.value, prop.type_name, index):
                    reason = f"value does not fit declared type '{prop.type_name}'"
                else:
                    kept_slots.append(slot)
                    continue
            removed("slot", f"'{obj.id}.{name}'", reason)
        check_missing_slots(obj, props, {s.property_name for s in kept_slots}, index,
                            residual)
        pruned_objects.append(ObjectDef(id=obj.id, classifier=obj.classifier,
                                        slots=kept_slots, span=obj.span))

    population = PopulationIndex(ObjectModel(pruned_objects, objects.links))
    dropped: set[int] = set()  # id() of every removed link
    for position, link in enumerate(objects.links):
        bad = _link_fault(link, index, population)
        if bad is not None:
            removed("link", f"link[{position}]", bad)
            dropped.add(id(link))

    # Upper bounds: walk associations and directions deterministically,
    # dropping the newest-declared surplus links as we go.
    link_index = {id(ln): i for i, ln in enumerate(objects.links)}
    for assoc in index.binary:
        for j, bound_end in enumerate(assoc.ends):
            upper = bound_end.multiplicity.upper
            if upper is None:
                continue
            for obj, links in population.bounded(index, assoc, j):
                mine = [ln for ln in links if id(ln) not in dropped]
                for surplus in mine[upper:][::-1]:
                    dropped.add(id(surplus))
                    removed("link", f"link[{link_index[id(surplus)]}]",
                            f"'{assoc.name}' exceeds upper bound {upper} "
                            f"at object '{obj.id}'")

    result = ObjectModel(pruned_objects, [ln for ln in objects.links if id(ln) not in dropped])
    check_multiplicities(index, PopulationIndex(result), residual)
    return result, diags + residual


def _link_fault(link, index, population) -> Optional[str]:
    """Why enforcement removes `link` before counting bounds, or None."""
    assoc = index.associations.get(link.association_name)
    if assoc is None:
        return f"unknown association '{link.association_name}'"
    if len(link.ends) != 2:
        return f"link of '{assoc.name}' must have exactly two ends"
    for end, object_id in zip(assoc.ends, link.ends):
        holder = population.objects.get(object_id)
        if holder is None:
            return f"end object '{object_id}' is gone or unknown"
        if not index.conforms(holder.classifier, end.target):
            return (f"object '{holder.id}' ({holder.classifier}) cannot occupy "
                    f"the '{end.target}' end")
    return None
