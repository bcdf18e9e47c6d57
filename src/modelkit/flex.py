"""Flexible modeling: infer a class model from instances, or prune an
object model down to what conforms.

Both operations implement one fixed strategy each (documented below);
richer strategies can replace them behind the same signatures.  Pruning
removes what conformance's own fault walks, `object_faults` and
`link_faults`, find: no conformance rule is written here.
"""

from __future__ import annotations

from typing import Optional

# check_conformance stays bound here, where bench/spans.py wraps it by name.
from modelkit.conformance import (check_conformance, check_multiplicities,  # noqa: F401
                                  link_faults, object_errors, object_faults)
from modelkit.diagnostics import Diagnostic, warning
from modelkit.index import PRIMITIVE_VALUES, ModelIndex, PopulationIndex
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    ClassDef,
    ClassModel,
    Generalization,
    Multiplicity,
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
            kinds.discard(type(None))
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
    slots_removed: list[Diagnostic] = []  # reported after the removed objects
    residual: list[Diagnostic] = []  # pruning leaves only missing slots and lower bounds

    def removed(kind: str, subject: str, reason: str) -> None:
        (slots_removed if kind == "slot" else diags).append(warning(
            f"removed-{kind}", f"removed {kind} {subject}: {reason}", subject=subject))

    index = ModelIndex(model)
    kept_objects: list[ObjectDef] = []
    for obj in objects.objects:
        faults = object_faults(obj, index)
        if faults:
            _, slot, _, _, reason = faults[0]
            if slot is None and reason is not None:  # the object itself is at fault
                removed("object", f"'{obj.id}'", reason)
                continue
            slot_faults = [fault for fault in faults if fault[1] is not None]
            if slot_faults:
                kept_slots = []
                for slot in obj.slots:  # the faults name their slots in slot order
                    if slot_faults and slot is slot_faults[0][1]:
                        _, _, subject, _, reason = slot_faults.pop(0)
                        removed("slot", f"'{subject}'", reason)
                    else:
                        kept_slots.append(slot)
                obj = ObjectDef(obj.id, obj.classifier, kept_slots, obj.line)
                faults = object_faults(obj, index)
            object_errors(obj, faults, objects.file, residual)
        kept_objects.append(obj)
    diags += slots_removed

    # One index serves every walk below: it takes the links that have no fault.
    result = ObjectModel(kept_objects, [], objects.file)
    population = PopulationIndex(result)
    for position, link in enumerate(objects.links):
        faults = link_faults(link, population.objects, index)
        if faults:
            removed("link", f"link[{position}]", faults[0][2])
        else:
            result.links.append(link)
    population.add(result.links)

    # Upper bounds: walk associations and directions deterministically,
    # dropping the newest-declared surplus links as we go: from each list
    # read at once (an object that shares an id reads it again), and from
    # the other end's lists when the walk ends.
    link_index = {id(ln): i for i, ln in enumerate(objects.links)}
    dropped: set[int] = set()  # id() of every surplus link
    for assoc in index.binary:
        for j, bound_end in enumerate(assoc.ends):
            upper = bound_end.multiplicity.upper
            if upper is None:
                continue
            surplus = []
            for obj, links in population.bounded(index, assoc, j):
                if len(links) > upper:
                    for link in reversed(links[upper:]):
                        removed("link", f"link[{link_index[id(link)]}]",
                                f"'{assoc.name}' exceeds upper bound {upper} "
                                f"at object '{obj.id}'")
                    surplus += links[upper:]
                    del links[upper:]
            dropped |= population.drop(surplus)
    result.links = [ln for ln in result.links if id(ln) not in dropped]
    check_multiplicities(index, population, objects.file, residual)
    return result, diags + residual

