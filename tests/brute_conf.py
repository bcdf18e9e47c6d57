"""Exhaustive conformance reference: enumerates every (object, property)
and (object, association end) pair with no shared logic beyond the model
dataclasses and the (code, subject) reporting convention."""

from modelkit.metamodel import EnumV


def _supers(model, class_name):
    closure = {class_name}
    grew = True
    while grew:
        grew = False
        for gen in model.generalizations:
            if gen.specific in closure and gen.general not in closure:
                closure.add(gen.general)
                grew = True
    return closure


def _flat_props(model, class_name):
    props = []
    for cls in model.classes:
        if cls.name in _supers(model, class_name):
            props.extend(cls.properties)
    return props


def _fits(value, type_name, model):
    # Exact types: a bool is an int to isinstance, and fits no int property.
    if value is None:
        return True
    if type_name == "int":
        return type(value) is int
    if type_name == "float":
        return type(value) in (int, float)
    if type_name == "str":
        return type(value) in (str, EnumV)
    if type_name == "bool":
        return type(value) is bool
    for enum in model.enumerations:
        if enum.name == type_name:
            return (type(value) is EnumV and value.enum == type_name
                    and value.literal in enum.literals)
    return False  # class-typed accepts only null


def brute_conformance(objects, model):
    """Sorted (code, subject) pairs for every violation."""
    rows = []
    class_names = {c.name for c in model.classes}

    for obj in objects.objects:
        if obj.classifier not in class_names:
            rows.append(("unknown-classifier", obj.id))
            continue
        cls = next(c for c in model.classes if c.name == obj.classifier)
        if cls.is_abstract:
            rows.append(("abstract-instance", obj.id))
        props = {p.name: p for p in _flat_props(model, obj.classifier)}
        seen = []
        for slot in obj.slots:
            subject = f"{obj.id}.{slot.property_name}"
            if slot.property_name in seen:
                rows.append(("dup-slot", subject))
                continue
            seen.append(slot.property_name)
            if slot.property_name not in props:
                rows.append(("unknown-property", subject))
            elif not _fits(slot.value, props[slot.property_name].type_name, model):
                rows.append(("slot-type", subject))
        for prop in props.values():
            required = prop.type_name in ("int", "float", "str", "bool") or any(
                e.name == prop.type_name for e in model.enumerations)
            if required and prop.name not in seen:
                rows.append(("slot-missing", f"{obj.id}.{prop.name}"))

    object_ids = {o.id for o in objects.objects}
    assoc_by_name = {a.name: a for a in model.associations}
    for index, link in enumerate(objects.links):
        subject = f"link[{index}]"
        assoc = assoc_by_name.get(link.association_name)
        if assoc is None:
            rows.append(("unknown-association", subject))
            continue
        if len(link.ends) != 2:
            rows.append(("link-ends", subject))
            continue
        for pos in (0, 1):
            oid = link.ends[pos]
            if oid not in object_ids:
                rows.append(("unknown-object", subject))
                continue
            holder = next(o for o in objects.objects if o.id == oid)
            end = assoc.ends[pos]
            if end.target not in class_names or holder.classifier not in class_names:
                continue
            if end.target not in _supers(model, holder.classifier):
                rows.append(("link-end-type", subject))

    for assoc in model.associations:
        for j in (0, 1):
            i = 1 - j
            end = assoc.ends[j]
            holder_class = assoc.ends[i].target
            if holder_class not in class_names:
                continue
            for obj in objects.objects:
                if obj.classifier not in class_names:
                    continue
                if holder_class not in _supers(model, obj.classifier):
                    continue
                count = 0
                for link in objects.links:
                    if (link.association_name == assoc.name and len(link.ends) == 2
                            and link.ends[i] == obj.id):
                        count += 1
                subject = f"{obj.id}@{assoc.name}[{j}]"
                if count < end.multiplicity.lower:
                    rows.append(("mult-lower", subject))
                elif (end.multiplicity.upper is not None
                      and count > end.multiplicity.upper):
                    rows.append(("mult-upper", subject))

    return sorted(rows)
