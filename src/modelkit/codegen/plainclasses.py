"""Plain-class source generator.

Emits one `<class>.gen` artifact per class: a class declaration whose
constructor takes every attribute (inherited ones first, general-most
class first) and assigns each to a field.  Association ends the class can
navigate become initialized fields, a list when the far end's upper
bound exceeds one, else None; they are not constructor parameters.
"""

from __future__ import annotations

from modelkit.codegen import (
    GeneratedArtifact,
    GenerationResult,
    end_name,
    snake_case,
)
from modelkit.index import ModelIndex
from modelkit.metamodel import ClassModel


def _association_fields(index: ModelIndex) -> dict[str, dict[str, bool]]:
    """Per class, field name -> is_collection for every far end reachable
    from it, in association order.

    A roleless self-association answers to one name from either side, so
    repeated names keep their first occurrence only.
    """
    fields: dict[str, dict[str, bool]] = {}
    for assoc in index.binary:
        for j in (0, 1):
            far = assoc.ends[j]
            fields.setdefault(assoc.ends[1 - j].target, {}).setdefault(
                end_name(far), far.multiplicity.upper != 1)
    return fields


def generate_plain_classes(model: ClassModel) -> GenerationResult:
    result = GenerationResult()
    index = ModelIndex(model)
    association_fields = _association_fields(index)
    for cls in model.classes:
        params = [p.name for p in index.flat(cls.name)]
        lines = [f"class {cls.name}:"]
        signature = ", ".join(["self"] + params)
        lines.append(f"    def __init__({signature}):")
        body = [f"        self.{name} = {name}" for name in params]
        for field_name, is_collection in association_fields.get(cls.name, {}).items():
            initial = "[]" if is_collection else "None"
            body.append(f"        self.{field_name} = {initial}")
        if not body:
            body = ["        pass"]
        lines.extend(body)
        result.artifacts.append(GeneratedArtifact(
            relative_path=f"{snake_case(cls.name)}.gen",
            content="\n".join(lines) + "\n"))
    return result
