"""Plain-class source generator.

Emits one `<class>.gen` artifact per class: a class declaration whose
constructor takes every attribute (inherited ones first, general-most
class first) and assigns each to a field.  Association ends the class can
navigate become initialized fields, a list when the far end's upper
bound exceeds one, else None; they are not constructor parameters.  A
class, attribute or end name the source cannot hold (a Python keyword, or
an attribute named `self`) is reported as `gen-unsupported` and left out,
and a class whose file name an earlier class took as `name-collision`.
"""

from __future__ import annotations

from keyword import iskeyword

from modelkit.codegen import (
    GeneratedArtifact,
    GenerationResult,
    end_name,
    snake_case,
)
from modelkit.diagnostics import error
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

    def usable(kind: str, name: str, subject: str, reserved: tuple = ()) -> bool:
        if not iskeyword(name) and name not in reserved:
            return True
        result.diagnostics.append(error(
            "gen-unsupported", f"{kind} '{subject}' is a reserved name in Python "
            f"and is left out", subject=subject))
        return False

    paths: set[str] = set()
    for cls in model.classes:
        if not usable("class", cls.name, cls.name):
            continue
        path = f"{snake_case(cls.name)}.gen"
        if path in paths:
            result.diagnostics.append(error(
                "name-collision", f"file name '{path}' produced twice after snake_case "
                f"mangling", subject=cls.name))
            continue
        paths.add(path)
        params = [p.name for p in index.flat(cls.name)
                  if usable("attribute", p.name, f"{cls.name}.{p.name}", ("self",))]
        lines = [f"class {cls.name}:"]
        signature = ", ".join(["self"] + params)
        lines.append(f"    def __init__({signature}):")
        body = [f"        self.{name} = {name}" for name in params]
        for field_name, is_collection in association_fields.get(cls.name, {}).items():
            if usable("association end", field_name, f"{cls.name}.{field_name}"):
                body.append(f"        self.{field_name} = {'[]' if is_collection else 'None'}")
        if not body:
            body = ["        pass"]
        lines.extend(body)
        result.artifacts.append(GeneratedArtifact(
            relative_path=path,
            content="\n".join(lines) + "\n"))
    return result
