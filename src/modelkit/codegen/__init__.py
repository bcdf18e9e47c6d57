"""Pluggable model-to-text generation.

A generator is a pure function from a class model to named text
artifacts; the registry maps stable ids to generators and preserves
registration order.  Outputs are deterministic: same model, same bytes.
"""

from __future__ import annotations

import importlib
import posixpath
import re
from typing import Callable, Optional

from modelkit.diagnostics import Diagnostic, Record
from modelkit.metamodel import AssociationEnd, ClassModel


class GeneratorError(Exception):
    """Registry misuse: duplicate or unknown generator id."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class GeneratedArtifact(Record):
    """One generated file: a normalized relative path and its text."""

    def __init__(self, relative_path: str, content: str):
        path = relative_path
        normalized = posixpath.normpath(path)
        if (path != normalized or posixpath.isabs(path)
                or normalized.startswith("..") or normalized == "."):
            raise ValueError(f"artifact path must be relative and normalized: {path!r}")
        self.relative_path, self.content = path, content


class GenerationResult(Record):
    """The files a generator produced and the diagnostics it reported."""

    def __init__(self, artifacts: Optional[list[GeneratedArtifact]] = None,
                 diagnostics: Optional[list[Diagnostic]] = None):
        self.artifacts = [] if artifacts is None else artifacts
        self.diagnostics = [] if diagnostics is None else diagnostics


class GeneratorRegistry:
    def __init__(self):
        self._generators: dict[str, Callable[[ClassModel], GenerationResult]] = {}

    def register(self, generator_id: str,
                 produce: Callable[[ClassModel], GenerationResult]) -> None:
        if generator_id in self._generators:
            raise GeneratorError("dup-generator",
                                 f"generator '{generator_id}' already registered")
        self._generators[generator_id] = produce

    def ids(self) -> list[str]:
        return list(self._generators)

    def generate(self, generator_id: str, model: ClassModel) -> GenerationResult:
        produce = self._generators.get(generator_id)
        if produce is None:
            raise GeneratorError(
                "no-such-generator",
                f"no generator '{generator_id}'; available: " + ", ".join(self.ids()))
        return produce(model)


_CAMEL_BOUNDARY_1 = re.compile(r"([A-Z]+)([A-Z][a-z0-9])")
_CAMEL_BOUNDARY_2 = re.compile(r"([a-z0-9])([A-Z])")


def snake_case(name: str) -> str:
    name = _CAMEL_BOUNDARY_1.sub(r"\1_\2", name)
    name = _CAMEL_BOUNDARY_2.sub(r"\1_\2", name)
    return name.lower()


def end_name(end: AssociationEnd) -> str:
    """The field or column name an association end gives its far side:
    its role, else its target class in snake_case."""
    return end.role if end.role is not None else snake_case(end.target)


def _builtin(module: str, name: str) -> Callable[[ClassModel], GenerationResult]:
    """Runs `modelkit.codegen.<module>.<name>`, imported and looked up as it runs."""
    return lambda model: getattr(importlib.import_module(f"modelkit.codegen.{module}"),
                                 name)(model)


def builtin_registry() -> GeneratorRegistry:
    """Registry with the two reference generators, "classes" then "sql"."""
    registry = GeneratorRegistry()
    registry.register("classes", _builtin("plainclasses", "generate_plain_classes"))
    registry.register("sql", _builtin("sqlddl", "generate_sql_ddl"))
    return registry
