"""Modeling kernel: class/object models, OCL checking, code generation,
state machines, and flexible modeling.

Exports are loaded on first use (PEP 562): `import modelkit` imports no
submodule, and `modelkit.X` or `from modelkit import X` imports only the
module that defines X.
"""

import importlib

# Each exported name, under the module that defines it.
_EXPORTS = {
    "modelkit.metamodel": (
        "Association", "AssociationEnd", "AttributeLink", "BoolV", "ClassDef",
        "ClassModel", "EnumDef", "EnumV", "FloatV", "Generalization", "IntV",
        "Link", "Multiplicity", "NULL", "NullV", "ObjectDef",
        "ObjectModel", "Property", "StrV", "Value"),
    "modelkit.index": ("ModelIndex", "validate_class_model"),
    "modelkit.diagnostics": (
        "Diagnostic", "ParseResult", "Severity", "SourceSpan", "has_errors"),
    "modelkit.conformance": ("check_conformance",),
    "modelkit.puml": ("parse_class_model", "serialize_class_model"),
    "modelkit.objtext": ("parse_object_model", "serialize_object_model"),
    "modelkit.ocl.interp": (
        "Scope", "check_all", "evaluate_constraint", "evaluate_expression"),
    "modelkit.ocl.nodes": ("EvalResult", "OclConstraint"),
    "modelkit.ocl.parser": ("parse_ocl",),
    "modelkit.codegen": (
        "GeneratedArtifact", "GeneratorError", "GeneratorRegistry", "builtin_registry"),
    "modelkit.fsm": (
        "Session", "State", "StateMachine", "StepError", "TraceEntry",
        "Transition", "format_trace", "new_session", "parse_machine",
        "parse_scenario", "run_scenario", "step", "validate_machine"),
    "modelkit.flex": ("enforce_conformance", "infer_class_model"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        globals()[name] = value = getattr(importlib.import_module(_HOME[name]), name)
        return value
    found = [importlib.import_module(m) for m in _EXPORTS if m.split(".")[1] == name]
    if found:  # a submodule, loaded with each module in it that exports a name
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
