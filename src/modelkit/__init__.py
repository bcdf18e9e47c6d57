"""Modeling kernel: class/object models, OCL checking, code generation,
state machines, and flexible modeling."""

from modelkit.metamodel import (
    Association,
    AssociationEnd,
    AttributeLink,
    BoolV,
    ClassDef,
    ClassModel,
    EnumDef,
    EnumV,
    FloatV,
    Generalization,
    IntV,
    Link,
    LinkEnd,
    Multiplicity,
    NULL,
    NullV,
    ObjectDef,
    ObjectModel,
    Property,
    StrV,
    Value,
    all_properties,
    is_subclass_of,
    validate_class_model,
)
from modelkit.diagnostics import (
    Diagnostic,
    ParseResult,
    Severity,
    SourceSpan,
    has_errors,
)
from modelkit.conformance import check_conformance
from modelkit.puml import parse_class_model, serialize_class_model
from modelkit.objtext import parse_object_model, serialize_object_model
from modelkit.ocl import (
    EvalResult,
    OclConstraint,
    check_all,
    evaluate_constraint,
    evaluate_expression,
    parse_ocl,
)
from modelkit.codegen import (
    GeneratedArtifact,
    GeneratorDescriptor,
    GeneratorError,
    GeneratorRegistry,
    builtin_registry,
)
from modelkit.fsm import (
    Session,
    State,
    StateMachine,
    StepError,
    TraceEntry,
    Transition,
    format_trace,
    new_session,
    parse_machine,
    parse_scenario,
    run_scenario,
    step,
    validate_machine,
)
from modelkit.flex import enforce_conformance, infer_class_model

__all__ = [
    "Association", "AssociationEnd", "AttributeLink", "BoolV", "ClassDef",
    "ClassModel", "Diagnostic", "EnumDef", "EnumV", "EvalResult", "FloatV",
    "GeneratedArtifact", "Generalization", "GeneratorDescriptor",
    "GeneratorError", "GeneratorRegistry", "IntV", "Link", "LinkEnd",
    "Multiplicity", "NULL", "NullV", "ObjectDef", "ObjectModel",
    "OclConstraint", "ParseResult", "Property", "Session", "Severity",
    "SourceSpan", "State", "StateMachine", "StepError", "StrV", "TraceEntry",
    "Transition", "Value", "all_properties", "builtin_registry", "check_all",
    "check_conformance", "enforce_conformance", "evaluate_constraint",
    "evaluate_expression", "format_trace", "has_errors", "infer_class_model",
    "is_subclass_of", "new_session", "parse_class_model", "parse_machine",
    "parse_object_model", "parse_ocl", "parse_scenario", "run_scenario",
    "serialize_class_model", "serialize_object_model", "step",
    "validate_class_model", "validate_machine",
]
