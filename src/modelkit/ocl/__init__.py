"""Constraint language: parsing, AST, and interpretation."""

from modelkit.ocl.nodes import (
    Binary,
    CollectionOp,
    EvalResult,
    If,
    InstanceResult,
    Literal,
    Nav,
    OclConstraint,
    OclExpr,
    SelfRef,
    Unary,
    VarRef,
)
from modelkit.ocl.parser import OclParseResult, parse_expression, parse_ocl
from modelkit.ocl.interp import (
    OclRuntimeError,
    all_passed,
    check_all,
    evaluate_constraint,
    evaluate_expression,
)

__all__ = [
    "Binary", "CollectionOp", "EvalResult", "If", "InstanceResult",
    "Literal", "Nav", "OclConstraint", "OclExpr", "OclParseResult",
    "OclRuntimeError", "SelfRef", "Unary", "VarRef", "all_passed",
    "check_all", "evaluate_constraint", "evaluate_expression",
    "parse_expression", "parse_ocl",
]
