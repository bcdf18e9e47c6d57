"""OCL-subset abstract syntax.

Expression nodes are treated as immutable.  `Nav` covers both attribute
access and association navigation; which one applies is resolved against
the class model at evaluation time, since the constraint text alone
cannot tell them apart.
"""

from __future__ import annotations

from typing import Optional

from modelkit.diagnostics import Record, SourceSpan
from modelkit.metamodel import Value

COLLECTION_OPS = ("size", "isEmpty", "notEmpty", "includes",
                  "forAll", "exists", "select", "collect")
NULLARY_OPS = ("size", "isEmpty", "notEmpty")


class OclExpr(Record):
    """Base of the expression nodes."""


class Literal(OclExpr):
    """A constant value."""

    def __init__(self, value: Value):
        self.value = value


class SelfRef(OclExpr):
    """`self`, the instance being checked."""


class VarRef(OclExpr):
    """A reference to an iterator variable or a session variable."""

    def __init__(self, name: str):
        self.name = name


class Nav(OclExpr):
    """`source.name`: an attribute read or an association navigation."""

    def __init__(self, source: OclExpr, name: str):
        self.source, self.name = source, name


class Unary(OclExpr):
    """`not` or negation (op 'not' or '-') applied to one operand."""

    def __init__(self, op: str, operand: OclExpr):
        self.op, self.operand = op, operand


class Binary(OclExpr):
    """An operator (* / + - < <= > >= = <> and or implies) on two operands."""

    def __init__(self, op: str, lhs: OclExpr, rhs: OclExpr):
        self.op, self.lhs, self.rhs = op, lhs, rhs


class If(OclExpr):
    """`if condition then ... else ... endif`."""

    def __init__(self, condition: OclExpr, then_branch: OclExpr, else_branch: OclExpr):
        self.condition, self.then_branch, self.else_branch = (
            condition, then_branch, else_branch)


class CollectionOp(OclExpr):
    """`source->op(...)`: a collection operation; `var` and `body` are the
    iterator variable and body, or `body` is the includes argument."""

    def __init__(self, source: OclExpr, op: str, var: Optional[str] = None,
                 body: Optional[OclExpr] = None):
        self.source, self.op = source, op
        self.var, self.body = var, body


class OclConstraint(Record):
    """A named invariant over every instance of its context class."""

    def __init__(self, context_class: str, name: str, body: OclExpr,
                 span: Optional[SourceSpan] = None):
        self.context_class, self.name = context_class, name
        self.body, self.span = body, span


class InstanceResult(Record):
    """The verdict ('true', 'false' or 'error') of one constraint on one instance."""

    def __init__(self, object_id: str, verdict: str, message: Optional[str] = None):
        self.object_id, self.verdict, self.message = object_id, verdict, message


class EvalResult(Record):
    """Per-instance outcome of evaluating one constraint.

    `message` is set for constraint-level failures (e.g. a context class
    that does not exist), in which case per_instance is empty.
    """

    def __init__(self, constraint: str, per_instance: Optional[list[InstanceResult]] = None,
                 message: Optional[str] = None):
        self.constraint, self.message = constraint, message
        self.per_instance = [] if per_instance is None else per_instance

    @property
    def passed(self) -> bool:
        return self.message is None and all(
            r.verdict == "true" for r in self.per_instance)
