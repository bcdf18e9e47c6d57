"""OCL-subset abstract syntax.

Expression nodes are treated as immutable.  `Nav` covers both attribute
access and association navigation; which one applies is resolved against
the class model at evaluation time, since the constraint text alone
cannot tell them apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from modelkit.diagnostics import SourceSpan
from modelkit.metamodel import Value

COLLECTION_OPS = ("size", "isEmpty", "notEmpty", "includes",
                  "forAll", "exists", "select", "collect")
NULLARY_OPS = ("size", "isEmpty", "notEmpty")


class OclExpr:
    pass


@dataclass
class Literal(OclExpr):
    """A constant value."""

    value: Value


@dataclass
class SelfRef(OclExpr):
    """`self`, the instance being checked."""


@dataclass
class VarRef(OclExpr):
    """A reference to an iterator variable or a session variable."""

    name: str


@dataclass
class Nav(OclExpr):
    """`source.name`: an attribute read or an association navigation."""

    source: OclExpr
    name: str


@dataclass
class Unary(OclExpr):
    """`not` or negation applied to one operand."""

    op: str  # 'not' | '-'
    operand: OclExpr


@dataclass
class Binary(OclExpr):
    """An arithmetic, comparison or logical operator on two operands."""

    op: str  # * / + - < <= > >= = <> and or implies
    lhs: OclExpr
    rhs: OclExpr


@dataclass
class If(OclExpr):
    """`if condition then ... else ... endif`."""

    condition: OclExpr
    then_branch: OclExpr
    else_branch: OclExpr


@dataclass
class CollectionOp(OclExpr):
    """`source->op(...)`: a collection operation, with an iterator or argument."""

    source: OclExpr
    op: str
    var: Optional[str] = None  # iterator variable for forAll/exists/select/collect
    body: Optional[OclExpr] = None  # iterator body, or the includes argument


@dataclass
class OclConstraint:
    """A named invariant over every instance of its context class."""

    context_class: str
    name: str
    body: OclExpr
    span: Optional[SourceSpan] = field(default=None, compare=False)


@dataclass
class InstanceResult:
    """The verdict of one constraint on one instance."""

    object_id: str
    verdict: str  # 'true' | 'false' | 'error'
    message: Optional[str] = None


@dataclass
class EvalResult:
    """Per-instance outcome of evaluating one constraint.

    `message` is set for constraint-level failures (e.g. a context class
    that does not exist), in which case per_instance is empty.
    """

    constraint: str
    per_instance: list[InstanceResult] = field(default_factory=list)
    message: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.message is None and all(
            r.verdict == "true" for r in self.per_instance)
