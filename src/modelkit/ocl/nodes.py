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
ITERATOR_OPS = ("forAll", "exists", "select", "collect")


class OclExpr:
    pass


@dataclass
class Literal(OclExpr):
    value: Value


@dataclass
class SelfRef(OclExpr):
    pass


@dataclass
class VarRef(OclExpr):
    name: str


@dataclass
class Nav(OclExpr):
    source: OclExpr
    name: str


@dataclass
class Unary(OclExpr):
    op: str  # 'not' | '-'
    operand: OclExpr


@dataclass
class Binary(OclExpr):
    op: str  # * / + - < <= > >= = <> and or implies
    lhs: OclExpr
    rhs: OclExpr


@dataclass
class If(OclExpr):
    condition: OclExpr
    then_branch: OclExpr
    else_branch: OclExpr


@dataclass
class CollectionOp(OclExpr):
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
