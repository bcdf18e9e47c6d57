"""OCL-subset abstract syntax, and the evaluation of each node.

Expression nodes are treated as immutable.  `Nav` covers both attribute
access and association navigation; which one applies is resolved against
the class model at evaluation time, since the constraint text alone
cannot tell them apart.  Each node evaluates itself; `ocl.interp` states how.
"""

from __future__ import annotations

import operator
from math import isfinite
from typing import TYPE_CHECKING, Optional, Union

from modelkit.diagnostics import Record, SourceSpan
from modelkit.metamodel import ObjectDef, Value

if TYPE_CHECKING:
    from modelkit.ocl.interp import Scope

COLLECTION_OPS = ("size", "isEmpty", "notEmpty", "includes",
                  "forAll", "exists", "select", "collect")
NULLARY_OPS = ("size", "isEmpty", "notEmpty")

# What an expression can evaluate to: a plain value, an object reference,
# or an ordered collection of either.
Evaluated = Union[Value, ObjectDef, list]
# Numbers are told apart by exact type, so that a bool is never one.
_NUMBER = (int, float)


class OclRuntimeError(Exception):
    pass


def value_equal(a: Evaluated, b: Evaluated) -> bool:
    """Total equality: numeric across int/float, objects by id, collections
    pairwise; any other kind mismatch is simply unequal."""
    kind = type(a)
    if kind in _NUMBER and type(b) in _NUMBER:
        return a == b
    if kind is not type(b):
        return False
    if kind is ObjectDef:
        return a.id == b.id
    if kind is list:
        return len(a) == len(b) and all(value_equal(x, y) for x, y in zip(a, b))
    return a == b  # two values of one type


def _require_bool(v: Evaluated, context: str, op: str = "") -> bool:
    """v's truth; `context`, with `op` in place of its `{}`, names v in the
    error, formatted only then."""
    if type(v) is bool:
        return v
    raise OclRuntimeError(f"{context.format(op)} is not a boolean")


class OclExpr(Record):
    """Base of the expression nodes."""

    def evaluate(self, env: dict[str, Evaluated], scope: Scope) -> Evaluated:
        """This node's value, with `env` binding the variables (`self`
        included), which it only reads, and `scope` the population and model
        it navigates; raises OclRuntimeError."""
        raise OclRuntimeError(f"unknown expression node {type(self).__name__}")


class Literal(OclExpr):
    """A constant value."""

    def __init__(self, value: Value):
        self.value = value

    def evaluate(self, env, scope) -> Evaluated:
        return self.value


class VarRef(OclExpr):
    """A reference to an iterator variable or a session variable."""

    def __init__(self, name: str):
        self.name = name

    def evaluate(self, env, scope) -> Evaluated:
        try:
            return env[self.name]
        except KeyError:
            raise OclRuntimeError(f"unbound variable '{self.name}'") from None


class SelfRef(OclExpr):
    """`self`, the instance being checked: the variable of that name."""

    name = "self"
    evaluate = VarRef.evaluate


class Nav(OclExpr):
    """`source.name`: an attribute read or an association navigation."""

    def __init__(self, source: OclExpr, name: str):
        self.source, self.name = source, name

    def evaluate(self, env, scope) -> Evaluated:
        source = self.source.evaluate(env, scope)
        if isinstance(source, ObjectDef):
            return scope.navigate(source, self.name)
        if source is None:
            raise OclRuntimeError(f"navigation '{self.name}' on null")
        if isinstance(source, list):
            raise OclRuntimeError(
                f"navigation '{self.name}' on a collection (no implicit collect)")
        raise OclRuntimeError(f"navigation '{self.name}' on a plain value")


class Unary(OclExpr):
    """`not` or negation (op 'not' or '-') applied to one operand."""

    def __init__(self, op: str, operand: OclExpr):
        self.op, self.operand = op, operand

    def evaluate(self, env, scope) -> Evaluated:
        operand = self.operand.evaluate(env, scope)
        if self.op == "not":
            return not _require_bool(operand, "operand of 'not'")
        if self.op != "-":
            raise OclRuntimeError(f"unknown operator '{self.op}'")
        if type(operand) in _NUMBER:
            return -operand
        raise OclRuntimeError("unary '-' on a non-number")


def _short_circuit(node: Binary, rule: tuple, env, scope) -> Evaluated:
    """`and`/`or`/`implies`; `rule` is (the left truth that decides, the result)."""
    deciding, result = rule
    lhs = node.lhs.evaluate(env, scope)
    if type(lhs) is not bool:
        raise OclRuntimeError(f"left operand of '{node.op}' is not a boolean")
    if lhs == deciding:
        return result
    rhs = node.rhs.evaluate(env, scope)
    if type(rhs) is not bool:
        raise OclRuntimeError(f"right operand of '{node.op}' is not a boolean")
    return rhs


def _equality(node: Binary, negated: bool, env, scope) -> Evaluated:
    return value_equal(node.lhs.evaluate(env, scope),
                       node.rhs.evaluate(env, scope)) != negated


def _divide(a, b):
    """`/`: floors two ints; a zero divisor is an error."""
    if b == 0:
        raise OclRuntimeError("division by zero")
    return a // b if type(a) is int and type(b) is int else a / b


def _arithmetic(node: Binary, compute, env, scope) -> Evaluated:
    lhs, rhs = node.lhs.evaluate(env, scope), node.rhs.evaluate(env, scope)
    if type(lhs) not in _NUMBER or type(rhs) not in _NUMBER:
        raise OclRuntimeError(f"arithmetic '{node.op}' on non-numbers")
    r = compute(lhs, rhs)  # an int from two ints, else a float
    if type(r) is float and not isfinite(r):
        raise OclRuntimeError(f"float overflow in '{node.op}'")
    return r


def _ordering(node: Binary, compare, env, scope) -> Evaluated:
    lhs, rhs = node.lhs.evaluate(env, scope), node.rhs.evaluate(env, scope)
    if not (type(lhs) in _NUMBER and type(rhs) in _NUMBER
            or type(lhs) is str and type(rhs) is str):
        raise OclRuntimeError(f"comparison '{node.op}' needs two numbers or two strings")
    return compare(lhs, rhs)


def _unknown(node: Binary, _, env, scope) -> Evaluated:
    node.lhs.evaluate(env, scope)
    node.rhs.evaluate(env, scope)
    raise OclRuntimeError(f"unknown operator '{node.op}'")


# op -> (its family's function, what that function needs to know of op)
_BINARY = {
    "and": (_short_circuit, (False, False)), "or": (_short_circuit, (True, True)),
    "implies": (_short_circuit, (False, True)),
    "=": (_equality, False), "<>": (_equality, True),
    "+": (_arithmetic, operator.add), "-": (_arithmetic, operator.sub),
    "*": (_arithmetic, operator.mul), "/": (_arithmetic, _divide),
    "<": (_ordering, operator.lt), "<=": (_ordering, operator.le),
    ">": (_ordering, operator.gt), ">=": (_ordering, operator.ge),
}
_UNKNOWN = (_unknown, None)


class Binary(OclExpr):
    """An operator (* / + - < <= > >= = <> and or implies) on two operands."""

    def __init__(self, op: str, lhs: OclExpr, rhs: OclExpr):
        self.op, self.lhs, self.rhs = op, lhs, rhs

    def evaluate(self, env, scope) -> Evaluated:
        family, how = _BINARY.get(self.op, _UNKNOWN)
        return family(self, how, env, scope)


class If(OclExpr):
    """`if condition then ... else ... endif`."""

    def __init__(self, condition: OclExpr, then_branch: OclExpr, else_branch: OclExpr):
        self.condition, self.then_branch, self.else_branch = (
            condition, then_branch, else_branch)

    def evaluate(self, env, scope) -> Evaluated:
        cond = _require_bool(self.condition.evaluate(env, scope), "if condition")
        return (self.then_branch if cond else self.else_branch).evaluate(env, scope)


class CollectionOp(OclExpr):
    """`source->op(...)`: a collection operation; `var` and `body` are the
    iterator variable and body, or `body` is the includes argument."""

    def __init__(self, source: OclExpr, op: str, var: Optional[str] = None,
                 body: Optional[OclExpr] = None):
        self.source, self.op = source, op
        self.var, self.body = var, body

    def evaluate(self, env, scope) -> Evaluated:
        source = self.source.evaluate(env, scope)
        if not isinstance(source, list):
            raise OclRuntimeError(f"'->{self.op}' on a non-collection")
        op = self.op
        if op == "size":
            return len(source)
        if op == "isEmpty":
            return not source
        if op == "notEmpty":
            return bool(source)
        if op == "includes":
            needle = self.body.evaluate(env, scope)
            return any(value_equal(item, needle) for item in source)
        if op not in ("forAll", "exists", "select", "collect"):
            raise OclRuntimeError(f"unknown operator '{op}'")

        # Rebinding in a copy made once per loop never writes the caller's dict.
        results: list[Evaluated] = []
        var, body, inner = self.var, self.body, dict(env)
        for item in source:
            inner[var] = item
            value = body.evaluate(inner, scope)
            if op == "collect":
                if isinstance(value, list):
                    raise OclRuntimeError("collect body produced a nested collection")
                results.append(value)
            elif _require_bool(value, "{} body", op):
                if op == "exists":
                    return True
                if op == "select":
                    results.append(item)
            elif op == "forAll":
                return False
        # No item decided: forAll holds and exists fails.
        return results if op in ("select", "collect") else op == "forAll"


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
