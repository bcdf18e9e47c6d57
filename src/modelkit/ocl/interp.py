"""Big-step evaluator for the OCL subset.

Semantics, in brief:

- Arithmetic on int/float: a float operand promotes the result, int `/`
  int floors, and zero divisors and float overflow are runtime errors.
- `and`/`or`/`implies` short-circuit on the left operand and demand
  booleans; `if` demands a boolean condition and evaluates one branch.
- `=`/`<>` are total: numbers compare by value across int/float, objects
  by identity, collections pairwise; any other kind mismatch (null
  included) is plain inequality, never an error.
- Ordering `< <= > >=` covers numbers and strings (lexicographic).
- Navigating `x.name` first tries a property of x's class: the slot value,
  null when the slot is omitted, with enum values read as their literal
  string.  Otherwise it is association navigation via the first
  declaration whose far end answers to `name` (role, or target class name
  when the role is absent): ends with upper bound 1 yield the linked
  object or null, anything else yields the ordered collection of linked
  objects.  Navigating on null, on a collection, or via an unknown name
  is a runtime error.
- `->` operations require a collection source.  forAll over an empty
  collection is true and exists is false; both stop at the first deciding
  element.  select keeps source order; collect refuses collection-valued
  bodies (no nesting).
- Variables, `self` included, are read from one plain dict that the
  evaluator never writes: an iterator binds its variable in a copy made
  once per loop, so the innermost binding of a name wins.

Runtime errors never escape a constraint evaluation: they become the
per-instance verdict 'error'.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import isfinite
from typing import TYPE_CHECKING, Optional, Union

from modelkit.metamodel import (
    BOOLS,
    BoolV,
    ClassModel,
    EnumV,
    FALSE,
    FloatV,
    IntV,
    NullV,
    NULL,
    ObjectDef,
    ObjectModel,
    StrV,
    TRUE,
    Value,
)
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

if TYPE_CHECKING:  # imported where an index is built: a guard builds none
    from modelkit.index import ModelIndex, PopulationIndex

# What an expression can evaluate to: a plain value, an object reference,
# or an ordered collection of either.
Evaluated = Union[Value, ObjectDef, list]
# Values are told apart by exact class, as nodes are by `_HANDLERS`:
# `isinstance` against a record class calls the record metaclass's
# `__instancecheck__` unless the value is of exactly that class.
_NUMBER = (IntV, FloatV)


class OclRuntimeError(Exception):
    pass


class Scope:
    """The population and model an evaluation reads, each indexed on first
    use: an expression that never navigates builds no index."""

    def __init__(self, objects: ObjectModel, model: ClassModel):
        self.objects = objects
        self.model = model

    @cached_property
    def types(self) -> ModelIndex:
        from modelkit.index import ModelIndex

        return ModelIndex(self.model)

    @cached_property
    def links(self) -> PopulationIndex:
        from modelkit.index import PopulationIndex

        return PopulationIndex(self.objects)


def value_equal(a: Evaluated, b: Evaluated) -> bool:
    """Total equality: numeric across int/float, objects by id, collections
    pairwise; any other kind mismatch is simply unequal."""
    kind = type(a)
    if kind in _NUMBER and type(b) in _NUMBER:
        return a.value == b.value
    if kind is not type(b):
        return False
    if kind is ObjectDef:
        return a.id == b.id
    if kind is list:
        return len(a) == len(b) and all(value_equal(x, y) for x, y in zip(a, b))
    return a == b  # two values of one class


def _navigate(obj: ObjectDef, name: str, scope: Scope) -> Evaluated:
    found = scope.types.navigation(obj.classifier, name)
    if found is None:
        raise OclRuntimeError(
            f"'{obj.classifier}' has no attribute or association '{name}'")
    if not isinstance(found, tuple):
        slot = obj.slot(name)
        if slot is None:
            return NULL
        if type(slot.value) is EnumV:
            return StrV(slot.value.literal)  # enum literals read as strings
        return slot.value
    assoc, j = found
    population, partners = scope.links, []
    for link in population.linked(assoc.name, 1 - j, obj.id):
        partner = population.objects.get(link.ends[j].object_id)
        if partner is None:
            raise OclRuntimeError(
                f"link of '{assoc.name}' references unknown object "
                f"'{link.ends[j].object_id}'")
        partners.append(partner)
    if assoc.ends[j].multiplicity.upper == 1:
        return partners[0] if partners else NULL
    return partners


def _lookup(env: dict[str, Evaluated], name: str) -> Evaluated:
    try:
        return env[name]
    except KeyError:
        raise OclRuntimeError(f"unbound variable '{name}'") from None


def _require_bool(v: Evaluated, context: str, op: str = "") -> bool:
    """v's truth; `context`, with `op` in place of its `{}`, names v in the
    error, formatted only then."""
    if isinstance(v, BoolV):
        return v.value
    raise OclRuntimeError(f"{context.format(op)} is not a boolean")


def evaluate_expression(expr: OclExpr, env: dict[str, Evaluated], objects: ObjectModel,
                        model: ClassModel) -> Evaluated:
    """Evaluate one expression with `env` binding its free variables (and
    `self`), which it only reads; raises OclRuntimeError on type errors,
    division by zero, float overflow, null navigation, unknown names and
    nesting too deep for the interpreter's stack."""
    return _eval_top(expr, env, Scope(objects, model))


def _eval_top(expr: OclExpr, env: dict[str, Evaluated], scope: Scope) -> Evaluated:
    try:
        return _eval(expr, env, scope)
    except RecursionError:
        raise OclRuntimeError("expression nested too deeply") from None
    except OverflowError:  # an int past a float's range met a float
        raise OclRuntimeError("integer too large to convert to float") from None


def _eval(expr: OclExpr, env: dict[str, Evaluated], scope: Scope) -> Evaluated:
    return _HANDLERS.get(type(expr), _eval_unknown)(expr, env, scope)


def _eval_unknown(expr, env, scope) -> Evaluated:
    raise OclRuntimeError(f"unknown expression node {type(expr).__name__}")


def _eval_nav(expr, env, scope) -> Evaluated:
    source = _eval(expr.source, env, scope)
    if isinstance(source, ObjectDef):
        return _navigate(source, expr.name, scope)
    if isinstance(source, NullV):
        raise OclRuntimeError(f"navigation '{expr.name}' on null")
    if isinstance(source, list):
        raise OclRuntimeError(
            f"navigation '{expr.name}' on a collection (no implicit collect)")
    raise OclRuntimeError(f"navigation '{expr.name}' on a plain value")


def _eval_if(expr, env, scope) -> Evaluated:
    cond = _require_bool(_eval(expr.condition, env, scope), "if condition")
    return _eval(expr.then_branch if cond else expr.else_branch, env, scope)


def _eval_unary(expr, env, scope) -> Evaluated:
    operand = _eval(expr.operand, env, scope)
    if expr.op == "not":
        return BOOLS[not _require_bool(operand, "operand of 'not'")]
    if expr.op != "-":
        raise OclRuntimeError(f"unknown operator '{expr.op}'")
    if type(operand) in _NUMBER:
        return type(operand)(-operand.value)
    raise OclRuntimeError("unary '-' on a non-number")


# op -> (the left operand's value that decides the result, that result)
_SHORT_CIRCUIT = {"and": (False, FALSE), "or": (True, TRUE), "implies": (False, TRUE)}
# `/` maps to None: it checks for zero and floors two ints, below.
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": None}
_ORDERING = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _eval_binary(expr, env, scope) -> Evaluated:
    op = expr.op
    if op in _SHORT_CIRCUIT:
        decides, result = _SHORT_CIRCUIT[op]
        if _require_bool(_eval(expr.lhs, env, scope), "left operand of '{}'", op) == decides:
            return result
        return BOOLS[_require_bool(_eval(expr.rhs, env, scope), "right operand of '{}'", op)]

    lhs = _eval(expr.lhs, env, scope)
    rhs = _eval(expr.rhs, env, scope)

    if op == "=":
        return BOOLS[value_equal(lhs, rhs)]
    if op == "<>":
        return BOOLS[not value_equal(lhs, rhs)]

    if op in _ARITHMETIC:
        if not (type(lhs) in _NUMBER and type(rhs) in _NUMBER):
            raise OclRuntimeError(f"arithmetic '{op}' on non-numbers")
        a, b = lhs.value, rhs.value
        both_int = type(lhs) is IntV and type(rhs) is IntV
        if op != "/":
            r = _ARITHMETIC[op](a, b)
        elif b == 0:
            raise OclRuntimeError("division by zero")
        else:
            r = a // b if both_int else a / b
        if both_int:
            return IntV(r)
        if not isfinite(r):
            raise OclRuntimeError(f"float overflow in '{op}'")
        return FloatV(float(r))

    compare = _ORDERING.get(op)
    if compare is None:
        raise OclRuntimeError(f"unknown operator '{op}'")
    if not (type(lhs) in _NUMBER and type(rhs) in _NUMBER
            or type(lhs) is StrV and type(rhs) is StrV):
        raise OclRuntimeError(f"comparison '{op}' needs two numbers or two strings")
    return BOOLS[compare(lhs.value, rhs.value)]


def _eval_collection_op(expr, env, scope) -> Evaluated:
    source = _eval(expr.source, env, scope)
    if not isinstance(source, list):
        raise OclRuntimeError(f"'->{expr.op}' on a non-collection")
    op = expr.op
    if op == "size":
        return IntV(len(source))
    if op == "isEmpty":
        return BOOLS[not source]
    if op == "notEmpty":
        return BOOLS[bool(source)]
    if op == "includes":
        needle = _eval(expr.body, env, scope)
        return BOOLS[any(value_equal(item, needle) for item in source)]
    if op not in ("forAll", "exists", "select", "collect"):
        raise OclRuntimeError(f"unknown operator '{op}'")

    # Rebinding in a copy made once per loop never writes the caller's dict.
    results: list[Evaluated] = []
    var, body, inner = expr.var, expr.body, dict(env)
    for item in source:
        inner[var] = item
        value = _eval(body, inner, scope)
        if op == "forAll":
            if not _require_bool(value, "forAll body"):
                return FALSE
        elif op == "exists":
            if _require_bool(value, "exists body"):
                return TRUE
        elif op == "select":
            if _require_bool(value, "select body"):
                results.append(item)
        else:  # collect
            if isinstance(value, list):
                raise OclRuntimeError("collect body produced a nested collection")
            results.append(value)
    # No item decided: forAll holds and exists fails.
    return results if op in ("select", "collect") else BOOLS[op == "forAll"]


# The handler of each node type; a type not listed is reported, not guessed.
_HANDLERS = {
    Literal: lambda expr, env, scope: expr.value,
    SelfRef: lambda expr, env, scope: _lookup(env, "self"),
    VarRef: lambda expr, env, scope: _lookup(env, expr.name),
    Nav: _eval_nav,
    Unary: _eval_unary,
    Binary: _eval_binary,
    If: _eval_if,
    CollectionOp: _eval_collection_op,
}


def evaluate_constraint(constraint: OclConstraint, objects: ObjectModel,
                        model: ClassModel, *, scope: Optional[Scope] = None
                        ) -> EvalResult:
    """Evaluate one invariant over every instance of its context class,
    subclass instances included, in object declaration order.  `scope`
    shares indexes among constraints over the same objects and model."""
    scope = scope or Scope(objects, model)
    context = constraint.context_class
    if context not in scope.types.classes:
        return EvalResult(
            constraint=constraint.name,
            message=f"unknown context class '{context}'")
    result = EvalResult(constraint=constraint.name)
    conforms: dict[str, bool] = {}  # decided once per classifier
    env: dict[str, Evaluated] = {}
    for obj in objects.objects:
        if obj.classifier not in conforms:
            conforms[obj.classifier] = scope.types.conforms(obj.classifier, context)
        if not conforms[obj.classifier]:
            continue
        env["self"] = obj
        try:
            value = _eval_top(constraint.body, env, scope)
        except OclRuntimeError as exc:
            result.per_instance.append(
                InstanceResult(obj.id, "error", str(exc)))
            continue
        if isinstance(value, BoolV):
            result.per_instance.append(
                InstanceResult(obj.id, "true" if value.value else "false"))
        else:
            result.per_instance.append(
                InstanceResult(obj.id, "error", "invariant did not yield a boolean"))
    return result


def check_all(constraints: list[OclConstraint], objects: ObjectModel,
              model: ClassModel) -> list[EvalResult]:
    """Evaluate every constraint in declaration order."""
    scope = Scope(objects, model)
    return [evaluate_constraint(c, objects, model, scope=scope) for c in constraints]


def all_passed(results: list[EvalResult]) -> bool:
    return all(r.passed for r in results)
