"""Big-step evaluation of the OCL subset: each node's `evaluate` (in
`ocl.nodes`) reads the population and model through a `Scope`.

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

from functools import cached_property
from typing import TYPE_CHECKING

from modelkit.metamodel import NULL, BoolV, ClassModel, EnumV, ObjectDef, ObjectModel, StrV
from modelkit.ocl.nodes import (EvalResult, Evaluated, InstanceResult, OclConstraint,
                                OclExpr, OclRuntimeError)

if TYPE_CHECKING:  # imported where an index is built: a guard builds none
    from modelkit.index import ModelIndex, PopulationIndex


class Scope:
    """The population and model an evaluation reads, each indexed on first
    use: an expression that never navigates builds no index."""

    def __init__(self, objects: ObjectModel, model: ClassModel):
        self.objects, self.model = objects, model

    @cached_property
    def types(self) -> ModelIndex:
        from modelkit.index import ModelIndex

        return ModelIndex(self.model)

    @cached_property
    def links(self) -> PopulationIndex:
        from modelkit.index import PopulationIndex

        return PopulationIndex(self.objects)

    def navigate(self, obj: ObjectDef, name: str) -> Evaluated:
        """`obj.name`: the slot's value, or the object or objects linked to
        obj by the association end `name` answers to."""
        found = self.types.navigation(obj.classifier, name)
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
        population, partners = self.links, []
        for link in population.linked(assoc.name, 1 - j, obj.id):
            partner = population.objects.get(link.ends[j])
            if partner is None:
                raise OclRuntimeError(
                    f"link of '{assoc.name}' references unknown object "
                    f"'{link.ends[j]}'")
            partners.append(partner)
        if assoc.ends[j].multiplicity.upper == 1:
            return partners[0] if partners else NULL
        return partners


def evaluate_expression(expr: OclExpr, env: dict[str, Evaluated], scope: Scope) -> Evaluated:
    """Evaluate one expression over `scope`, with `env` binding its free
    variables (and `self`), which it only reads; raises OclRuntimeError on
    type errors, division by zero, float overflow, null navigation, unknown
    names and nesting too deep for the interpreter's stack."""
    try:
        return expr.evaluate(env, scope)
    except RecursionError:
        raise OclRuntimeError("expression nested too deeply") from None
    except OverflowError:  # an int past a float's range met a float
        raise OclRuntimeError("integer too large to convert to float") from None


def evaluate_constraint(constraint: OclConstraint, scope: Scope) -> EvalResult:
    """Evaluate one invariant over every instance of its context class,
    subclass instances included, in object declaration order."""
    context = constraint.context_class
    if context not in scope.types.classes:
        return EvalResult(
            constraint=constraint.name,
            message=f"unknown context class '{context}'")
    result = EvalResult(constraint=constraint.name)
    conforms: dict[str, bool] = {}  # decided once per classifier
    env: dict[str, Evaluated] = {}
    for obj in scope.objects.objects:
        if obj.classifier not in conforms:
            conforms[obj.classifier] = scope.types.conforms(obj.classifier, context)
        if not conforms[obj.classifier]:
            continue
        env["self"] = obj
        try:
            value = evaluate_expression(constraint.body, env, scope)
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
    """Evaluate every constraint in declaration order over one `Scope`."""
    scope = Scope(objects, model)
    return [evaluate_constraint(c, scope) for c in constraints]
