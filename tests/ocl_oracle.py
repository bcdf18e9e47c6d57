"""Brute-force reference evaluator for the constraint language.

Deliberately shares no evaluation or navigation code with
modelkit.ocl.interp: inheritance closure, name resolution, and link
scans are all redone here, naively, from the documented semantics.  Only
the AST node classes and the model dataclasses are reused, as data.
"""

from modelkit.metamodel import BoolV, EnumV, FloatV, IntV, NULL, NullV, ObjectDef, StrV, Value
from modelkit.ocl.nodes import (
    Binary,
    CollectionOp,
    If,
    Literal,
    Nav,
    SelfRef,
    Unary,
    VarRef,
)


class OracleError(Exception):
    pass


def _supers(model, class_name):
    """Reflexive-transitive closure of the generalization relation."""
    closure = {class_name}
    changed = True
    while changed:
        changed = False
        for gen in model.generalizations:
            if gen.specific in closure and gen.general not in closure:
                closure.add(gen.general)
                changed = True
    return closure


def _flat_property_names(model, class_name):
    names = []
    for cls in model.classes:
        if cls.name in _supers(model, class_name):
            names.extend(p.name for p in cls.properties)
    return names


def _find_object(objects, object_id):
    for obj in objects.objects:
        if obj.id == object_id:
            return obj
    return None


def _class_known(model, name):
    return any(c.name == name for c in model.classes)


def _navigate(obj, name, objects, model):
    if _class_known(model, obj.classifier):
        if name in _flat_property_names(model, obj.classifier):
            for slot in obj.slots:
                if slot.property_name == name:
                    if isinstance(slot.value, EnumV):
                        return StrV(slot.value.literal)
                    return slot.value
            return NULL
    for assoc in model.associations:
        if len(assoc.ends) != 2:
            continue
        for j in (0, 1):
            far = assoc.ends[j]
            near = assoc.ends[1 - j]
            far_name = far.role if far.role is not None else far.target
            if far_name != name:
                continue
            if not (_class_known(model, obj.classifier)
                    and near.target in _supers(model, obj.classifier)):
                continue
            partners = []
            for link in objects.links:
                if link.association_name != assoc.name or len(link.ends) != 2:
                    continue
                if link.ends[1 - j] != obj.id:
                    continue
                partner = _find_object(objects, link.ends[j])
                if partner is None:
                    raise OracleError("dangling link end")
                partners.append(partner)
            if far.multiplicity.upper == 1:
                return partners[0] if partners else NULL
            return partners
    raise OracleError(f"no attribute or association '{name}'")


def _equal(a, b):
    numbers = (IntV, FloatV)
    if isinstance(a, numbers) and isinstance(b, numbers):
        return a.value == b.value
    if isinstance(a, ObjectDef) and isinstance(b, ObjectDef):
        return a.id == b.id
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, Value) and isinstance(b, Value):
        return type(a) is type(b) and a == b
    return False


def _truth(v, what):
    if not isinstance(v, BoolV):
        raise OracleError(f"{what} is not boolean")
    return v.value


def naive_eval(expr, env, objects, model):
    """env is a plain list of (name, value) pairs, innermost last."""
    match expr:
        case Literal(value=v):
            return v
        case SelfRef():
            return naive_eval(VarRef("self"), env, objects, model)
        case VarRef(name=name):
            for key, value in reversed(env):
                if key == name:
                    return value
            raise OracleError(f"unbound '{name}'")
        case Nav(source=src, name=name):
            base = naive_eval(src, env, objects, model)
            if isinstance(base, NullV):
                raise OracleError("navigation on null")
            if isinstance(base, list):
                raise OracleError("navigation on collection")
            if not isinstance(base, ObjectDef):
                raise OracleError("navigation on plain value")
            return _navigate(base, name, objects, model)
        case Unary(op="not", operand=operand):
            return BoolV(not _truth(naive_eval(operand, env, objects, model), "not"))
        case Unary(op="-", operand=operand):
            v = naive_eval(operand, env, objects, model)
            if isinstance(v, IntV):
                return IntV(-v.value)
            if isinstance(v, FloatV):
                return FloatV(-v.value)
            raise OracleError("negating a non-number")
        case Binary(op=("and" | "or" | "implies") as op, lhs=lhs, rhs=rhs):
            left = _truth(naive_eval(lhs, env, objects, model), "operand")
            if op == "and" and not left:
                return BoolV(False)
            if op == "or" and left:
                return BoolV(True)
            if op == "implies" and not left:
                return BoolV(True)
            return BoolV(_truth(naive_eval(rhs, env, objects, model), "operand"))
        case Binary(op=op, lhs=lhs, rhs=rhs):
            left = naive_eval(lhs, env, objects, model)
            right = naive_eval(rhs, env, objects, model)
            if op == "=":
                return BoolV(_equal(left, right))
            if op == "<>":
                return BoolV(not _equal(left, right))
            numbers = (IntV, FloatV)
            if op in ("+", "-", "*", "/"):
                if not (isinstance(left, numbers) and isinstance(right, numbers)):
                    raise OracleError("arithmetic on non-numbers")
                ints = isinstance(left, IntV) and isinstance(right, IntV)
                a, b = left.value, right.value
                if op == "+":
                    r = a + b
                elif op == "-":
                    r = a - b
                elif op == "*":
                    r = a * b
                else:
                    if b == 0:
                        raise OracleError("division by zero")
                    r = a // b if ints else a / b
                if ints:
                    return IntV(r)
                if r != r or r in (float("inf"), float("-inf")):
                    raise OracleError("float overflow")
                return FloatV(float(r))
            if isinstance(left, numbers) and isinstance(right, numbers):
                a, b = left.value, right.value
            elif isinstance(left, StrV) and isinstance(right, StrV):
                a, b = left.value, right.value
            else:
                raise OracleError("unorderable operands")
            return BoolV({"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op])
        case If(condition=c, then_branch=t, else_branch=e):
            branch = t if _truth(naive_eval(c, env, objects, model), "condition") else e
            return naive_eval(branch, env, objects, model)
        case CollectionOp(source=src, op=op, var=var, body=body):
            coll = naive_eval(src, env, objects, model)
            if not isinstance(coll, list):
                raise OracleError("collection op on non-collection")
            if op == "size":
                return IntV(len(coll))
            if op == "isEmpty":
                return BoolV(len(coll) == 0)
            if op == "notEmpty":
                return BoolV(len(coll) != 0)
            if op == "includes":
                needle = naive_eval(body, env, objects, model)
                return BoolV(any(_equal(item, needle) for item in coll))
            picked = []
            for item in coll:
                value = naive_eval(body, env + [(var, item)], objects, model)
                if op == "forAll" and not _truth(value, "forAll body"):
                    return BoolV(False)
                if op == "exists" and _truth(value, "exists body"):
                    return BoolV(True)
                if op == "select" and _truth(value, "select body"):
                    picked.append(item)
                if op == "collect":
                    if isinstance(value, list):
                        raise OracleError("nested collection from collect")
                    picked.append(value)
            if op == "forAll":
                return BoolV(True)
            if op == "exists":
                return BoolV(False)
            return picked
    raise OracleError(f"unknown node {expr!r}")


def naive_check(constraint, objects, model):
    """(object id, verdict) for every instance of the context class."""
    if not _class_known(model, constraint.context_class):
        return None  # constraint-level error
    rows = []
    for obj in objects.objects:
        if not _class_known(model, obj.classifier):
            continue
        if constraint.context_class not in _supers(model, obj.classifier):
            continue
        try:
            value = naive_eval(constraint.body, [("self", obj)], objects, model)
        except OracleError:
            rows.append((obj.id, "error"))
            continue
        if isinstance(value, BoolV):
            rows.append((obj.id, "true" if value.value else "false"))
        else:
            rows.append((obj.id, "error"))
    return rows
