"""Differential tests of the indexed checks against the naive oracles.

The populations are larger than in the per-module suites and carry the
cases where an index could differ from a linear scan: an object id
declared twice (lookups are first-wins), a link end naming an object that
does not exist, and subclass instances at link ends.
"""

import random

from modelkit.conformance import check_conformance
from modelkit.flex import enforce_conformance
from modelkit.metamodel import (
    AttributeLink,
    ClassDef,
    ClassModel,
    Generalization,
    Link,
    ObjectDef,
    ObjectModel,
    Property,
)
from modelkit.ocl.interp import check_all
from modelkit.ocl.nodes import Binary, Literal, Nav, OclConstraint, SelfRef
from brute_conf import brute_conformance
from model_gen import random_expression, random_instanced_model
from ocl_oracle import naive_check


def messy_population(rng):
    model, objects = random_instanced_model(rng, max_objects=200, max_links=400)
    if not objects.objects:
        objects.objects.append(ObjectDef("o0", model.classes[0].name))

    # A subclass instance at an end typed by the subclass's general.
    assoc = rng.choice(model.associations)
    pos = rng.randrange(2)
    model.classes.append(ClassDef("Sub", properties=[Property("psub", "int")]))
    model.generalizations.append(Generalization(assoc.ends[pos].target, "Sub"))
    sub = ObjectDef("sub0", "Sub", slots=[AttributeLink("psub", 1)])
    objects.objects.insert(rng.randrange(len(objects.objects) + 1), sub)
    for _ in range(rng.randint(1, 3)):
        ends = [rng.choice(objects.objects).id for _ in range(2)]
        ends[pos] = sub.id
        objects.links.insert(rng.randrange(len(objects.links) + 1),
                             Link(assoc.name, tuple(ends)))

    # An object that reuses an existing id, before or after the original.
    twin = ObjectDef(rng.choice(objects.objects).id, rng.choice(model.classes).name)
    objects.objects.insert(rng.randrange(len(objects.objects) + 1), twin)

    # A link end naming an object that does not exist, opposite the
    # subclass instance so that navigating from it reaches the dangling end.
    ends = ["ghost", "ghost"]
    ends[pos] = sub.id
    objects.links.insert(rng.randrange(len(objects.links) + 1),
                         Link(assoc.name, tuple(ends)))
    far = assoc.ends[1 - pos].nav_name()
    probe = OclConstraint("Sub", "probe", Binary("=", Nav(SelfRef(), far),
                                                 Nav(SelfRef(), far)))
    return model, objects, probe


def test_conformance_agrees_with_brute_force():
    rng = random.Random(8101)
    for case in range(25):
        model, objects, _ = messy_population(rng)
        mine = sorted((d.code, d.subject) for d in check_conformance(objects, model))
        assert mine == brute_conformance(objects, model), f"case {case}"


def test_evaluator_agrees_with_the_naive_oracle():
    rng = random.Random(8102)
    verdicts = []
    for case in range(25):
        model, objects, probe = messy_population(rng)
        constraints = [probe] + [
            OclConstraint(rng.choice(model.classes).name, f"inv{k}",
                          random_expression(rng, model, depth=4))
            for k in range(4)
        ]
        for constraint, result in zip(constraints, check_all(constraints, objects, model)):
            expected = naive_check(constraint, objects, model)
            got = [(r.object_id, r.verdict) for r in result.per_instance]
            assert got == expected, f"case {case}, {constraint.name}: {constraint.body}"
            verdicts.extend(result.per_instance)
    assert any("references unknown object 'ghost'" in (r.message or "")
               for r in verdicts)
    assert {"true", "false"} <= {r.verdict for r in verdicts}


def test_enforce_removes_nothing_twice_and_leaves_only_unfixable_residuals():
    rng = random.Random(8103)
    for case in range(25):
        model, objects, _ = messy_population(rng)
        pruned, diags = enforce_conformance(objects, model)
        again, again_diags = enforce_conformance(pruned, model)
        assert [d for d in again_diags if d.code.startswith("removed-")] == [], case
        assert again == pruned, case
        residual = {d.code for d in diags if not d.code.startswith("removed-")}
        assert residual <= {"mult-lower", "slot-missing"}, case


def test_duplicate_class_names_resolve_to_the_first_declaration():
    model = ClassModel(classes=[
        ClassDef("A", properties=[Property("x", "int")]),
        ClassDef("A", is_abstract=True, properties=[Property("y", "str")]),
    ])
    objects = ObjectModel(objects=[
        ObjectDef("a1", "A", slots=[AttributeLink("x", 1)])])
    assert check_conformance(objects, model) == []
    body = Binary("=", Nav(SelfRef(), "x"), Literal(1))
    [result] = check_all([OclConstraint("A", "inv", body)], objects, model)
    assert [(r.object_id, r.verdict) for r in result.per_instance] == [("a1", "true")]
    pruned, diags = enforce_conformance(objects, model)
    assert (pruned, diags) == (objects, [])
