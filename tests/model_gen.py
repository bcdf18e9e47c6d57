"""Seeded random generators shared by the property and acceptance tests."""

import random

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
    Multiplicity,
    NULL,
    ObjectDef,
    ObjectModel,
    Property,
    StrV,
)
from modelkit.index import ModelIndex
from modelkit.ocl.nodes import Binary, CollectionOp, If, Literal, Nav, SelfRef, Unary, VarRef

_MULTS = [
    Multiplicity(0, None), Multiplicity(1, 1), Multiplicity(0, 1),
    Multiplicity(1, None), Multiplicity(2, 5), Multiplicity(0, 3),
    Multiplicity(3, 3),
]


def random_class_model(rng: random.Random, max_classes=8, max_props=5,
                       max_assocs=6, names=None) -> ClassModel:
    """A valid class model inside the serializable subset (no roles).
    Attributes are named `p<n>`, every third one capitalized as `P<n>`.

    Given `names`, a pool of lower-case identifiers, every class, attribute
    and association name is a distinct word of the pool instead, and so is
    a role on each association end: class names capitalized, attributes in
    lower, upper or capitalized case.  The pool must hold enough words.
    Without `names` no draw is added, so the seeded tests that omit it see
    the models their seeds give."""
    model = ClassModel(name="model")
    prop_counter = 0
    fresh = iter(rng.sample(sorted(names), len(names))) if names else None

    for i in range(rng.randint(0, 2)):
        literals = [f"L{i}_{k}" for k in range(rng.randint(1, 3))]
        model.enumerations.append(EnumDef(name=f"E{i}", literals=literals))

    n_classes = rng.randint(0, max_classes)
    class_names = [next(fresh).capitalize() if fresh else f"C{i}" for i in range(n_classes)]
    for i in range(n_classes):
        cls = ClassDef(name=class_names[i], is_abstract=rng.random() < 0.2)
        for _ in range(rng.randint(0, max_props)):
            choices = list(("int", "float", "str", "bool"))
            choices += [e.name for e in model.enumerations]
            choices += class_names
            type_name = rng.choice(choices)
            primitive = type_name in ("int", "float", "str", "bool")
            name = f"P{prop_counter}" if prop_counter % 3 == 0 else f"p{prop_counter}"
            if fresh:
                name = rng.choice([str.lower, str.upper, str.capitalize])(next(fresh))
            cls.properties.append(Property(
                name=name, type_name=type_name,
                is_id=primitive and rng.random() < 0.25))
            prop_counter += 1
        model.classes.append(cls)
        if i > 0 and rng.random() < 0.3:
            general = class_names[rng.randrange(i)]
            model.generalizations.append(
                Generalization(general=general, specific=cls.name))

    if n_classes:
        for i in range(rng.randint(0, max_assocs)):
            composite = rng.random()
            model.associations.append(Association(
                name=next(fresh) if fresh else f"rel{i}",
                ends=(
                    AssociationEnd(target=class_names[rng.randrange(n_classes)],
                                   role=next(fresh) if fresh else None,
                                   multiplicity=rng.choice(_MULTS),
                                   is_composite=composite < 0.15),
                    AssociationEnd(target=class_names[rng.randrange(n_classes)],
                                   role=next(fresh) if fresh else None,
                                   multiplicity=rng.choice(_MULTS),
                                   is_composite=0.15 <= composite < 0.25),
                )))
    return model


def random_instanced_model(rng: random.Random, max_objects=8, max_links=12):
    """(class model, object population) pair for evaluator testing.

    Associations mostly carry roles, so navigation is exercised; the
    population is deliberately messy: occasional null, mistyped, missing,
    or undeclared (`junk`) slots, and objects of unknown classifiers.
    Link ends always name objects of the population, though not always
    ones whose class fits the association end.
    """
    model = ClassModel(name="model")
    model.enumerations.append(EnumDef(name="Color", literals=["RED", "GREEN", "BLUE"]))
    n_classes = rng.randint(1, 4)
    prop_counter = 0
    for i in range(n_classes):
        cls = ClassDef(name=f"C{i}")
        for _ in range(rng.randint(1, 3)):
            cls.properties.append(Property(
                name=f"p{prop_counter}",
                type_name=rng.choice(["int", "int", "float", "str", "str", "bool",
                                      "Color"])))
            prop_counter += 1
        model.classes.append(cls)
        if i > 0 and rng.random() < 0.35:
            model.generalizations.append(
                Generalization(general=f"C{rng.randrange(i)}", specific=f"C{i}"))

    roles = [f"r{k}" for k in range(6)]
    for i in range(rng.randint(1, 3)):
        ends = []
        for _ in range(2):
            ends.append(AssociationEnd(
                target=f"C{rng.randrange(n_classes)}",
                role=rng.choice(roles) if rng.random() < 0.8 else None,
                multiplicity=rng.choice([Multiplicity(0, None), Multiplicity(0, 1),
                                         Multiplicity(1, 1), Multiplicity(1, None)])))
        if ends[0].role is not None and ends[0].role == ends[1].role:
            ends[1].role = ends[1].role + "b"
        model.associations.append(Association(name=f"rel{i}", ends=tuple(ends)))

    objects = ObjectModel()
    index = ModelIndex(model)
    values_by_type = {
        "int": lambda: IntV(rng.randint(-3, 9)),
        "float": lambda: FloatV(rng.choice([0.5, 2.5, -1.25, 10.0])),
        "str": lambda: StrV(rng.choice(["", "a", "b", "DPP-001"])),
        "bool": lambda: BoolV(rng.random() < 0.5),
        "Color": lambda: EnumV("Color", rng.choice(["RED", "GREEN", "BLUE"])),
    }
    for i in range(rng.randint(0, max_objects)):
        if rng.random() < 0.05:
            classifier = "Ghost"
        else:
            classifier = f"C{rng.randrange(n_classes)}"
        obj = ObjectDef(id=f"o{i}", classifier=classifier)
        if any(c.name == classifier for c in model.classes):
            for prop in index.flat(classifier):
                roll = rng.random()
                if roll < 0.78:
                    obj.slots.append(AttributeLink(prop.name,
                                                   values_by_type[prop.type_name]()))
                elif roll < 0.88:
                    obj.slots.append(AttributeLink(prop.name, NULL))
                elif roll < 0.93:
                    wrong = rng.choice(["int", "str", "bool"])
                    obj.slots.append(AttributeLink(prop.name, values_by_type[wrong]()))
                # else: omitted
            if rng.random() < 0.1:
                obj.slots.append(AttributeLink("junk", IntV(1)))
        objects.objects.append(obj)

    if objects.objects and model.associations:
        for _ in range(rng.randint(0, max_links)):
            assoc = rng.choice(model.associations)
            a = rng.choice(objects.objects)
            b = rng.choice(objects.objects)
            objects.links.append(Link(assoc.name, (a.id, b.id)))
    return model, objects


def random_defective_model(rng: random.Random, max_objects=12, max_links=16):
    """A random_instanced_model pair with, besides its own mistyped, missing,
    undeclared and `Ghost` slots and objects and its wrongly typed link ends,
    each other defect enforcement prunes: an abstract classifier, a
    duplicate slot, a link of an unknown association, a link with a dangling
    end, a link without two ends, and surplus links at a bounded end."""
    model, objects = random_instanced_model(rng, max_objects, max_links)
    objects.objects.append(ObjectDef("ghost", "Ghost"))
    if rng.random() < 0.5:
        rng.choice(model.classes).is_abstract = True
    slotted = [o for o in objects.objects if o.slots]
    if slotted:
        obj = rng.choice(slotted)
        slot = rng.choice(obj.slots)
        obj.slots.insert(rng.randrange(len(obj.slots) + 1),
                         AttributeLink(slot.property_name, slot.value))
    ids = [o.id for o in objects.objects]
    assoc = rng.choice(model.associations).name
    extra = [Link("nope", (rng.choice(ids), rng.choice(ids))),
             Link(assoc, (rng.choice(ids), "missing")), Link(assoc, (rng.choice(ids),))]
    a, b = rng.choice(ids), rng.choice(ids)
    extra += [Link(assoc, (a, b)) for _ in range(rng.randint(2, 4))]
    for link in extra:
        objects.links.insert(rng.randrange(len(objects.links) + 1), link)
    return model, objects


def random_expression(rng: random.Random, model, depth=4, scope=()):
    """Random expression tree from the evaluator's grammar, depth-bounded."""
    attrs = [p.name for c in model.classes for p in c.properties]
    nav_names = attrs + [
        (end.role if end.role is not None else end.target)
        for a in model.associations for end in a.ends
    ] + ["junk"]

    def literal():
        return Literal(rng.choice([
            IntV(rng.randint(-2, 5)), IntV(0), FloatV(2.5), FloatV(0.0),
            StrV(""), StrV("a"), StrV("DPP-001"), BoolV(True), BoolV(False),
            NULL,
        ]))

    def leaf():
        options = [literal, literal, lambda: SelfRef()]
        if scope:
            options.append(lambda: VarRef(rng.choice(scope)))
        return rng.choice(options)()

    def tree(d, vars_in_scope):
        if d <= 0:
            return leaf() if not vars_in_scope else rng.choice(
                [leaf, lambda: VarRef(rng.choice(vars_in_scope))])()
        roll = rng.random()
        if roll < 0.18:
            return leaf()
        if roll < 0.42:
            src = rng.choice([SelfRef(), tree(d - 1, vars_in_scope)])
            return Nav(src, rng.choice(nav_names))
        if roll < 0.62:
            op = rng.choice(["+", "-", "*", "/", "<", "<=", ">", ">=",
                             "=", "<>", "and", "or", "implies"])
            return Binary(op, tree(d - 1, vars_in_scope), tree(d - 1, vars_in_scope))
        if roll < 0.70:
            return Unary(rng.choice(["not", "-"]), tree(d - 1, vars_in_scope))
        if roll < 0.78:
            return If(tree(d - 1, vars_in_scope), tree(d - 1, vars_in_scope),
                      tree(d - 1, vars_in_scope))
        src = Nav(SelfRef(), rng.choice(nav_names))
        op = rng.choice(["size", "isEmpty", "notEmpty", "includes",
                         "forAll", "exists", "select", "collect"])
        if op in ("size", "isEmpty", "notEmpty"):
            return CollectionOp(src, op)
        if op == "includes":
            return CollectionOp(src, op, body=tree(d - 1, vars_in_scope))
        var = f"v{len(vars_in_scope)}"
        body = tree(d - 1, vars_in_scope + [var])
        if op == "select":
            return CollectionOp(CollectionOp(src, "select", var=var, body=body),
                                "size")
        return CollectionOp(src, op, var=var, body=body)

    roll = rng.random()
    if roll < 0.3 and attrs:
        return Binary(rng.choice(["=", "<>", "<", "<=", ">", ">="]),
                      Nav(SelfRef(), rng.choice(attrs)), literal())
    if roll < 0.5 and model.associations:
        end = rng.choice([e for a in model.associations for e in a.ends])
        nav = Nav(SelfRef(), end.role if end.role is not None else end.target)
        op = rng.choice(["forAll", "exists"])
        body = Binary(rng.choice(["=", "<>"]),
                      Nav(VarRef("it"), rng.choice(attrs) if attrs else "junk"),
                      literal())
        return CollectionOp(nav, op, var="it", body=body)
    return tree(depth, list(scope))


def random_object_population(rng: random.Random, max_objects=10) -> ObjectModel:
    """Object model with per-classifier slot signatures and per-association
    end classes kept uniform, as real instance data would be."""
    objects = ObjectModel()
    n_classes = rng.randint(1, 4)
    signatures = {}
    slot_counter = 0
    for i in range(n_classes):
        sig = []
        for _ in range(rng.randint(0, 4)):
            sig.append((f"s{slot_counter}",
                        rng.choice(["int", "float", "str", "bool", "enum",
                                    "intfloat", "nullable", "allnull"])))
            slot_counter += 1
        signatures[f"K{i}"] = sig

    def value_for(kind):
        if kind == "int":
            return IntV(rng.randint(0, 99))
        if kind == "float":
            return FloatV(rng.choice([1.5, 2.25, 0.75]))
        if kind == "str":
            return StrV(rng.choice(["x", "y", ""]))
        if kind == "bool":
            return BoolV(rng.random() < 0.5)
        if kind == "enum":
            return EnumV("Status", rng.choice(["ON", "OFF"]))
        if kind == "intfloat":
            return rng.choice([IntV(3), FloatV(3.5)])
        if kind == "nullable":
            return rng.choice([StrV("n"), NULL])
        return NULL  # allnull

    classifiers = list(signatures)
    for i in range(rng.randint(0, max_objects)):
        classifier = rng.choice(classifiers)
        obj = ObjectDef(id=f"k{i}", classifier=classifier)
        for slot_name, kind in signatures[classifier]:
            obj.slots.append(AttributeLink(slot_name, value_for(kind)))
        objects.objects.append(obj)

    by_class = {}
    for obj in objects.objects:
        by_class.setdefault(obj.classifier, []).append(obj)
    for i in range(rng.randint(0, 3)):
        # Ends usually draw from one classifier each; sometimes from a
        # mixed pool, which inference must unify.
        def pool():
            if rng.random() < 0.25:
                k = rng.randint(2, len(classifiers)) if len(classifiers) > 1 else 1
                return rng.sample(classifiers, k)
            return [rng.choice(classifiers)]
        left_pool = [c for c in pool() if by_class.get(c)]
        right_pool = [c for c in pool() if by_class.get(c)]
        if not left_pool or not right_pool:
            continue
        for _ in range(rng.randint(1, 5)):
            left = rng.choice(by_class[rng.choice(left_pool)])
            right = rng.choice(by_class[rng.choice(right_pool)])
            objects.links.append(Link(f"a{i}", (left.id, right.id)))
    return objects
