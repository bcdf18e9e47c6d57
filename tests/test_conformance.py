import random

from modelkit.conformance import check_conformance
from modelkit.flex import enforce_conformance
from modelkit.index import validate_class_model
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    AttributeLink,
    ClassDef,
    ClassModel,
    EnumDef,
    EnumV,
    Link,
    Multiplicity,
    ObjectDef,
    ObjectModel,
    Property,
)
from modelkit.objtext import parse_object_model, serialize_object_model
from brute_conf import brute_conformance
from model_gen import random_defective_model, random_instanced_model


def passport_model(stage_lower="1"):
    model = ClassModel(name="dpp")
    model.classes.append(ClassDef("ProductPassport", properties=[
        Property("code", "str", is_id=True),
        Property("product_name", "str"),
        Property("brand", "str"),
    ]))
    model.classes.append(ClassDef("Stage", properties=[
        Property("start_date", "str")]))
    lower = 1 if stage_lower == "1" else 0
    model.associations.append(Association("stages", (
        AssociationEnd("ProductPassport", multiplicity=Multiplicity(1, 1)),
        AssociationEnd("Stage", role="stages",
                       multiplicity=Multiplicity(lower, None)),
    )))
    assert validate_class_model(model) == []
    return model


def passport_object(**overrides):
    slots = {
        "code": "DPP-001",
        "product_name": "Phone",
        "brand": "Acme",
    }
    slots.update(overrides)
    return ObjectDef(id="p1", classifier="ProductPassport",
                     slots=[AttributeLink(k, v) for k, v in slots.items()])


def test_conformant_object_produces_no_diagnostics():
    model = passport_model(stage_lower="0")
    objects = ObjectModel(objects=[passport_object()])
    assert check_conformance(objects, model) == []


def test_missing_stage_links_hit_the_lower_bound():
    model = passport_model(stage_lower="1")
    objects = ObjectModel(objects=[passport_object()])
    diags = check_conformance(objects, model)
    assert [d.code for d in diags] == ["mult-lower"]
    assert diags[0].subject == "p1@stages[1]"


def test_type_mismatch_is_slot_type():
    model = passport_model(stage_lower="0")
    objects = ObjectModel(objects=[passport_object(brand=3)])
    diags = check_conformance(objects, model)
    assert [d.code for d in diags] == ["slot-type"]
    assert diags[0].subject == "p1.brand"


def test_unknown_classifier():
    model = passport_model(stage_lower="0")
    objects = ObjectModel(objects=[ObjectDef(id="x", classifier="Ghost")])
    assert [d.code for d in check_conformance(objects, model)] == \
        ["unknown-classifier"]


def test_abstract_class_cannot_be_instantiated():
    model = ClassModel(name="m", classes=[ClassDef("A", is_abstract=True)])
    objects = ObjectModel(objects=[ObjectDef(id="a", classifier="A")])
    assert [d.code for d in check_conformance(objects, model)] == \
        ["abstract-instance"]


def test_upper_bound_violation():
    model = ClassModel(name="m", classes=[
        ClassDef("A", properties=[Property("k", "str", is_id=True)]),
        ClassDef("B")])
    model.associations.append(Association("r", (
        AssociationEnd("A", multiplicity=Multiplicity(1, 1)),
        AssociationEnd("B", multiplicity=Multiplicity(0, 1)))))
    objects = ObjectModel(objects=[
        ObjectDef("a1", "A", slots=[AttributeLink("k", "x")]),
        ObjectDef("b1", "B"), ObjectDef("b2", "B")],
        links=[Link("r", ("a1", "b1")),
               Link("r", ("a1", "b2"))])
    assert [d.code for d in check_conformance(objects, model)] == ["mult-upper"]


def test_missing_required_slot():
    model = passport_model(stage_lower="0")
    obj = passport_object()
    obj.slots = [s for s in obj.slots if s.property_name != "brand"]
    diags = check_conformance(ObjectModel(objects=[obj]), model)
    assert [d.code for d in diags] == ["slot-missing"]
    assert diags[0].subject == "p1.brand"


def test_class_typed_property_may_be_omitted_or_null():
    model = ClassModel(name="m", classes=[
        ClassDef("A"),
        ClassDef("B", properties=[Property("other", "A")])])
    omitted = ObjectDef("b1", "B")
    explicit = ObjectDef("b2", "B", slots=[AttributeLink("other", None)])
    diags = check_conformance(ObjectModel(objects=[omitted, explicit]), model)
    assert diags == []


def test_explicit_null_fits_any_type():
    model = passport_model(stage_lower="0")
    objects = ObjectModel(objects=[passport_object(brand=None)])
    assert check_conformance(objects, model) == []


def test_enum_slot_checking():
    model = ClassModel(
        name="m",
        classes=[ClassDef("A", properties=[Property("s", "Color")])],
        enumerations=[EnumDef("Color", ["RED", "GREEN"])])
    good = ObjectDef("a1", "A", slots=[AttributeLink("s", EnumV("Color", "RED"))])
    bad_literal = ObjectDef("a2", "A",
                            slots=[AttributeLink("s", EnumV("Color", "PINK"))])
    bad_enum = ObjectDef("a3", "A",
                         slots=[AttributeLink("s", EnumV("Size", "RED"))])
    as_string = ObjectDef("a4", "A", slots=[AttributeLink("s", "RED")])
    diags = check_conformance(
        ObjectModel(objects=[good, bad_literal, bad_enum, as_string]), model)
    assert [(d.code, d.subject) for d in diags] == [
        ("slot-type", "a2.s"), ("slot-type", "a3.s"), ("slot-type", "a4.s")]


def test_int_fits_float_property():
    model = ClassModel(name="m", classes=[
        ClassDef("A", properties=[Property("w", "float")])])
    obj = ObjectDef("a1", "A", slots=[AttributeLink("w", 3)])
    assert check_conformance(ObjectModel(objects=[obj]), model) == []


def test_bool_does_not_fit_int():
    model = ClassModel(name="m", classes=[
        ClassDef("A", properties=[Property("n", "int")])])
    obj = ObjectDef("a1", "A", slots=[AttributeLink("n", True)])
    assert [d.code for d in check_conformance(ObjectModel(objects=[obj]), model)] \
        == ["slot-type"]


def test_a_class_typed_slot_holds_only_null():
    """A value in a class-typed slot is `slot-type`, as the oracle says;
    references travel through links."""
    model = ClassModel(name="m", classes=[
        ClassDef("A", properties=[Property("ref", "B")]), ClassDef("B")])
    objects = ObjectModel(objects=[
        ObjectDef(f"a{i}", "A", slots=[AttributeLink("ref", value)])
        for i, value in enumerate((None, 1, "b1"), 1)])
    mine = sorted((d.code, d.subject) for d in check_conformance(objects, model))
    assert mine == brute_conformance(objects, model) == [
        ("slot-type", "a2.ref"), ("slot-type", "a3.ref")]


def test_link_checks():
    model = passport_model(stage_lower="0")
    objects = ObjectModel(
        objects=[passport_object(),
                 ObjectDef("s1", "Stage",
                           slots=[AttributeLink("start_date", "d")])],
        links=[
            Link("nope", ("p1", "s1")),
            Link("stages", ("p1", "ghost")),
            Link("stages", ("s1", "s1")),
        ])
    codes = [d.code for d in check_conformance(objects, model)]
    assert codes[:3] == ["unknown-association", "unknown-object", "link-end-type"]


def test_subclass_instances_satisfy_link_end_types():
    model = passport_model(stage_lower="0")
    model.classes.append(ClassDef("Design"))
    from modelkit.metamodel import Generalization
    model.generalizations.append(Generalization("Stage", "Design"))
    objects = ObjectModel(
        objects=[passport_object(),
                 ObjectDef("d1", "Design",
                           slots=[AttributeLink("start_date", "d")])],
        links=[Link("stages", ("p1", "d1"))])
    assert check_conformance(objects, model) == []


def test_agrees_with_brute_force_on_random_populations():
    rng = random.Random(31)
    for _ in range(150):
        model, objects = random_instanced_model(rng, max_objects=10)
        assert validate_class_model(model) == []
        mine = sorted((d.code, d.subject) for d in check_conformance(objects, model))
        assert mine == brute_conformance(objects, model)


def test_agrees_with_brute_force_on_links_without_two_ends():
    """Links built through the API may have one end or three; both are a
    `link-ends` error, and count toward no multiplicity."""
    rng = random.Random(47)
    tried = 0
    for _ in range(150):
        model, objects = random_instanced_model(rng, max_objects=10)
        if not objects.objects or not model.associations:
            continue
        ids = [o.id for o in objects.objects] + ["ghost"]
        for ends in (1, 3, 2, 1, 3):
            assoc = rng.choice(model.associations).name
            position = rng.randrange(len(objects.links) + 1)
            objects.links.insert(position, Link(assoc, tuple(
                rng.choice(ids) for _ in range(ends))))
        mine = sorted((d.code, d.subject) for d in check_conformance(objects, model))
        assert mine == brute_conformance(objects, model)
        assert sum(code == "link-ends" for code, _ in mine) == 4
        tried += 1
    assert tried >= 100


def _declared_lines(text):
    """The number of the line of each object, slot and link statement of
    canonical object text, by the object id, `id.prop` or `link[i]` it
    declares."""
    lines, links = {}, []
    for number, line in enumerate(text.split("\n"), 1):
        words = line.split()
        if words[:1] == ["object"]:
            lines[words[1]] = number
        elif words[:1] == ["link"]:
            links.append(number)
        elif words[1:2] == ["="]:
            lines[words[0]] = number
    lines.update((f"link[{i}]", number) for i, number in enumerate(links))
    return lines


def _readable(objects):
    """`objects` without what object text cannot hold: a second slot of one
    name, a link without two ends, a link to an undeclared object."""
    ids = {obj.id for obj in objects.objects}
    for obj in objects.objects:
        names = [slot.property_name for slot in obj.slots]
        obj.slots = [slot for i, slot in enumerate(obj.slots)
                     if slot.property_name not in names[:i]]
    objects.links = [link for link in objects.links
                     if len(link.ends) == 2 and set(link.ends) <= ids]
    return objects


def test_each_position_is_the_line_that_declares_the_subject():
    """On read populations, each conformance and residual enforcement
    diagnostic is placed at the line of the object, slot or link its
    subject names; a missing slot and a bound count are placed at the
    object's line.
    Removals carry no position, as before."""
    rng = random.Random(26)
    codes = set()
    for case in range(200):
        model, objects = random_defective_model(rng)
        text = serialize_object_model(_readable(objects))
        read = parse_object_model(text, model, filename="pop.objs").model
        lines = _declared_lines(text)
        pruned, enforced = enforce_conformance(read, model)
        for diag in check_conformance(read, model) + enforced:
            if diag.code.startswith("removed-"):
                assert diag.span is None, (case, diag)
                continue
            subject = diag.subject
            if diag.code in ("slot-missing", "mult-lower", "mult-upper"):
                subject = subject.split("@")[0].split(".")[0]  # the object
            line = lines[subject]
            assert diag.format().split()[2] == f"pop.objs:{line}:1", (case, diag)
            codes.add(diag.code)
    assert codes == {"unknown-classifier", "abstract-instance", "unknown-property",
                     "slot-type", "slot-missing", "unknown-association", "link-end-type",
                     "mult-lower", "mult-upper"}


def test_a_population_built_through_the_api_has_no_positions():
    """Elements built without a line (line 0) are reported without a
    position, whatever file the population names."""
    rng = random.Random(26)
    for case in range(100):
        model, objects = random_defective_model(rng)
        objects.file = "pop.objs"
        diagnostics = check_conformance(objects, model) + enforce_conformance(objects, model)[1]
        assert diagnostics, case
        for diag in diagnostics:
            assert diag.span is None and diag.format().split()[2] == "-", (case, diag)
