import random

from modelkit.conformance import check_conformance, value_conforms
from modelkit.diagnostics import SourceSpan
from modelkit.flex import enforce_conformance, infer_class_model
from modelkit.index import ModelIndex, validate_class_model
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    AttributeLink,
    BoolV,
    ClassDef,
    ClassModel,
    EnumV,
    FloatV,
    IntV,
    Link,
    Multiplicity,
    NULL,
    ObjectDef,
    ObjectModel,
    Property,
    StrV,
)
from model_gen import random_defective_model, random_object_population


def population(*objs, links=()):
    return ObjectModel(objects=list(objs), links=list(links))


class TestInfer:
    def test_single_object_single_slot(self):
        objects = population(ObjectDef("p1", "ProductPassport", slots=[
            AttributeLink("code", StrV("X"))]))
        model = infer_class_model(objects)
        assert [c.name for c in model.classes] == ["ProductPassport"]
        (prop,) = model.classes[0].properties
        assert (prop.name, prop.type_name) == ("code", "str")

    def test_empty_population_gives_empty_model(self):
        model = infer_class_model(population())
        assert model.classes == [] and model.associations == []

    def test_int_and_float_join_at_float(self):
        objects = population(
            ObjectDef("o1", "K", slots=[AttributeLink("a", IntV(1))]),
            ObjectDef("o2", "K", slots=[AttributeLink("a", FloatV(2.5))]))
        model = infer_class_model(objects)
        assert model.classes[0].properties[0].type_name == "float"

    def test_mixed_kinds_join_at_str(self):
        objects = population(
            ObjectDef("o1", "K", slots=[AttributeLink("a", IntV(1))]),
            ObjectDef("o2", "K", slots=[AttributeLink("a", StrV("x"))]))
        model = infer_class_model(objects)
        assert model.classes[0].properties[0].type_name == "str"

    def test_all_null_column_defaults_to_str_with_warning(self):
        diags = []
        objects = population(ObjectDef("o1", "K", slots=[
            AttributeLink("a", NULL)]))
        model = infer_class_model(objects, diags)
        assert model.classes[0].properties[0].type_name == "str"
        assert [d.code for d in diags] == ["all-null"]

    def test_association_multiplicities_from_observed_counts(self):
        objects = population(
            ObjectDef("p1", "P"), ObjectDef("p2", "P"),
            ObjectDef("s1", "S"), ObjectDef("s2", "S"), ObjectDef("s3", "S"),
            links=[Link("r", ("p1", "s1")),
                   Link("r", ("p1", "s2")),
                   Link("r", ("p2", "s3"))])
        model = infer_class_model(objects)
        (assoc,) = model.associations
        # Every S has exactly one P; Ps carry one or two Ss.
        assert assoc.ends[0].multiplicity == Multiplicity(1, 1)
        assert assoc.ends[1].multiplicity == Multiplicity(1, None)

    def test_mixed_end_classifiers_get_a_synthetic_general_class(self):
        diags = []
        objects = population(
            ObjectDef("p1", "P"),
            ObjectDef("d1", "Design"), ObjectDef("u1", "Use"),
            links=[Link("r", ("p1", "d1")),
                   Link("r", ("p1", "u1"))])
        model = infer_class_model(objects, diags)
        assert [d.code for d in diags] == ["mixed-end"]
        assert model.associations[0].ends[1].target == "r_End1"
        generals = {(g.general, g.specific) for g in model.generalizations}
        assert generals == {("r_End1", "Design"), ("r_End1", "Use")}
        assert validate_class_model(model) == []
        assert check_conformance(objects, model) == []

    def test_inferred_model_is_valid_and_accepts_its_source(self):
        rng = random.Random(97)
        for _ in range(100):
            objects = random_object_population(rng)
            model = infer_class_model(objects)
            assert validate_class_model(model) == []
            assert check_conformance(objects, model) == []

    def test_kinds_no_primitive_admits_warn_and_only_they_fail_the_check(self):
        diags = []
        objects = population(
            ObjectDef("a", "K", slots=[AttributeLink("x", IntV(1)),
                                       AttributeLink("y", IntV(2)),
                                       AttributeLink("z", IntV(3))]),
            ObjectDef("b", "K", slots=[AttributeLink("x", BoolV(True)),
                                       AttributeLink("y", StrV("s")),
                                       AttributeLink("z", FloatV(0.5))]))
        model = infer_class_model(objects, diags)
        types = [(p.name, p.type_name) for p in model.classes[0].properties]
        assert types == [("x", "str"), ("y", "str"), ("z", "float")]
        assert [(d.code, d.subject) for d in diags] == [
            ("mixed-kind", "K.x"), ("mixed-kind", "K.y")]
        assert [(d.code, d.subject) for d in check_conformance(objects, model)] == [
            ("slot-type", "a.x"), ("slot-type", "a.y"), ("slot-type", "b.x")]

    def test_duplicate_ids_resolve_link_ends_first_wins(self):
        objects = population(
            ObjectDef("a", "A"), ObjectDef("a", "B"), ObjectDef("c", "C"),
            links=[Link("r", ("a", "c"))])
        model = infer_class_model(objects)
        assert [e.target for e in model.associations[0].ends] == ["A", "C"]
        assert check_conformance(objects, model) == []

    def test_links_without_two_ends_infer_no_association(self):
        # The third exception to "accepts its source population": the
        # inferred model has no association for a name only such links use.
        objects = population(
            ObjectDef("a", "A"), ObjectDef("b", "B"), ObjectDef("c", "C"),
            links=[Link("r", ("a", "b", "c")),
                   Link("q", ("a", "b"))])
        model = infer_class_model(objects)
        assert [a.name for a in model.associations] == ["q"]
        assert [(d.code, d.message) for d in check_conformance(objects, model)] == [
            ("unknown-association", "link references unknown association 'r'")]


class TestEnforce:
    def make_model(self):
        model = ClassModel(name="m")
        model.classes.append(ClassDef("P", properties=[Property("n", "int")]))
        model.classes.append(ClassDef("S"))
        model.associations.append(Association("r", (
            AssociationEnd("P", multiplicity=Multiplicity(0, 1)),
            AssociationEnd("S", multiplicity=Multiplicity(0, 2)))))
        return model

    def test_conformant_input_is_a_fixpoint(self):
        model = self.make_model()
        objects = population(
            ObjectDef("p1", "P", slots=[AttributeLink("n", IntV(1))]),
            ObjectDef("s1", "S"),
            links=[Link("r", ("p1", "s1"))])
        pruned, diags = enforce_conformance(objects, model)
        assert pruned == objects
        assert diags == []

    def test_unknown_class_cascades_to_links(self):
        model = self.make_model()
        objects = population(
            ObjectDef("p1", "P", slots=[AttributeLink("n", IntV(1))]),
            ObjectDef("g1", "Ghost"),
            links=[Link("r", ("p1", "g1"))])
        pruned, diags = enforce_conformance(objects, model)
        assert [o.id for o in pruned.objects] == ["p1"]
        assert pruned.links == []
        codes = [d.code for d in diags]
        assert codes == ["removed-object", "removed-link"]

    def test_upper_bound_drops_newest_links_first(self):
        model = self.make_model()
        objects = population(
            ObjectDef("p1", "P", slots=[AttributeLink("n", IntV(1))]),
            ObjectDef("s1", "S"), ObjectDef("s2", "S"), ObjectDef("s3", "S"),
            links=[Link("r", ("p1", "s1")),
                   Link("r", ("p1", "s2")),
                   Link("r", ("p1", "s3"))])
        pruned, diags = enforce_conformance(objects, model)
        kept = [link.ends[1] for link in pruned.links]
        assert kept == ["s1", "s2"]
        assert [d.code for d in diags] == ["removed-link"]
        assert "link[2]" in diags[0].message

    def test_bad_slots_are_removed_and_leave_residuals(self):
        model = self.make_model()
        objects = population(
            ObjectDef("p1", "P", slots=[AttributeLink("n", StrV("wrong")),
                                        AttributeLink("ghost", IntV(1))]))
        pruned, diags = enforce_conformance(objects, model)
        assert pruned.objects[0].slots == []
        codes = [d.code for d in diags]
        # Both slots removed; the required property is now missing, which
        # removal cannot repair, so it stays as a residual.
        assert codes == ["removed-slot", "removed-slot", "slot-missing"]

    def test_lower_bound_residual_is_reported_not_removed(self):
        model = self.make_model()
        model.associations[0].ends[1].multiplicity = Multiplicity(1, None)
        objects = population(
            ObjectDef("p1", "P", slots=[AttributeLink("n", IntV(1))]))
        pruned, diags = enforce_conformance(objects, model)
        assert [o.id for o in pruned.objects] == ["p1"]
        assert [d.code for d in diags] == ["mult-lower"]

    def test_never_adds_elements(self):
        rng = random.Random(5)
        model = self.make_model()
        for _ in range(50):
            objects = random_object_population(rng)
            pruned, _ = enforce_conformance(objects, model)
            ids = {o.id for o in objects.objects}
            assert {o.id for o in pruned.objects} <= ids
            assert len(pruned.links) <= len(objects.links)

    def test_idempotent_and_deterministic_on_random_populations(self):
        rng = random.Random(23)
        for _ in range(60):
            objects = random_object_population(rng)
            # Enforce against a perturbed inferred model so pruning happens.
            model = infer_class_model(objects)
            if model.classes and rng.random() < 0.6:
                victim = rng.choice(model.classes)
                if victim.properties and rng.random() < 0.5:
                    victim.properties[0].type_name = "bool"
                else:
                    victim.is_abstract = True
            if model.associations and rng.random() < 0.5:
                model.associations[0].ends[0].multiplicity = Multiplicity(0, 1)
            once, first_diags = enforce_conformance(objects, model)
            again, again_diags = enforce_conformance(once, model)
            assert again == once
            assert [d for d in again_diags if d.code.startswith("removed-")] == []
            # Determinism: same input, same removal report.
            repeat, repeat_diags = enforce_conformance(objects, model)
            assert repeat == once
            assert [d.format() for d in repeat_diags] == \
                [d.format() for d in first_diags]

    def test_link_of_a_known_association_with_three_ends_names_its_end_count(self):
        model = self.make_model()
        objects = population(
            ObjectDef("p1", "P", slots=[AttributeLink("n", IntV(1))]),
            ObjectDef("s1", "S"),
            links=[Link("r", ("p1", "s1", "s1"))])
        pruned, diags = enforce_conformance(objects, model)
        assert pruned.links == []
        assert [d.message for d in diags] == [
            "removed link link[0]: link of 'r' must have exactly two ends"]

    def test_link_of_an_unknown_association_names_the_association(self):
        model = self.make_model()
        objects = population(
            ObjectDef("p1", "P", slots=[AttributeLink("n", IntV(1))]),
            ObjectDef("s1", "S"),
            links=[Link("q", ("p1", "s1"))])
        pruned, diags = enforce_conformance(objects, model)
        assert pruned.links == []
        assert [d.message for d in diags] == [
            "removed link link[0]: unknown association 'q'"]


# One maker per value kind; a column draws from a few of them, so some
# columns mix kinds that no primitive type admits together.
_VALUE_MAKERS = (
    lambda rng: IntV(rng.randint(-3, 3)),
    lambda rng: FloatV(rng.random()),
    lambda rng: BoolV(rng.random() < 0.5),
    lambda rng: StrV(rng.choice("ab")),
    lambda rng: EnumV("E", "lit"),
    lambda rng: NULL,
)
_NARROWEST_FIRST = ("int", "float", "bool", "str")


def _mixed_kind_population(rng):
    classifiers = ["A", "B", "C"][:rng.randint(1, 3)]
    columns = {(c, p): rng.sample(_VALUE_MAKERS, rng.randint(1, 3))
               for c in classifiers for p in ("x", "y", "z")}
    objects = []
    for n in range(rng.randint(1, 8)):
        c = rng.choice(classifiers)
        objects.append(ObjectDef(f"o{n}", c, slots=[
            AttributeLink(p, rng.choice(columns[c, p])(rng))
            for p in ("x", "y", "z") if rng.random() < 0.9]))
    return population(*objects)


def test_inferred_types_follow_the_table_conformance_checks_against():
    rng = random.Random(61)
    for _ in range(300):
        objects = _mixed_kind_population(rng)
        diags = []
        model = infer_class_model(objects, diags)
        index = ModelIndex(model)
        warned = {d.subject: d.code for d in diags}
        columns: dict[str, list] = {}
        for obj in objects.objects:
            for slot in obj.slots:
                columns.setdefault(f"{obj.classifier}.{slot.property_name}",
                                   []).append(slot.value)
        for subject, values in columns.items():
            classifier, name = subject.split(".")
            declared = index.properties(classifier)[name].type_name
            fits = [t for t in _NARROWEST_FIRST
                    if all(value_conforms(v, t, index) for v in values)]
            if all(v == NULL for v in values):
                assert (declared, warned.get(subject)) == ("str", "all-null")
            elif fits:
                assert (declared, warned.get(subject)) == (fits[0], None)
            else:
                assert (declared, warned.get(subject)) == ("str", "mixed-kind")
        classifier_of = {o.id: o.classifier for o in objects.objects}
        for d in check_conformance(objects, model):
            obj_id, name = d.subject.split(".")
            subject = f"{classifier_of[obj_id]}.{name}"
            assert d.code == "slot-missing" or (
                d.code == "slot-type" and warned.get(subject) == "mixed-kind")


# What each removal reason says, one phrase per kind of defect enforcement prunes.
REMOVAL_REASONS = ("unknown classifier", "abstract classifier", "duplicate assignment",
                   "unknown property", "does not fit", "unknown association",
                   "exactly two ends", "gone or unknown", "cannot occupy",
                   "exceeds upper bound")


def test_the_residual_is_what_check_conformance_finds_in_the_pruned_output():
    """Enforcement reports what it could not prune without checking its
    output again: on populations with every defect it prunes, its residual
    diagnostics are check_conformance's on the output, in order, with spans
    and subjects, and a second enforcement removes nothing."""
    rng = random.Random(24)
    reasons, residual_codes = set(), set()
    for case in range(300):
        model, objects = random_defective_model(rng)
        for line, element in enumerate(objects.objects + objects.links, 1):
            element.span = SourceSpan("gen.objs", line)
        pruned, diags = enforce_conformance(objects, model)
        removals = [d for d in diags if d.code.startswith("removed-")]
        residual = diags[len(removals):]
        assert diags[:len(removals)] == removals, case
        assert residual == check_conformance(pruned, model), case
        assert enforce_conformance(pruned, model) == (pruned, residual), case
        reasons.update(phrase for d in removals for phrase in REMOVAL_REASONS
                       if phrase in d.message.split(": ", 1)[1])
        residual_codes.update(d.code for d in residual)
    assert reasons == set(REMOVAL_REASONS)
    assert residual_codes == {"slot-missing", "mult-lower"}
