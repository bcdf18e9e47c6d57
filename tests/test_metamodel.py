import random

import pytest

from modelkit.metamodel import (
    Association,
    AssociationEnd,
    ClassDef,
    ClassModel,
    EnumDef,
    Generalization,
    Multiplicity,
    Property,
)
from modelkit.index import ModelIndex, validate_class_model
from modelkit.puml import parse_class_model
from model_gen import random_class_model


def dpp_model() -> ClassModel:
    model = ClassModel(name="dpp")
    model.classes.append(ClassDef("ProductPassport", properties=[
        Property("code", "str", is_id=True),
        Property("product_name", "str"),
        Property("brand", "str"),
    ]))
    for stage in ("Design", "Use", "Manufacture"):
        model.classes.append(ClassDef(stage))
    return model


def chain_model() -> ClassModel:
    model = ClassModel(name="chain")
    model.classes.append(ClassDef("A", properties=[Property("a1", "int"),
                                                   Property("a2", "str")]))
    model.classes.append(ClassDef("B", properties=[Property("b1", "bool")]))
    model.classes.append(ClassDef("C", properties=[Property("c1", "float")]))
    model.generalizations.append(Generalization(general="A", specific="B"))
    model.generalizations.append(Generalization(general="B", specific="C"))
    return model


class TestValidate:
    def test_dpp_model_is_valid(self):
        assert validate_class_model(dpp_model()) == []

    def test_empty_model_is_valid(self):
        assert validate_class_model(ClassModel(name="empty")) == []

    def test_generalization_cycle(self):
        model = ClassModel(name="m", classes=[ClassDef("A"), ClassDef("B")])
        model.generalizations.append(Generalization("A", "B"))
        model.generalizations.append(Generalization("B", "A"))
        diags = validate_class_model(model)
        assert [d.code for d in diags] == ["gen-cycle"]

    def test_duplicate_names_share_one_namespace(self):
        model = ClassModel(name="m", classes=[ClassDef("X")],
                           enumerations=[EnumDef("X", ["A"])])
        assert [d.code for d in validate_class_model(model)] == ["dup-name"]

    def test_unknown_property_type(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("p", "Nope")])])
        assert [d.code for d in validate_class_model(model)] == ["bad-type"]

    def test_id_property_must_be_primitive(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A"),
            ClassDef("B", properties=[Property("p", "A", is_id=True)])])
        assert [d.code for d in validate_class_model(model)] == ["id-not-primitive"]

    def test_own_duplicate_property(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("p", "int"), Property("p", "str")])])
        assert "dup-property" in [d.code for d in validate_class_model(model)]

    def test_redeclaring_inherited_property(self):
        model = chain_model()
        model.classes[2].properties.append(Property("a1", "int"))
        assert [d.code for d in validate_class_model(model)] == ["dup-property"]

    def test_diamond_clash_reported_once(self):
        model = ClassModel(name="m", classes=[
            ClassDef("B", properties=[Property("x", "int")]),
            ClassDef("C", properties=[Property("x", "int")]),
            ClassDef("D"),
            ClassDef("E"),
        ])
        model.generalizations.append(Generalization("B", "D"))
        model.generalizations.append(Generalization("C", "D"))
        model.generalizations.append(Generalization("D", "E"))
        diags = [d for d in validate_class_model(model) if d.code == "dup-property"]
        assert len(diags) == 1
        assert diags[0].subject == "D.x"

    def test_enum_needs_literals(self):
        model = ClassModel(name="m", enumerations=[EnumDef("E", [])])
        assert [d.code for d in validate_class_model(model)] == ["no-literals"]

    def test_enum_duplicate_literal(self):
        model = ClassModel(name="m", enumerations=[EnumDef("E", ["A", "A"])])
        assert [d.code for d in validate_class_model(model)] == ["dup-literal"]

    def test_association_checks(self):
        model = ClassModel(name="m", classes=[ClassDef("A")])
        model.associations.append(Association("r", (
            AssociationEnd("A", role="x", is_composite=True),
            AssociationEnd("Nope", role="x", is_composite=True))))
        codes = [d.code for d in validate_class_model(model)]
        assert codes == sorted(codes)
        assert set(codes) == {"unknown-class", "dup-role", "two-composites"}

    def test_bad_multiplicity(self):
        model = ClassModel(name="m", classes=[ClassDef("A")])
        model.associations.append(Association("r", (
            AssociationEnd("A", multiplicity=Multiplicity(5, 2)),
            AssociationEnd("A"))))
        assert [d.code for d in validate_class_model(model)] == ["bad-mult"]

    def test_self_generalization(self):
        model = ClassModel(name="m", classes=[ClassDef("A")])
        model.generalizations.append(Generalization("A", "A"))
        assert [d.code for d in validate_class_model(model)] == ["gen-self"]

    @pytest.mark.parametrize("where", ["model", "class", "property", "role", "literal"])
    def test_a_name_ending_in_a_newline_is_a_bad_name(self, where):
        def name(kind):
            return "n\n" if kind == where else "n"

        model = ClassModel(
            name("model"),
            [ClassDef(name("class"), properties=[Property(name("property"), "int")])],
            [EnumDef("E", [name("literal")])],
            [Association("r", (AssociationEnd(name("class"), name("role")),
                               AssociationEnd(name("class"))))])
        assert [d.code for d in validate_class_model(model)] == ["bad-name"]

    def test_validation_is_pure(self):
        model = chain_model()
        model.generalizations.append(Generalization("C", "A"))  # close a cycle
        first = [d.format() for d in validate_class_model(model)]
        second = [d.format() for d in validate_class_model(model)]
        assert first == second

    def test_random_generated_models_are_valid(self):
        rng = random.Random(7)
        for _ in range(50):
            assert validate_class_model(random_class_model(rng)) == []


class TestAllProperties:
    """ModelIndex.flat: a class's properties, inherited ones first."""

    def test_identity_without_inheritance(self):
        model = dpp_model()
        names = [p.name for p in ModelIndex(model).flat("ProductPassport")]
        assert names == ["code", "product_name", "brand"]

    def test_single_level(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("a1", "int")]),
            ClassDef("B", properties=[Property("b1", "int")])])
        model.generalizations.append(Generalization("A", "B"))
        assert [p.name for p in ModelIndex(model).flat("B")] == ["a1", "b1"]

    def test_chain_general_most_first(self):
        # Hand-enumerated on the three-class chain: A's, then B's, then C's.
        model = chain_model()
        assert [p.name for p in ModelIndex(model).flat("C")] == \
            ["a1", "a2", "b1", "c1"]

    def test_unknown_class_has_no_properties(self):
        assert ModelIndex(dpp_model()).flat("Nope") == []

    def test_no_duplicates_on_random_valid_models(self):
        rng = random.Random(11)
        for _ in range(100):
            model = random_class_model(rng)
            index = ModelIndex(model)
            for cls in model.classes:
                names = [p.name for p in index.flat(cls.name)]
                assert len(names) == len(set(names))


class TestIsSubclassOf:
    """ModelIndex.conforms: sub is sup or one of its descendants."""

    def test_reflexive(self):
        assert ModelIndex(chain_model()).conforms("A", "A")

    def test_direct(self):
        assert ModelIndex(chain_model()).conforms("B", "A")

    def test_not_symmetric(self):
        assert not ModelIndex(chain_model()).conforms("A", "B")

    def test_an_unknown_class_conforms_to_nothing(self):
        index = ModelIndex(chain_model())
        assert not index.conforms("A", "Nope")
        assert not index.conforms("Nope", "Nope")

    def test_partial_order_on_random_models(self):
        rng = random.Random(13)
        for _ in range(40):
            model = random_class_model(rng)
            conforms = ModelIndex(model).conforms
            names = [c.name for c in model.classes]
            for a in names:
                assert conforms(a, a)
                for b in names:
                    if a != b and conforms(a, b):
                        assert not conforms(b, a)
                    for c in names:
                        if conforms(a, b) and conforms(b, c):
                            assert conforms(a, c)


class TestDeepHierarchies:
    def test_1500_deep_chain_parses_to_a_valid_model(self):
        depth = 1500
        text = ("@startuml\n"
                + "".join(f"class C{i} {{\n}}\n" for i in range(depth))
                + "".join(f"C{i} <|-- C{i + 1}\n" for i in range(depth - 1))
                + "@enduml\n")
        result = parse_class_model(text)
        assert result.ok
        assert result.diagnostics == []
        assert ModelIndex(result.model).ancestors(f"C{depth - 1}") == \
            [f"C{i}" for i in range(depth - 1)]

    def test_3000_deep_chain_declared_in_reverse_parses_to_a_valid_model(self):
        depth = 3000
        text = ("@startuml\n"
                + "".join(f"class C{i} {{\n}}\n" for i in reversed(range(depth)))
                + "".join(f"C{i} <|-- C{i + 1}\n" for i in reversed(range(depth - 1)))
                + "@enduml\n")
        result = parse_class_model(text)
        assert result.diagnostics == []
        index = ModelIndex(result.model)
        assert index.ancestors(f"C{depth - 1}") == [f"C{i}" for i in range(depth - 1)]
        assert index.ancestors(f"C{depth // 2}") == [f"C{i}" for i in range(depth // 2)]

    def test_1500_class_two_parent_lattice_parses_to_a_valid_model(self):
        # C{i} specializes both C{i - 1} and C{i - 2}; each declares one property.
        size = 1500
        text = ("@startuml\n"
                + "".join(f"class C{i} {{\n  p{i} : int\n}}\n" for i in range(size))
                + "".join(f"C{i - 1} <|-- C{i}\n" + (f"C{i - 2} <|-- C{i}\n" if i > 1 else "")
                          for i in range(1, size))
                + "@enduml\n")
        result = parse_class_model(text)
        assert result.diagnostics == []
        index = ModelIndex(result.model)
        assert index.ancestors(f"C{size - 1}") == [f"C{i}" for i in range(size - 1)]
        assert [p.name for p in index.flat(f"C{size - 1}")] == [f"p{i}" for i in range(size)]
        assert index.conforms(f"C{size - 1}", "C0") and not index.conforms("C0", "C1")

    def test_cycles_still_report_gen_cycle_with_the_same_text(self):
        text = ("@startuml\n"
                + "".join(f"class {name} {{\n}}\n" for name in "ABCDEFG")
                + "B <|-- A\nC <|-- B\nA <|-- C\nD <|-- C\nF <|-- E\nE <|-- F\n"
                + "G <|-- D\n@enduml\n")
        result = parse_class_model(text, filename="m.puml")
        assert not result.ok
        assert [d.format() for d in result.diagnostics] == [
            "error gen-cycle - generalization cycle: A -> B -> C -> A",
            "error gen-cycle - generalization cycle: E -> F -> E",
        ]
