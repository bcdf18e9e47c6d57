import random

import pytest

from modelkit.diagnostics import Severity
from modelkit.index import validate_class_model
from modelkit.metamodel import Multiplicity
from modelkit.puml import parse_class_model, render_multiplicity, serialize_class_model
from model_gen import random_class_model

DPP_TEXT = (
    "@startuml\n"
    "class ProductPassport {\n"
    "  code : str {id}\n"
    "  product_name : str\n"
    "  brand : str\n"
    "}\n"
    "@enduml\n"
)


def test_parse_single_class():
    result = parse_class_model(DPP_TEXT)
    assert result.ok
    model = result.model
    assert [c.name for c in model.classes] == ["ProductPassport"]
    props = model.classes[0].properties
    assert [(p.name, p.type_name, p.is_id) for p in props] == [
        ("code", "str", True),
        ("product_name", "str", False),
        ("brand", "str", False),
    ]


def test_empty_model():
    result = parse_class_model("@startuml\n@enduml\n")
    assert result.ok
    assert result.model.classes == []
    assert validate_class_model(result.model) == []


def test_stereotype_is_unsupported():
    result = parse_class_model("@startuml\nclass A <<weird>>\n@enduml\n")
    assert result.model is None
    assert len(result.diagnostics) == 1
    diag = result.diagnostics[0]
    assert diag.code == "unsupported-construct"
    assert diag.span.line == 2


def test_serialize_empty():
    from modelkit.metamodel import ClassModel
    assert serialize_class_model(ClassModel(name="model")) == "@startuml\n@enduml\n"


def test_serialize_is_a_fixed_point_on_the_single_class_fixture():
    model = parse_class_model(DPP_TEXT).model
    assert serialize_class_model(model) == DPP_TEXT


def test_association_line_rendering():
    text = ("@startuml\n"
            "class ProductPassport {\n}\n"
            "class Design {\n}\n"
            'ProductPassport "1" -- "0..*" Design : stages\n'
            "@enduml\n")
    model = parse_class_model(text).model
    out = serialize_class_model(model)
    assert 'ProductPassport "1" -- "0..*" Design : stages' in out
    again = parse_class_model(out).model
    assert again == model


def test_visibility_markers_accepted_and_ignored():
    text = ("@startuml\n"
            "class A {\n"
            "  + x : int\n"
            "  - y : str\n"
            "  # z : bool\n"
            "}\n"
            "@enduml\n")
    model = parse_class_model(text).model
    assert [p.name for p in model.classes[0].properties] == ["x", "y", "z"]


def test_comments_ignored_everywhere():
    text = ("' header comment\n"
            "@startuml\n"
            "class A { ' trailing\n"
            "  x : int ' field\n"
            "}\n"
            "@enduml\n")
    model = parse_class_model(text).model
    assert model is not None
    assert model.classes[0].properties[0].name == "x"


def test_abstract_and_generalization_and_enum():
    text = ("@startuml\n"
            "abstract class Shape {\n"
            "  kind : Kind\n"
            "}\n"
            "class Circle {\n"
            "  radius : float\n"
            "}\n"
            "enum Kind {\n"
            "  FLAT\n"
            "  ROUND\n"
            "}\n"
            "Shape <|-- Circle\n"
            "@enduml\n")
    model = parse_class_model(text).model
    assert model.classes[0].is_abstract
    assert model.enumerations[0].literals == ["FLAT", "ROUND"]
    gen = model.generalizations[0]
    assert (gen.general, gen.specific) == ("Shape", "Circle")


def test_unnamed_associations_get_generated_names():
    text = ("@startuml\n"
            "class A {\n}\n"
            "class B {\n}\n"
            "A -- B\n"
            "A -- B\n"
            "B -- A\n"
            "@enduml\n")
    model = parse_class_model(text).model
    assert [a.name for a in model.associations] == ["A_B_1", "A_B_2", "B_A_1"]


def test_composition_markers():
    text = ("@startuml\n"
            "class A {\n}\n"
            "class B {\n}\n"
            "A *-- B : owns\n"
            "A --* B : owned\n"
            "@enduml\n")
    model = parse_class_model(text).model
    owns, owned = model.associations
    assert owns.ends[0].is_composite and not owns.ends[1].is_composite
    assert not owned.ends[0].is_composite and owned.ends[1].is_composite


def test_default_multiplicity_is_many():
    text = "@startuml\nclass A {\n}\nA -- A : r\n@enduml\n"
    model = parse_class_model(text).model
    assert model.associations[0].ends[0].multiplicity == Multiplicity(0, None)


@pytest.mark.parametrize("spec,expected", [
    ("1", Multiplicity(1, 1)),
    ("*", Multiplicity(0, None)),
    ("0..1", Multiplicity(0, 1)),
    ("1..*", Multiplicity(1, None)),
    ("2..5", Multiplicity(2, 5)),
])
def test_multiplicity_forms(spec, expected):
    text = f'@startuml\nclass A {{\n}}\nA "{spec}" -- A : r\n@enduml\n'
    model = parse_class_model(text).model
    assert model.associations[0].ends[0].multiplicity == expected


def test_render_multiplicity_canonical_forms():
    assert render_multiplicity(Multiplicity(1, 1)) == "1"
    assert render_multiplicity(Multiplicity(0, None)) == "0..*"
    assert render_multiplicity(Multiplicity(0, 1)) == "0..1"
    assert render_multiplicity(Multiplicity(3, 3)) == "3"


def test_error_recovery_collects_multiple_errors():
    text = ("@startuml\n"
            "class A {\n"
            "  broken attribute here\n"
            "}\n"
            "note left of A\n"
            "class B {\n"
            "  ok : int\n"
            "}\n"
            "@enduml\n")
    result = parse_class_model(text)
    assert result.model is None
    codes = [d.code for d in result.diagnostics]
    assert codes.count("syntax") == 1
    assert codes.count("unsupported-construct") == 1


def test_every_error_span_is_inside_the_input():
    texts = [
        "",
        "class A",
        "@startuml\nclass A\n@enduml\n",
        "@startuml\nclass A {\n",
        "@startuml\n}\n@enduml\n",
        "@startuml\nA -- \n@enduml\n",
        '@startuml\nclass A {\n}\nA "x..y" -- A : r\n@enduml\n',
    ]
    for text in texts:
        result = parse_class_model(text)
        lines = text.split("\n")
        for diag in result.diagnostics:
            if diag.severity is Severity.ERROR and diag.span is not None:
                assert 1 <= diag.span.line <= max(len(lines), 1)
                assert diag.span.column >= 1


def test_semantically_invalid_model_is_withheld():
    text = ("@startuml\n"
            "class A {\n}\n"
            "class B {\n}\n"
            "A <|-- B\n"
            "B <|-- A\n"
            "@enduml\n")
    result = parse_class_model(text)
    assert result.model is None
    assert [d.code for d in result.diagnostics] == ["gen-cycle"]


def test_serializing_an_invalid_model_is_rejected():
    from modelkit.metamodel import ClassDef, ClassModel, Generalization
    model = ClassModel(name="m", classes=[ClassDef("A"), ClassDef("B")])
    model.generalizations.append(Generalization("A", "B"))
    model.generalizations.append(Generalization("B", "A"))
    with pytest.raises(ValueError):
        serialize_class_model(model)


@pytest.mark.parametrize("j", [0, 1])
def test_serializing_an_association_end_role_is_refused(j):
    """The notation has no role syntax, so the text could not give the role back."""
    text = "@startuml\nclass A {\n}\nclass B {\n}\nA -- B : r\n@enduml\n"
    model = parse_class_model(text).model
    model.associations[0].ends[j].role = "owner"
    with pytest.raises(ValueError) as raised:
        serialize_class_model(model)
    assert str(raised.value) == (f"cannot write end {j} ('{'AB'[j]}') of association 'r': "
                                 "role 'owner' has no syntax in the notation")


def test_roundtrip_on_random_models():
    rng = random.Random(101)
    for _ in range(120):
        model = random_class_model(rng)
        text = serialize_class_model(model)
        reparsed = parse_class_model(text)
        assert reparsed.ok, reparsed.diagnostics
        assert reparsed.model == model
        # Serialization is deterministic: equal models, identical bytes.
        assert serialize_class_model(reparsed.model) == text


def _where(result):
    return [(d.code, d.span.line, d.message) for d in result.diagnostics]


@pytest.mark.parametrize("text, expected", [
    # A missing start marker is reported and its line read as a declaration.
    ("class A {\n}\n@enduml\n", [("syntax", 1, "expected @startuml")]),
    ("@enduml\n", [("syntax", 1, "expected @startuml")]),
    # Empty input reports the start marker on the last line.
    ("", [("syntax", 1, "expected @startuml")]),
    ("\n\n", [("syntax", 3, "expected @startuml")]),
    # Content after the end marker is reported once and ends the parse.
    ("@startuml\n@enduml\nclass A {\n  x y\n", [("syntax", 3, "content after @enduml")]),
    # A repeated end marker is not content.
    ("@startuml\n@enduml\n@enduml\n", []),
    ("@startuml\nclass A {\n}\n\n", [("syntax", 5, "missing @enduml")]),
    ("@startuml\nclass A {\n  x : int\n",
     [("syntax", 4, "class 'A' body is never closed"), ("syntax", 4, "missing @enduml")]),
    ("@startuml\nenum E {\n  RED\n  bad one\n",
     [("syntax", 4, "malformed literal in enum 'E': bad one"),
      ("syntax", 5, "enum 'E' body is never closed"), ("syntax", 5, "missing @enduml")]),
    # A malformed declaration's block is skipped without a word about its body.
    ("@startuml\nclass A B {\n  junk here\n}\nclass C {\n  n : int\n}\n@enduml\n",
     [("syntax", 2, "malformed class declaration")]),
    ("@startuml\nenum {\n  X\n",
     [("syntax", 2, "malformed enum declaration"), ("syntax", 4, "missing @enduml")]),
    # The end marker inside a body is body text.
    ("@startuml\nclass A {\n@enduml\n",
     [("syntax", 3, "malformed attribute in class 'A': @enduml"),
      ("syntax", 4, "class 'A' body is never closed"), ("syntax", 4, "missing @enduml")]),
])
def test_envelope_and_block_diagnostics(text, expected):
    result = parse_class_model(text)
    assert _where(result) == expected
    assert result.ok == (not expected)


def test_apostrophe_inside_a_double_quoted_string_is_not_a_comment():
    result = parse_class_model(
        '@startuml\nclass A {\n}\nA "1\'" -- A : r \' a comment\n@enduml\n')
    assert _where(result) == [("syntax", 4, 'malformed multiplicity "1\'"')]
    result = parse_class_model(
        '@startuml\nclass A {\n}\nA "1" -- "0..*" A : r \' it\'s "quoted"\n@enduml\n')
    assert result.ok, result.diagnostics
