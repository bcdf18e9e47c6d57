"""The full text of diagnostics that the other in-process tests do not
reach: each is pinned as `Diagnostic.format()` (or the CLI line) writes it."""

import pytest

from brute_conf import brute_conformance
from conftest import FIXTURES
from modelkit.cli import main
from modelkit.codegen.sqlddl import generate_sql_ddl
from modelkit.conformance import check_conformance
from modelkit.flex import enforce_conformance, infer_class_model
from modelkit.index import validate_class_model
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    AttributeLink,
    ClassDef,
    ClassModel,
    EnumDef,
    Generalization,
    Link,
    Multiplicity,
    ObjectDef,
    ObjectModel,
    Property,
)

DPP = str(FIXTURES / "dpp.buml.puml")
DPP_OBJECTS = str(FIXTURES / "dpp.objs")

MODEL = ClassModel("m", [ClassDef("A", properties=[Property("code", "str")])],
                   associations=[Association("r", (AssociationEnd("A"), AssociationEnd("A")))])
TWICE = ObjectDef("a1", "A", [AttributeLink("code", "x"), AttributeLink("code", "y")])
OTHER = ObjectDef("a2", "A", [AttributeLink("code", "z")])
THREE_ENDS = Link("r", ("a1", "a2", "a1"))
ONE_END = Link("r", ("a1",))


def test_a_slot_assigned_twice_is_a_dup_slot():
    population = ObjectModel(objects=[TWICE, OTHER])
    found = check_conformance(population, MODEL)
    assert [d.format() for d in found] == [
        "error dup-slot - object 'a1' assigns property 'code' more than once"]
    assert sorted((d.code, d.subject) for d in found) == brute_conformance(population, MODEL)


def test_a_link_without_two_ends_is_a_link_ends_error():
    population = ObjectModel(objects=[TWICE, OTHER], links=[THREE_ENDS, ONE_END])
    found = check_conformance(population, MODEL)
    assert [d.format() for d in found] == [
        "error dup-slot - object 'a1' assigns property 'code' more than once",
        "error link-ends - link of 'r' must have exactly two ends",
        "error link-ends - link of 'r' must have exactly two ends"]
    assert [d.subject for d in found[1:]] == ["link[0]", "link[1]"]
    assert sorted((d.code, d.subject) for d in found) == brute_conformance(population, MODEL)


@pytest.mark.parametrize("obj, codes, texts, kept", [
    (TWICE, ["dup-slot"],
     ["warning removed-slot - removed slot 'a1.code': duplicate assignment"], TWICE.slots[:1]),
    # An ill-typed first assignment is present to conformance, so it reports
    # no slot-missing; enforcement removes both, and then the slot is missing.
    (ObjectDef("a1", "A", [AttributeLink("code", 1), AttributeLink("code", "y")]),
     ["slot-type", "dup-slot"],
     ["warning removed-slot - removed slot 'a1.code': value does not fit declared type 'str'",
      "warning removed-slot - removed slot 'a1.code': duplicate assignment",
      "error slot-missing - object 'a1' has no slot for required property 'code'"], []),
], ids=["first-fits", "first-ill-typed"])
def test_enforce_removes_a_second_assignment(obj, codes, texts, kept):
    population = ObjectModel(objects=[obj, OTHER])
    assert [d.code for d in check_conformance(population, MODEL)] == codes
    pruned, found = enforce_conformance(population, MODEL)
    assert [d.format() for d in found] == texts
    assert pruned.objects[0].slots == kept


def test_validation_reports_names_ends_bounds_and_generalizations():
    model = ClassModel(
        "1m", [ClassDef("2C", properties=[Property("3p", "int")]), ClassDef("B")],
        [EnumDef("E", ["4L"])],
        [Association("r", (AssociationEnd("B", "5x"), AssociationEnd("B"))),
         Association("s", (AssociationEnd("B"),)),
         Association("t", (AssociationEnd("B", multiplicity=Multiplicity(-1, None)),
                           AssociationEnd("B", multiplicity=Multiplicity(0, 0))))],
        [Generalization("Nope", "B")])
    found = validate_class_model(model)
    assert [d.format() for d in found] == [
        "error bad-name - model name '1m' is not an identifier",
        "error bad-name - class name '2C' is not an identifier",
        "error bad-name - property name '3p' is not an identifier",
        "error bad-name - enumeration literal '4L' is not an identifier",
        "error bad-name - role '5x' on association 'r' is not an identifier",
        "error assoc-ends - association 's' must have exactly two ends",
        "error bad-mult - association 't' end has malformed multiplicity bounds",
        "error bad-mult - association 't' end has malformed multiplicity bounds",
        "error unknown-class - generalization references unknown class 'Nope'"]
    # An end-level diagnostic names its end; the two bad ends of 't' differ.
    assert [d.subject for d in found[4:8]] == ["r[0]", "s", "t[0]", "t[1]"]


def test_two_classes_mangled_to_one_table_name_collide():
    model = ClassModel("m", [ClassDef("FooBar", properties=[Property("a", "int")]),
                             ClassDef("foo_bar", properties=[Property("b", "int")])])
    assert [d.format() for d in generate_sql_ddl(model).diagnostics] == [
        "error name-collision - table name 'foo_bar' produced twice after snake_case mangling"]


def test_infer_names_a_fresh_end_class_past_a_taken_name():
    population = ObjectModel(
        objects=[ObjectDef("x", "r_End0"), ObjectDef("y", "B"), ObjectDef("z", "C")],
        links=[Link("r", ("y", "x")), Link("r", ("z", "x"))])
    found = []
    model = infer_class_model(population, found)
    assert [d.format() for d in found] == [
        "warning mixed-end - links of 'r' mix classifiers ['B', 'C'] at end 0; "
        "unified under new general class 'r_End0_'"]
    assert [c.name for c in model.classes] == ["r_End0", "B", "C", "r_End0_"]
    assert [a.ends[0].target for a in model.associations] == ["r_End0_"]


def test_infer_skips_a_link_to_a_missing_object():
    """Such a link infers nothing, as a link without two ends infers
    nothing; checking the population reports it, not the inferred bounds."""
    dangling = Link("r", ("x", "ghost"))
    alone = ObjectModel(objects=[ObjectDef("x", "A"), ObjectDef("y", "B")], links=[dangling])
    found = []
    model = infer_class_model(alone, found)
    assert (found, [c.name for c in model.classes], model.associations) == ([], ["A", "B"], [])
    assert [d.format() for d in check_conformance(alone, model)] == [
        "error unknown-association - link references unknown association 'r'"]
    beside = ObjectModel(objects=alone.objects,
                         links=[dangling, Link("r", ("x", "y"))])
    model = infer_class_model(beside, found)
    assert found == [] and [(a.name, [e.target for e in a.ends]) for a in model.associations] \
        == [("r", ["A", "B"])]
    assert [d.format() for d in check_conformance(beside, model)] == [
        "error unknown-object - link of 'r' references unknown object 'ghost'"]


def test_check_reports_a_constraint_on_an_unknown_class(capsys, tmp_path):
    rules = tmp_path / "rules.ocl"
    rules.write_text("context Ghost inv g: true\n")
    assert main(["check", "--model", DPP, "--objects", DPP_OBJECTS, "--ocl", str(rules)]) == 1
    assert capsys.readouterr().out == "ERROR g unknown context class 'Ghost'\n"


@pytest.mark.parametrize("command", [["infer", "--objects", DPP_OBJECTS],
                                     ["enforce", "--model", DPP, "--objects", DPP_OBJECTS],
                                     ["generate", "--model", DPP, "--target", "sql"]])
def test_an_unwritable_output_exits_two(capsys, tmp_path, command):
    """A directory is no file to write, nor a file a directory to write under;
    what the command reported before the write stays on stdout."""
    if command[0] == "generate":
        out = tmp_path / "file"
        out.write_text("")
        unwritable = f"{out}/sql/schema.sql: Not a directory"
    else:
        out, unwritable = tmp_path, f"{tmp_path}: Is a directory"
    reported = {"infer": "warning mixed-end - links of 'stages' mix classifiers ['Design', "
                "'Manufacture', 'Use'] at end 1; unified under new general class "
                "'stages_End1'\n"}.get(command[0], "")
    assert main([*command, "--out", str(out)]) == 2
    assert capsys.readouterr() == (reported, f"error: cannot write {unwritable}\n")
