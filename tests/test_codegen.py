import contextlib
import ctypes
import random
import re
import sqlite3

import pytest

from modelkit.codegen import (
    GeneratedArtifact,
    GeneratorError,
    GeneratorRegistry,
    GenerationResult,
    builtin_registry,
    snake_case,
)
from modelkit.codegen.plainclasses import generate_plain_classes
from modelkit.codegen.sqlddl import (
    _RESERVED,
    _dependency_order,
    _quote,
    _Table,
    generate_sql_ddl,
)
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    ClassDef,
    ClassModel,
    Generalization,
    Multiplicity,
    Property,
)
from modelkit.index import ModelIndex, validate_class_model
from modelkit.puml import parse_class_model
from model_gen import random_class_model
from sql_grammar import check_sql

GOLDEN_FIXTURES = ("dpp", "empty", "shapes", "network", "registry")


def load_fixture(name, fixtures_dir, test_fixtures_dir):
    path = fixtures_dir / "dpp.buml.puml" if name == "dpp" \
        else test_fixtures_dir / f"{name}.buml.puml"
    result = parse_class_model(path.read_text(), filename=str(path))
    assert result.ok, result.diagnostics
    return result.model


def single_class_dpp() -> ClassModel:
    return parse_class_model(
        "@startuml\n"
        "class ProductPassport {\n"
        "  code : str {id}\n"
        "  product_name : str\n"
        "  brand : str\n"
        "}\n"
        "@enduml\n").model


class TestRegistry:
    def test_builtin_order(self):
        assert builtin_registry().ids() == ["classes", "sql"]

    def test_registering_after_a_builtin_preserves_order(self):
        registry = GeneratorRegistry()
        registry.register("classes", generate_plain_classes)
        registry.register("sql", generate_sql_ddl)
        assert registry.ids() == ["classes", "sql"]

    def test_duplicate_id(self):
        registry = builtin_registry()
        with pytest.raises(GeneratorError) as info:
            registry.register("sql", lambda m: GenerationResult())
        assert info.value.code == "dup-generator"
        assert str(info.value) == "generator 'sql' already registered"

    def test_unknown_id(self):
        with pytest.raises(GeneratorError) as info:
            builtin_registry().generate("nope", ClassModel())
        assert info.value.code == "no-such-generator"
        assert str(info.value) == "no generator 'nope'; available: classes, sql"

    def test_artifact_paths_must_be_safe(self):
        with pytest.raises(ValueError):
            GeneratedArtifact("../escape.txt", "x")
        with pytest.raises(ValueError):
            GeneratedArtifact("/abs.txt", "x")


class TestPlainClasses:
    def test_constructor_parameters_are_exactly_the_attributes(self):
        result = generate_plain_classes(single_class_dpp())
        (artifact,) = result.artifacts
        assert artifact.relative_path == "product_passport.gen"
        assert artifact.content == (
            "class ProductPassport:\n"
            "    def __init__(self, code, product_name, brand):\n"
            "        self.code = code\n"
            "        self.product_name = product_name\n"
            "        self.brand = brand\n")

    def test_class_without_attributes_gets_an_empty_body_marker(self):
        model = ClassModel(name="m", classes=[ClassDef("Blank")])
        (artifact,) = generate_plain_classes(model).artifacts
        assert artifact.content == (
            "class Blank:\n"
            "    def __init__(self):\n"
            "        pass\n")

    def test_inherited_attributes_come_first(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("a1", "int")]),
            ClassDef("B", properties=[Property("b1", "int")])])
        model.generalizations.append(Generalization("A", "B"))
        artifact = generate_plain_classes(model).artifacts[1]
        assert "def __init__(self, a1, b1):" in artifact.content

    def test_association_ends_become_initialized_fields(self):
        model = ClassModel(name="m", classes=[
            ClassDef("P", properties=[Property("k", "str", is_id=True)]),
            ClassDef("S")])
        model.associations.append(Association("r", (
            AssociationEnd("P", multiplicity=Multiplicity(1, 1)),
            AssociationEnd("S", role="items",
                           multiplicity=Multiplicity(0, None)))))
        p_art, s_art = generate_plain_classes(model).artifacts
        assert "        self.items = []\n" in p_art.content
        assert "        self.p = None\n" in s_art.content

    def test_assignment_line_count_matches_all_properties(self):
        rng = random.Random(61)
        pattern = re.compile(r"^        self\.(\w+) = \1$", re.MULTILINE)
        for _ in range(40):
            model = random_class_model(rng)
            artifacts = generate_plain_classes(model).artifacts
            assert len(artifacts) == len(model.classes)
            index = ModelIndex(model)
            for cls, artifact in zip(model.classes, artifacts):
                expected = len(index.flat(cls.name))
                assert len(pattern.findall(artifact.content)) == expected

    def test_a_name_python_reserves_is_reported_and_left_out(self):
        model = parse_class_model(RESERVED_NAMES).model
        result = generate_plain_classes(model)
        assert [(d.format(), d.subject) for d in result.diagnostics] == [
            ("error gen-unsupported - attribute 'Order.class' is a reserved name in "
             "Python and is left out", "Order.class"),
            ("error gen-unsupported - attribute 'Order.None' is a reserved name in "
             "Python and is left out", "Order.None"),
            ("error gen-unsupported - attribute 'Order.self' is a reserved name in "
             "Python and is left out", "Order.self"),
            ("error gen-unsupported - association end 'Order.lambda' is a reserved "
             "name in Python and is left out", "Order.lambda"),
            ("error gen-unsupported - class 'import' is a reserved name in Python "
             "and is left out", "import")]
        assert [(a.relative_path, a.content) for a in result.artifacts] == [
            ("order.gen", "class Order:\n"
                          "    def __init__(self, order):\n"
                          "        self.order = order\n"),
            ("lambda.gen", "class Lambda:\n"
                           "    def __init__(self):\n"
                           "        self.order = None\n")]


# Validates clean; Python reserves its keywords, and `self` as a parameter.
RESERVED_NAMES = """\
@startuml
class Order {
  class : int
  None : str
  order : int
  self : int
}
class Lambda {
}
class import {
}
Order "1" -- "*" Lambda : r
@enduml
"""


class TestSqlDdl:
    def test_primary_key_and_snake_case(self):
        content = generate_sql_ddl(single_class_dpp()).artifacts[0].content
        assert "CREATE TABLE product_passport (" in content
        assert "PRIMARY KEY (code)" in content

    def test_empty_model_is_header_only(self):
        content = generate_sql_ddl(ClassModel(name="m")).artifacts[0].content
        assert content == "-- SQL schema for model 'm'\n"

    def test_composite_primary_key(self):
        model = ClassModel(name="m", classes=[ClassDef("E", properties=[
            Property("a", "str", is_id=True),
            Property("b", "int", is_id=True),
            Property("v", "float")])])
        content = generate_sql_ddl(model).artifacts[0].content
        assert "PRIMARY KEY (a, b)" in content

    def test_abstract_classes_never_become_tables(self):
        model = ClassModel(name="m", classes=[
            ClassDef("Base", is_abstract=True,
                     properties=[Property("x", "int")]),
            ClassDef("Leaf")])
        model.generalizations.append(Generalization("Base", "Leaf"))
        content = generate_sql_ddl(model).artifacts[0].content
        assert "CREATE TABLE base" not in content
        assert "CREATE TABLE leaf (\n  x INTEGER\n);" in content

    def test_class_typed_property_is_unsupported(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("a", "int")]),
            ClassDef("B", properties=[Property("ref", "A"),
                                      Property("b", "int")])])
        result = generate_sql_ddl(model)
        assert [d.code for d in result.diagnostics] == ["gen-unsupported"]
        assert "ref" not in result.artifacts[0].content

    def test_abstract_association_end_is_unsupported(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", is_abstract=True), ClassDef("B", properties=[
                Property("b", "int")])])
        model.associations.append(Association("r", (
            AssociationEnd("A", multiplicity=Multiplicity(1, 1)),
            AssociationEnd("B"))))
        result = generate_sql_ddl(model)
        assert [d.code for d in result.diagnostics] == ["gen-unsupported"]

    def test_roleless_self_many_to_many_is_unsupported(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("k", "int", is_id=True)])])
        model.associations.append(Association("peers", (
            AssociationEnd("A"), AssociationEnd("A"))))
        result = generate_sql_ddl(model)
        assert [d.code for d in result.diagnostics] == ["gen-unsupported"]
        assert "CREATE TABLE peers" not in result.artifacts[0].content

    def test_roles_disambiguate_self_many_to_many(self):
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("k", "int", is_id=True)])])
        model.associations.append(Association("peers", (
            AssociationEnd("A", role="parent"),
            AssociationEnd("A", role="child"))))
        result = generate_sql_ddl(model)
        assert result.diagnostics == []
        content = result.artifacts[0].content
        assert "PRIMARY KEY (parent_k, child_k)" in content

    def test_a_foreign_key_column_named_like_a_property_collides(self):
        model = ClassModel(name="m", classes=[
            ClassDef("P", properties=[Property("code", "str", is_id=True)]),
            ClassDef("S", properties=[Property("p_code", "str")])])
        model.associations.append(Association("owns", (
            AssociationEnd("P", multiplicity=Multiplicity(1, 1)),
            AssociationEnd("S"))))
        result = generate_sql_ddl(model)
        assert [(d.format(), d.subject) for d in result.diagnostics] == [(
            "error name-collision - column 'p_code' appears twice in table 's' "
            "(association 'owns')", "s.p_code")]
        assert "CREATE TABLE s (\n  p_code TEXT\n);" in result.artifacts[0].content

    def test_column_names_that_differ_only_in_case_collide(self):
        """SQLite compares column names without case, so it rejects a table
        with both; the second is reported and left out, and the schema runs."""
        model = parse_class_model(
            "@startuml\nclass Item {\n  Name : int {id}\n  name : str\n  NAME : bool\n"
            "  label : str\n}\nclass Tag {\n  k : int {id}\n  item_name : str\n}\n"
            'Item "1" -- "*" Tag : tags\n@enduml\n').model
        result = generate_sql_ddl(model)
        assert [(d.format(), d.subject) for d in result.diagnostics] == [
            ("error name-collision - column 'name' appears twice in table 'item' "
             "(declared property)", "item.name"),
            ("error name-collision - column 'NAME' appears twice in table 'item' "
             "(declared property)", "item.NAME"),
            ("error name-collision - column 'item_Name' appears twice in table 'tag' "
             "(association 'tags')", "tag.item_Name")]
        content = result.artifacts[0].content
        assert "CREATE TABLE item (\n  Name INTEGER,\n  label TEXT,\n" in content
        assert check_sql(content) == []
        with contextlib.closing(sqlite3.connect(":memory:")) as db:
            db.executescript("PRAGMA foreign_keys = ON;\n" + content)
            db.execute("INSERT INTO item VALUES (1, 'x')")
            db.execute("INSERT INTO tag VALUES (2, 'y')")
        both = content.replace("  label TEXT", "  name TEXT")
        with contextlib.closing(sqlite3.connect(":memory:")) as db:
            with pytest.raises(sqlite3.OperationalError, match="duplicate column"):
                db.executescript(both)

    def test_a_cycle_of_references_is_entered_at_its_earliest_table(self):
        """c1 references c2, and c2 and c3 reference each other: no table is
        ready, and the cycle, not the earliest table, goes first, so that
        the only reference ahead of its table is one inside the cycle."""
        model = parse_class_model(
            "@startuml\n" + "".join(f"class C{i} {{\n  k : int {{id}}\n}}\n" for i in (1, 2, 3))
            + 'C2 "1" -- "*" C1 : r1\nC3 "1" -- "*" C2 : r2\nC2 "1" -- "*" C3 : r3\n'
            "@enduml\n").model
        result = generate_sql_ddl(model)
        assert result.diagnostics == []
        content = result.artifacts[0].content
        assert re.findall(r"^CREATE TABLE (\w+)", content, re.MULTILINE) == ["c2", "c1", "c3"]
        assert check_sql(content) == []
        first_declared = content.split("\n\n")
        first_declared[1:] = [first_declared[2], first_declared[1], first_declared[3]]
        assert check_sql("\n\n".join(first_declared)) == [
            "line 7: references 'c2' before it is defined"]

    def test_a_join_table_named_like_a_class_table_collides(self):
        model = parse_class_model(
            "@startuml\nclass A_B {\n  k : int {id}\n}\nclass A {\n  k : int {id}\n}\n"
            "class B {\n  k : int {id}\n}\nA \"*\" -- \"*\" B : a_b\n@enduml\n").model
        result = generate_sql_ddl(model)
        assert [(d.format(), d.subject) for d in result.diagnostics] == [(
            "error name-collision - table name 'a_b' produced twice after snake_case "
            "mangling", "a_b")]
        content = result.artifacts[0].content
        assert re.findall(r"^CREATE TABLE (\w+)", content, re.MULTILINE) == ["a_b", "a", "b"]
        assert "CREATE TABLE a_b (\n  k INTEGER,\n  PRIMARY KEY (k)\n);" in content

    def test_associations_of_a_class_whose_table_collided_are_left_out(self):
        """The class has no table for a key to live in, to reference, or to
        join: each of its associations is reported after the collision."""
        model = parse_class_model(
            "@startuml\nclass FooBar {\n  k : int {id}\n}\nclass foo_bar {\n  k : int {id}\n}\n"
            "class X {\n  k : int {id}\n}\n"
            'X "1" -- "*" foo_bar : holds\nfoo_bar "1" -- "*" X : held\n'
            'foo_bar "*" -- "*" X : pairs\n@enduml\n').model
        result = generate_sql_ddl(model)
        assert [(d.code, d.message, d.subject) for d in result.diagnostics] == [
            ("name-collision", "table name 'foo_bar' produced twice after snake_case "
             "mangling", "foo_bar")] + [
            ("gen-unsupported", f"association '{name}' is left out: class 'foo_bar' "
             "has no table", name) for name in ("holds", "held", "pairs")]
        assert result.artifacts[0].content == (
            "-- SQL schema for model 'model'\n\n"
            "CREATE TABLE foo_bar (\n  k INTEGER,\n  PRIMARY KEY (k)\n);\n\n"
            "CREATE TABLE x (\n  k INTEGER,\n  PRIMARY KEY (k)\n);\n")

    def test_an_association_to_an_undeclared_class_is_left_to_validation(self):
        """An unvalidated model: the generator skips what validation reports."""
        model = ClassModel(name="m", classes=[
            ClassDef("A", properties=[Property("k", "int", is_id=True)])])
        model.associations.append(Association("r", (
            AssociationEnd("A", multiplicity=Multiplicity(1, 1)), AssociationEnd("Ghost"))))
        result = generate_sql_ddl(model)
        assert result.diagnostics == []
        assert result.artifacts[0].content == (
            "-- SQL schema for model 'm'\n\nCREATE TABLE a (\n  k INTEGER,\n"
            "  PRIMARY KEY (k)\n);\n")

    def test_generated_sql_always_parses(self):
        rng = random.Random(71)
        for _ in range(60):
            model = random_class_model(rng)
            content = generate_sql_ddl(model).artifacts[0].content
            assert check_sql(content) == [], content

    def test_every_concrete_class_has_exactly_one_table(self):
        rng = random.Random(73)
        for _ in range(40):
            model = random_class_model(rng)
            content = generate_sql_ddl(model).artifacts[0].content
            tables = re.findall(r"^CREATE TABLE (\w+) \($", content, re.MULTILINE)
            join_tables = {snake_case(a.name) for a in model.associations}
            class_tables = [t for t in tables if t not in join_tables]
            concrete = [snake_case(c.name) for c in model.classes
                        if not c.is_abstract]
            assert sorted(class_tables) == sorted(set(concrete))


def sqlite_reads(name: str) -> bool:
    """Whether SQLite reads `name` in each place `sql` writes a table or
    column name: a table, a column, a key, a reference and an enum CHECK."""
    script = (f"CREATE TABLE {name} ({name} INTEGER, PRIMARY KEY ({name}));\n"
              f"CREATE TABLE t ({name} TEXT CHECK ({name} IN ('a')),\n"
              f"  FOREIGN KEY ({name}) REFERENCES {name} ({name}));\n")
    with contextlib.closing(sqlite3.connect(":memory:")) as db:
        try:
            db.executescript(script)
        except sqlite3.Error:
            return False
    return True


def sqlite_keywords() -> list[str]:
    """The keywords of the SQLite library `sqlite3` runs on, from its C API;
    AttributeError when the library does not export that API."""
    import _sqlite3
    lib = ctypes.CDLL(_sqlite3.__file__)
    count, name_of = lib.sqlite3_keyword_count, lib.sqlite3_keyword_name
    name_of.argtypes = [ctypes.c_int, ctypes.POINTER(ctypes.c_char_p),
                        ctypes.POINTER(ctypes.c_int)]
    words = []
    for i in range(count()):
        text, size = ctypes.c_char_p(), ctypes.c_int()
        name_of(i, ctypes.byref(text), ctypes.byref(size))
        words.append(ctypes.string_at(text, size.value).decode())
    return words


def test_every_reserved_word_fails_bare_and_passes_quoted():
    for word in sorted(_RESERVED):
        assert not sqlite_reads(word), word
        assert sqlite_reads(f'"{word}"'), word
        assert _quote(word.upper()) == f'"{word.upper()}"'
    assert [_quote(name) for name in ("order_id", "Group", "k")] == ["order_id", '"Group"', "k"]


def test_every_keyword_sqlite_rejects_bare_is_reserved():
    try:
        keywords = sqlite_keywords()
    except AttributeError:
        pytest.skip("the SQLite library does not list its keywords")
    assert len(keywords) > 100
    assert {word.lower() for word in keywords if not sqlite_reads(word)} <= _RESERVED


def test_reserved_names_are_quoted_and_sqlite_runs_the_schema():
    """A class, an attribute, an {id} attribute, an enum-typed attribute and a
    many-to-many association, each named with a reserved word in any case."""
    model = parse_class_model(
        "@startuml\nenum Check {\n  A\n  B\n}\n"
        "class Order {\n  Group : int {id}\n  check : Check\n  from : str\n}\n"
        "class Item {\n  index : int {id}\n}\n"
        'Order "1" -- "*" Item : lines\nOrder "*" -- "*" Item : Where\n@enduml\n').model
    result = generate_sql_ddl(model)
    assert result.diagnostics == []
    content = result.artifacts[0].content
    assert content == (
        "-- SQL schema for model 'model'\n\n"
        'CREATE TABLE "order" (\n  "Group" INTEGER,\n'
        '  "check" TEXT CHECK ("check" IN (\'A\', \'B\')),\n  "from" TEXT,\n'
        '  PRIMARY KEY ("Group")\n);\n\n'
        'CREATE TABLE item (\n  "index" INTEGER,\n  order_Group INTEGER NOT NULL,\n'
        '  PRIMARY KEY ("index"),\n'
        '  FOREIGN KEY (order_Group) REFERENCES "order" ("Group")\n);\n\n'
        'CREATE TABLE "where" (\n  order_Group INTEGER NOT NULL,\n'
        "  item_index INTEGER NOT NULL,\n  PRIMARY KEY (order_Group, item_index),\n"
        '  FOREIGN KEY (order_Group) REFERENCES "order" ("Group"),\n'
        '  FOREIGN KEY (item_index) REFERENCES item ("index")\n);\n')
    assert check_sql(content) == []
    with contextlib.closing(sqlite3.connect(":memory:")) as db:
        db.executescript("PRAGMA foreign_keys = ON;\n" + content)
        db.executescript('INSERT INTO "order" VALUES (1, \'A\', \'x\');\n'
                         "INSERT INTO item VALUES (7, 1);\n"
                         'INSERT INTO "where" VALUES (1, 7);')
        with pytest.raises(sqlite3.IntegrityError):  # the CHECK reads the column
            db.execute('INSERT INTO "order" VALUES (2, \'C\', \'y\')')
        with pytest.raises(sqlite3.IntegrityError):  # the key references "order"
            db.execute("INSERT INTO item VALUES (8, 5)")



def test_models_named_with_reserved_words_give_sql_that_check_sql_and_sqlite_read():
    """Seeded models whose class, attribute, association and role names are
    all words SQLite reserves, attributes in any case: the schema quotes
    each one where it stands bare, `check_sql` reads it and SQLite runs it."""
    rng = random.Random(2023)
    delimited = 0
    for case in range(80):
        model = random_class_model(rng, max_classes=6, max_props=4, max_assocs=5,
                                   names=_RESERVED)
        assert validate_class_model(model) == [], case
        content = generate_sql_ddl(model).artifacts[0].content
        assert check_sql(content) == [], content
        with contextlib.closing(sqlite3.connect(":memory:")) as db:
            db.executescript("PRAGMA foreign_keys = ON;\n" + content)
        delimited += content.count('"') // 2
    assert delimited > 200, delimited


def test_check_sql_reads_delimited_names_and_matches_them_to_bare_ones():
    content = ('-- SQL schema for model \'m\'\n\n'
               'CREATE TABLE "order" (\n  "Group" INTEGER,\n  k TEXT,\n'
               '  PRIMARY KEY ("Group", "k")\n);\n\n'
               'CREATE TABLE item (\n  "a ""b""" INTEGER,\n  c TEXT,\n'
               '  FOREIGN KEY ("a ""b""", c) REFERENCES "order" ("Group", "k")\n);\n')
    assert check_sql(content) == []
    assert check_sql(content.replace('"order" ("Group", "k")', '"order" ("Group", "K")')) == [
        "line 12: references unknown column 'order.K'"]
    assert check_sql(content.replace('REFERENCES "order"', "REFERENCES items")) == [
        "line 12: references 'items' before it is defined"]


def test_check_sql_lets_a_reference_come_first_only_within_a_cycle():
    """Two tables that reference each other have no order that puts each
    after what it references; a reference ahead with no way back does."""
    def schema(back: str) -> str:
        return ("-- SQL schema for model 'm'\n\n"
                "CREATE TABLE a (\n  k INTEGER,\n  b_k INTEGER,\n  PRIMARY KEY (k),\n"
                "  FOREIGN KEY (b_k) REFERENCES b (k)\n);\n\n"
                f"CREATE TABLE b (\n  k INTEGER,\n  a_k INTEGER,\n  PRIMARY KEY (k){back}\n);\n")
    assert check_sql(schema(",\n  FOREIGN KEY (a_k) REFERENCES a (k)")) == []
    assert check_sql(schema(",\n  FOREIGN KEY (a_k) REFERENCES a (z)")) == [
        "line 14: references unknown column 'a.z'"]
    assert check_sql(schema(",\n  FOREIGN KEY (a_k) REFERENCES b (k)")) == [
        "line 7: references 'b' before it is defined"]
    assert check_sql(schema("").replace("REFERENCES b (k)", "REFERENCES b (z)")) == [
        "line 7: references 'b' before it is defined"]



def quadratic_dependency_order(tables):
    """The table ordering done the slow way, kept as the reference: rescan
    every remaining table for each one emitted, and when none is ready, take
    the earliest-declared one from which a chain of references among the
    remaining tables leads back to itself."""
    remaining = dict(tables)
    emitted = []

    def refs(name):
        return {ref for _, ref, _ in tables[name].foreign_keys
                if ref in remaining and ref != name}

    def on_cycle(name):
        seen, todo = set(), [name]
        while todo:
            for ref in refs(todo.pop()):
                if ref == name:
                    return True
                if ref not in seen:
                    seen.add(ref)
                    todo.append(ref)
        return False

    while remaining:
        ready = [t for t in remaining.values() if not refs(t.name)]
        if not ready:
            ready = [t for t in remaining.values() if on_cycle(t.name)]
        nxt = min(ready, key=lambda t: t.order)
        emitted.append(nxt)
        del remaining[nxt.name]
    return emitted


def test_dependency_order_matches_the_quadratic_reference():
    rng = random.Random(4242)
    for case in range(300):
        n = rng.randint(0, 25)
        names = [f"t{i}" for i in range(n)]
        orders = rng.sample(range(3 * n), n)  # unique, not in dict order
        tables = {}
        for name, order in zip(names, orders):
            deps = set(rng.sample(names, rng.randint(0, min(3, n))))  # cycles, self
            if rng.random() < 0.2:
                deps.add("not_a_table")
            tables[name] = _Table(name=name, order=order,
                                  foreign_keys=[([], ref, []) for ref in deps])
        assert [t.name for t in _dependency_order(tables)] == \
            [t.name for t in quadratic_dependency_order(tables)], case


class TestGolden:
    @pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
    @pytest.mark.parametrize("generator", ["classes", "sql"])
    def test_matches_golden_files(self, fixture, generator, fixtures_dir,
                                  test_fixtures_dir, golden_dir):
        model = load_fixture(fixture, fixtures_dir, test_fixtures_dir)
        result = builtin_registry().generate(generator, model)
        root = golden_dir / fixture / generator
        produced = {a.relative_path: a.content for a in result.artifacts}
        committed = {str(p.relative_to(root)): p.read_text()
                     for p in root.rglob("*") if p.is_file()} if root.exists() else {}
        assert produced == committed

    @pytest.mark.parametrize("fixture", GOLDEN_FIXTURES)
    def test_two_runs_are_byte_identical(self, fixture, fixtures_dir,
                                         test_fixtures_dir):
        model = load_fixture(fixture, fixtures_dir, test_fixtures_dir)
        registry = builtin_registry()
        for generator in registry.ids():
            first = registry.generate(generator, model)
            second = registry.generate(generator, model)
            assert [(a.relative_path, a.content) for a in first.artifacts] == \
                [(a.relative_path, a.content) for a in second.artifacts]

    @pytest.mark.parametrize("fixture", GOLDEN_FIXTURES + ("reserved",))
    def test_every_generated_class_compiles(self, fixture, fixtures_dir,
                                            test_fixtures_dir):
        model = parse_class_model(RESERVED_NAMES).model if fixture == "reserved" \
            else load_fixture(fixture, fixtures_dir, test_fixtures_dir)
        for artifact in builtin_registry().generate("classes", model).artifacts:
            compile(artifact.content, artifact.relative_path, "exec")

    @pytest.mark.parametrize("fixture", ["dpp", "shapes", "network", "registry"])
    def test_sql_goldens_parse(self, fixture, golden_dir):
        content = (golden_dir / fixture / "sql" / "schema.sql").read_text()
        assert check_sql(content) == []
