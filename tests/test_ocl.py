import math

import pytest

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
from modelkit.ocl.interp import (
    OclRuntimeError,
    Scope,
    check_all,
    evaluate_constraint,
    evaluate_expression,
)
from modelkit.ocl.parser import parse_expression, parse_ocl
from modelkit.ocl.nodes import (
    Binary, CollectionOp, Literal, Nav, OclConstraint, OclExpr, SelfRef, Unary)
from ocl_oracle import OracleError, naive_eval

EMPTY_OBJECTS = ObjectModel()
EMPTY_MODEL = ClassModel(name="none")


def ev(text, env=None, objects=EMPTY_OBJECTS, model=EMPTY_MODEL):
    expr, diags = parse_expression(text)
    assert not diags, diags
    return evaluate_expression(expr, env or {}, Scope(objects, model))


def exactly(value, expected) -> bool:
    """value == expected and of its exact type: 1 == 1.0 == True in Python."""
    return type(value) is type(expected) and value == expected


def dpp_world(n_stages=2, empty_dates=()):
    model = ClassModel(name="dpp")
    model.classes.append(ClassDef("ProductPassport", properties=[
        Property("code", "str", is_id=True)]))
    model.classes.append(ClassDef("Stage", properties=[
        Property("start_date", "str")]))
    model.associations.append(Association("stages", (
        AssociationEnd("ProductPassport", multiplicity=Multiplicity(1, 1)),
        AssociationEnd("Stage", role="stages", multiplicity=Multiplicity(0, None)),
    )))
    objects = ObjectModel()
    objects.objects.append(ObjectDef("p1", "ProductPassport", slots=[
        AttributeLink("code", "DPP-001")]))
    for i in range(n_stages):
        date = "" if i in empty_dates else f"2024-0{i + 1}-01"
        objects.objects.append(ObjectDef(f"s{i}", "Stage", slots=[
            AttributeLink("start_date", date)]))
        objects.links.append(Link("stages", ("p1", f"s{i}")))
    return model, objects


class TestParsing:
    def test_constraint_block(self):
        result = parse_ocl("context ProductPassport inv hasCode: self.code <> ''")
        assert result.ok
        (constraint,) = result.constraints
        assert constraint.context_class == "ProductPassport"
        assert constraint.name == "hasCode"
        assert constraint.body == Binary("<>", Nav(SelfRef(), "code"),
                                         Literal(""))

    def test_trivial_body(self):
        result = parse_ocl("context A inv t: true")
        assert result.constraints[0].body == Literal(True)

    def test_syntax_error_carries_position(self):
        result = parse_ocl("context A inv bad: self.")
        assert not result.ok
        diag = result.diagnostics[0]
        assert diag.code == "syntax"
        assert diag.span.line == 1 and diag.span.column >= 20

    def test_duplicate_constraint_name(self):
        result = parse_ocl("context A inv t: true\ncontext B inv t: false")
        assert [d.code for d in result.diagnostics] == ["dup-constraint"]

    def test_error_recovery_keeps_later_constraints(self):
        result = parse_ocl("context A inv broken: 1 +\n"
                           "context B inv fine: 2 > 1")
        assert [c.name for c in result.constraints] == ["fine"]
        assert len(result.diagnostics) == 1

    def test_comments(self):
        result = parse_ocl("-- a comment\ncontext A inv t: 1 < 2 -- trailing")
        assert result.ok and len(result.constraints) == 1

    def test_unknown_collection_operation_rejected(self):
        result = parse_ocl("context A inv t: self.xs->reject(x | x)")
        assert not result.ok

    def test_precedence_shape(self):
        expr, _ = parse_expression("1 + 2 * 3 = 7 and true")
        assert expr == Binary(
            "and",
            Binary("=",
                   Binary("+", Literal(1),
                          Binary("*", Literal(2), Literal(3))),
                   Literal(7)),
            Literal(True))

    def test_implies_is_right_associative(self):
        expr, _ = parse_expression("false implies false implies false")
        assert expr == Binary("implies", Literal(False),
                              Binary("implies", Literal(False),
                                     Literal(False)))


class TestEvaluation:
    def test_arithmetic_precedence(self):
        assert exactly(ev("1 + 2 * 3"), 7)

    def test_if_expression(self):
        assert exactly(ev("if false then 1 else 2 endif"), 2)

    def test_int_division_floors(self):
        assert exactly(ev("7 / 2"), 3)
        assert exactly(ev("-7 / 2"), -4)

    def test_float_promotion(self):
        assert exactly(ev("1 + 0.5"), 1.5)
        assert exactly(ev("7 / 2.0"), 3.5)

    def test_division_by_zero_is_a_runtime_error(self):
        with pytest.raises(OclRuntimeError):
            ev("1 / 0")
        with pytest.raises(OclRuntimeError):
            ev("1.0 / 0.0")

    def test_string_comparison(self):
        assert ev("'abc' < 'abd'") is True
        assert ev("'a' >= 'b'") is False

    def test_equality_across_kinds_is_false(self):
        assert ev("1 = 'a'") is False
        assert ev("1 <> 'a'") is True
        assert ev("true = 1") is False

    def test_numeric_equality_crosses_int_and_float(self):
        assert ev("3 = 3.0") is True

    @pytest.mark.parametrize("text, expected", [
        ("1 = true", False), ("1 <> true", True), ("1 = 1.0", True), ("null = null", True)])
    def test_equality_keeps_booleans_apart_from_numbers(self, text, expected):
        assert ev(text) is expected

    def test_a_nan_slot_is_unequal_to_itself(self):
        model = ClassModel("m", [ClassDef("A", properties=[Property("x", "float")])])
        objects = ObjectModel([ObjectDef("a", "A", [AttributeLink("x", math.nan)])])
        constraint = parse_ocl("context A inv same: self.x = self.x").constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert result.per_instance[0].verdict == "false"

    def test_null_tests(self):
        assert ev("null = null") is True
        assert ev("1 <> null") is True

    def test_arithmetic_on_null_is_an_error(self):
        with pytest.raises(OclRuntimeError):
            ev("1 + null")

    def test_not_requires_boolean(self):
        with pytest.raises(OclRuntimeError):
            ev("not 3")

    def test_short_circuit_identities(self):
        # The right operand would divide by zero if it were evaluated.
        assert ev("false and 1 / 0 = 0") is False
        assert ev("true or 1 / 0 = 0") is True
        assert ev("false implies 1 / 0 = 0") is True

    def test_errors_on_the_left_still_propagate(self):
        with pytest.raises(OclRuntimeError):
            ev("1 / 0 = 0 and false")

    BOOLEANS = [
        ("1 < 2", True), ("2 < 3", True), ("3 < 2", False), ("1 = 1.0", True),
        ("1 <> 1", False), ("true and false", False), ("false or true", True),
        ("false implies 1 / 0 = 0", True), ("not true", False), ("true", True),
        ("false", False)]

    @pytest.mark.parametrize("text, shared", BOOLEANS,
                             ids=[f"{text}-shared{i}" for i, (text, _) in enumerate(BOOLEANS)])
    def test_every_boolean_is_one_of_two_shared_values(self, text, shared):
        """Python's own True or False, never another object that equals one."""
        assert ev(text) is shared


class TestNavigation:
    def test_attribute_navigation(self):
        model, objects = dpp_world()
        constraint = parse_ocl(
            "context ProductPassport inv hasCode: self.code <> ''").constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert [(r.object_id, r.verdict) for r in result.per_instance] == \
            [("p1", "true")]

    def test_trivial_invariant_covers_every_instance(self):
        model, objects = dpp_world(n_stages=3)
        constraint = parse_ocl("context Stage inv t: true").constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert [r.verdict for r in result.per_instance] == ["true"] * 3

    def test_empty_association_navigation(self):
        model, objects = dpp_world(n_stages=0)
        constraint = parse_ocl(
            "context ProductPassport inv some: self.stages->size() >= 1"
        ).constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert [(r.object_id, r.verdict) for r in result.per_instance] == \
            [("p1", "false")]

    def test_single_valued_navigation_yields_object_or_null(self):
        model, objects = dpp_world(n_stages=1)
        linked = parse_ocl(
            "context Stage inv linked: self.ProductPassport.code = 'DPP-001'"
        ).constraints[0]
        result = evaluate_constraint(linked, Scope(objects, model))
        assert result.per_instance[0].verdict == "true"

        model2, objects2 = dpp_world(n_stages=0)
        objects2.objects.append(ObjectDef("lone", "Stage", slots=[
            AttributeLink("start_date", "x")]))
        null_nav = parse_ocl(
            "context Stage inv unlinked: self.ProductPassport = null"
        ).constraints[0]
        result2 = evaluate_constraint(null_nav, Scope(objects2, model2))
        assert result2.per_instance[0].verdict == "true"

    def test_missing_slot_reads_as_null(self):
        model, objects = dpp_world()
        objects.objects[0].slots = []
        constraint = parse_ocl(
            "context ProductPassport inv nil: self.code = null").constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert result.per_instance[0].verdict == "true"

    def test_unknown_attribute_is_an_error_verdict(self):
        model, objects = dpp_world()
        constraint = parse_ocl(
            "context ProductPassport inv bad: self.nope = 1").constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert result.per_instance[0].verdict == "error"

    def test_dangling_link_end_is_an_error_verdict(self):
        model, objects = dpp_world(n_stages=1)
        objects.links.append(Link("stages", ("p1", "ghost")))
        constraint = parse_ocl(
            "context ProductPassport inv n: self.stages->size() = 2"
        ).constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert result.per_instance[0].verdict == "error"

    def test_enum_values_read_as_literal_strings(self):
        model = ClassModel(
            name="m",
            classes=[ClassDef("A", properties=[Property("c", "Color")])],
            enumerations=[EnumDef("Color", ["RED", "GREEN"])])
        objects = ObjectModel(objects=[ObjectDef("a1", "A", slots=[
            AttributeLink("c", EnumV("Color", "RED"))])])
        constraint = parse_ocl("context A inv red: self.c = 'RED'").constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert result.per_instance[0].verdict == "true"

    def test_subclass_instances_are_included(self):
        from modelkit.metamodel import Generalization
        model, objects = dpp_world(n_stages=1)
        model.classes.append(ClassDef("Design"))
        model.generalizations.append(Generalization("Stage", "Design"))
        objects.objects.append(ObjectDef("d1", "Design", slots=[
            AttributeLink("start_date", "2024")]))
        constraint = parse_ocl(
            "context Stage inv started: self.start_date <> ''").constraints[0]
        result = evaluate_constraint(constraint, Scope(objects, model))
        assert [r.object_id for r in result.per_instance] == ["s0", "d1"]


class TestCollections:
    def test_forall_vacuous_truth(self):
        model, objects = dpp_world(n_stages=0)
        constraint = parse_ocl(
            "context ProductPassport inv v: self.stages->forAll(s | 1 / 0 = 0)"
        ).constraints[0]
        assert evaluate_constraint(constraint, Scope(objects, model)) \
            .per_instance[0].verdict == "true"

    def test_exists_on_empty_is_false(self):
        model, objects = dpp_world(n_stages=0)
        constraint = parse_ocl(
            "context ProductPassport inv e: self.stages->exists(s | true)"
        ).constraints[0]
        assert evaluate_constraint(constraint, Scope(objects, model)) \
            .per_instance[0].verdict == "false"

    def test_select_preserves_order_and_collect_maps(self):
        model, objects = dpp_world(n_stages=3, empty_dates=(1,))
        expr, _ = parse_expression(
            "self.stages->select(s | s.start_date <> '')"
            "->collect(s | s.start_date)")
        env = {"self": objects.objects[0]}
        values = evaluate_expression(expr, env, Scope(objects, model))
        assert values == ["2024-01-01", "2024-03-01"]

    def test_collect_refuses_nested_collections(self):
        model, objects = dpp_world(n_stages=1)
        expr, _ = parse_expression("self.stages->collect(s | s.ProductPassport"
                                   ".stages)")
        env = {"self": objects.objects[0]}
        with pytest.raises(OclRuntimeError):
            evaluate_expression(expr, env, Scope(objects, model))

    def test_includes(self):
        model, objects = dpp_world(n_stages=2)
        expr, _ = parse_expression(
            "self.stages->collect(s | s.start_date)->includes('2024-01-01')")
        env = {"self": objects.objects[0]}
        assert evaluate_expression(expr, env, Scope(objects, model)) is True

    def test_size_on_scalar_is_an_error(self):
        with pytest.raises(OclRuntimeError):
            ev("(1)->size()")


class TestCheckAll:
    def test_no_constraints_passes(self):
        model, objects = dpp_world()
        assert check_all([], objects, model) == []

    def test_one_failing_instance_fails_overall(self):
        model, objects = dpp_world(n_stages=2, empty_dates=(0,))
        parsed = parse_ocl(
            "context ProductPassport inv hasCode: self.code <> ''\n"
            "context Stage inv started: self.start_date <> ''\n")
        results = check_all(parsed.constraints, objects, model)
        assert not all(r.passed for r in results)
        failing = [(r.constraint, i.object_id)
                   for r in results for i in r.per_instance
                   if i.verdict != "true"]
        assert failing == [("started", "s0")]

    def test_one_scope_serves_every_constraint(self, monkeypatch):
        """`check_all` indexes the population and model once, not once per
        constraint."""
        built, real_init = [], Scope.__init__

        def init(scope, *args):
            built.append(args)
            real_init(scope, *args)

        monkeypatch.setattr(Scope, "__init__", init)
        model, objects = dpp_world(n_stages=2)
        parsed = parse_ocl("context ProductPassport inv a: self.stages->size() = 2\n"
                           "context Stage inv b: self.ProductPassport <> null\n"
                           "context Stage inv c: true\n")
        results = check_all(parsed.constraints, objects, model)
        assert [i.verdict for r in results for i in r.per_instance] == ["true"] * 5
        assert built == [(objects, model)]

    def test_unknown_context_class(self):
        model, objects = dpp_world()
        results = check_all([OclConstraint("Ghost", "g", Literal(True))],
                            objects, model)
        assert results[0].message is not None
        assert not results[0].passed

    def test_evaluation_is_pure(self):
        model, objects = dpp_world(n_stages=2, empty_dates=(1,))
        parsed = parse_ocl("context Stage inv started: self.start_date <> ''")
        first = check_all(parsed.constraints, objects, model)
        second = check_all(parsed.constraints, objects, model)
        assert first == second


class TestNestingTooDeep:
    """Nesting deeper than the interpreter's stack is a syntax diagnostic
    when parsing and an `error` verdict when evaluating, never a crash."""

    # Parses iteratively and nests deeply: 2 000 levels pass the default
    # recursion limit of 1 000 by more than any test runner's own frames.
    DEEP_SUM = "+".join(["1"] * 2000) + " > 0"

    @pytest.mark.parametrize("text", ["(" * 200 + "true" + ")" * 200,
                                      "not " * 1000 + "true"])
    def test_parse_ocl_reports_and_keeps_later_constraints(self, text):
        parsed = parse_ocl(f"context A inv deep: {text}\n"
                           "context A inv fine: true\n")
        assert [(d.code, d.message) for d in parsed.diagnostics] == \
            [("syntax", "expression nested too deeply")]
        assert [c.name for c in parsed.constraints] == ["fine"]

    def test_parse_expression_reports(self):
        expr, diags = parse_expression("(" * 200 + "1" + ")" * 200 + " > 0")
        assert expr is None
        assert [(d.code, d.message) for d in diags] == \
            [("syntax", "expression nested too deeply")]

    def test_evaluate_expression_raises_a_runtime_error(self):
        with pytest.raises(OclRuntimeError, match="nested too deeply"):
            ev(self.DEEP_SUM)

    def test_check_all_gives_an_error_verdict_and_goes_on(self):
        model = ClassModel(classes=[ClassDef("A")])
        objects = ObjectModel(objects=[ObjectDef("a1", "A")])
        parsed = parse_ocl(f"context A inv deep: {self.DEEP_SUM}\n"
                           "context A inv fine: true\n")
        assert parsed.ok, parsed.diagnostics
        deep, fine = check_all(parsed.constraints, objects, model)
        assert [(i.verdict, i.message) for i in deep.per_instance] == \
            [("error", "expression nested too deeply")]
        assert [i.verdict for i in fine.per_instance] == ["true"]


def error_world():
    """dpp_world plus a passport `p2` without slots whose one link names a
    missing stage, bound as `orphan` next to `self` (p1), and a float `x`
    near the largest finite one."""
    model, objects = dpp_world(n_stages=1)
    objects.objects.append(ObjectDef("p2", "ProductPassport"))
    objects.links.append(Link("stages", ("p2", "ghost")))
    return model, objects, {"self": objects.objects[0], "orphan": objects.objects[2],
                            "x": 1.5e308}


class Mystery(OclExpr):
    """A node type the evaluator has no handler for."""


class TestRuntimeErrorMessages:
    """Every runtime error's text, exactly: `check` prints it on its ERROR
    lines."""

    @pytest.mark.parametrize("text, message", [
        ("ghost = 1", "unbound variable 'ghost'"),
        ("self.nope", "'ProductPassport' has no attribute or association 'nope'"),
        ("orphan.stages->size()", "link of 'stages' references unknown object 'ghost'"),
        ("not 3", "operand of 'not' is not a boolean"),
        ("1 and true", "left operand of 'and' is not a boolean"),
        ("true and 1", "right operand of 'and' is not a boolean"),
        ("1 or true", "left operand of 'or' is not a boolean"),
        ("false or 1", "right operand of 'or' is not a boolean"),
        ("1 implies true", "left operand of 'implies' is not a boolean"),
        ("true implies 1", "right operand of 'implies' is not a boolean"),
        ("if 1 then true else false endif", "if condition is not a boolean"),
        ("self.stages->forAll(s | 1)", "forAll body is not a boolean"),
        ("self.stages->exists(s | 'x')", "exists body is not a boolean"),
        ("self.stages->select(s | null)", "select body is not a boolean"),
        ("self.stages->collect(s | self.stages)",
         "collect body produced a nested collection"),
        ("orphan.code.size", "navigation 'size' on null"),
        ("self.stages.start_date",
         "navigation 'start_date' on a collection (no implicit collect)"),
        ("self.code.size", "navigation 'size' on a plain value"),
        ("-true", "unary '-' on a non-number"),
        ("1 + 'a'", "arithmetic '+' on non-numbers"),
        ("null - 1", "arithmetic '-' on non-numbers"),
        ("2 * true", "arithmetic '*' on non-numbers"),
        ("self / 2", "arithmetic '/' on non-numbers"),
        ("1 / 0", "division by zero"),
        ("1.5 / 0.0", "division by zero"),
        ("9" * 400 + " + 1.5", "integer too large to convert to float"),
        ("1.5 * -" + "9" * 400, "integer too large to convert to float"),
        ("9" * 400 + " / 2.5", "integer too large to convert to float"),
        ("x * 10.0", "float overflow in '*'"),
        ("x + x", "float overflow in '+'"),
        ("x / 0.1", "float overflow in '/'"),
        ("0.0 - x - x", "float overflow in '-'"),
        ("1 < 'a'", "comparison '<' needs two numbers or two strings"),
        ("true >= false", "comparison '>=' needs two numbers or two strings"),
        ("(1)->size()", "'->size' on a non-collection"),
        ("self.code->includes('x')", "'->includes' on a non-collection"),
        ("+".join(["1"] * 2000) + " > 0", "expression nested too deeply"),
    ])
    def test_expression_error_text(self, text, message):
        model, objects, env = error_world()
        expr, diags = parse_expression(text)
        assert not diags, diags
        with pytest.raises(OclRuntimeError) as caught:
            evaluate_expression(expr, env, Scope(objects, model))
        assert str(caught.value) == message

    @pytest.mark.parametrize("node", [
        Binary("%", Literal(7), Literal(2)),
        Binary("%", Literal("a"), Literal("b")),
        Unary("%", Literal(7)),
        CollectionOp(Nav(SelfRef(), "stages"), "%", "s", Literal(7)),
    ])
    def test_an_operator_the_evaluator_does_not_know_is_an_error_verdict(self, node):
        """Nodes built through the API: the parser never builds these."""
        model, objects = dpp_world(n_stages=0)
        result = evaluate_constraint(OclConstraint("ProductPassport", "op", node),
                                     Scope(objects, model))
        assert [(i.verdict, i.message) for i in result.per_instance] == [
            ("error", "unknown operator '%'")]

    def test_unknown_expression_node(self):
        with pytest.raises(OclRuntimeError) as caught:
            evaluate_expression(Binary("and", Literal(True), Mystery()),
                                {}, Scope(EMPTY_OBJECTS, EMPTY_MODEL))
        assert str(caught.value) == "unknown expression node Mystery"

    def test_constraint_level_messages(self):
        model, objects = dpp_world(n_stages=0)
        parsed = parse_ocl("context ProductPassport inv n: 1\n"
                           "context Ghost inv g: true\n")
        number, ghost = check_all(parsed.constraints, objects, model)
        assert [(i.verdict, i.message) for i in number.per_instance] == \
            [("error", "invariant did not yield a boolean")]
        assert ghost.message == "unknown context class 'Ghost'"


class TestVariablesAgainstTheOracle:
    """Variable shapes the seeded expression generator never produces, each
    compared with the naive evaluator in tests/ocl_oracle.py."""

    SHADOWING = [
        # The inner `s` hides the outer one; the outer is visible again after.
        "self.stages->exists(s | self.stages->forAll(s | s.start_date <> '')"
        " and s.start_date = '2024-01-01')",
        "self.stages->collect(s | if self.stages->select(s | s.start_date > "
        "'2024-01-01')->size() = 1 then s.start_date else '' endif)",
        "self.stages->select(s | self.stages->exists(s | s.start_date = "
        "'2024-02-01') and s.start_date < '2024-02-01')",
        "self.stages->forAll(s | self.stages->collect(s | s.start_date)"
        "->includes(s.start_date))",
        "self.stages->collect(s | s.ProductPassport.stages->collect(s | "
        "s.start_date)->size())",
        "self.stages->exists(s | s.start_date = '')",
        # An error inside nested loops must still leave the caller's dict as it was.
        "self.stages->exists(s | self.stages->forAll(s | s.nope = 1))",
    ]
    # Free variables given in several frames, outermost first, and flattened
    # into one dict where the innermost wins; `x` appears in two frames and
    # as an iterator variable.
    FRAMES = [{"x": 1, "limit": 10}, {"y": 7}, {"x": 5}]
    FREE = [
        "x + y < limit",
        "x = 5 and y = 7 and limit = 10",
        "self.stages->collect(x | x.start_date)->size() = 2 and x = 5",
        "self.stages->exists(x | x.start_date = '2024-02-01') implies x > y",
        "self.stages->collect(s | x * y)",
        "self.stages->select(y | y.start_date <> '')->collect(z | y)",
        "if x > 1 then self.stages->collect(x | x)->size() else limit endif",
        "z = 1",
    ]

    def _pair(self, text, frames):
        model, objects = dpp_world(n_stages=2)
        frames = [{"self": objects.objects[0], **frames[0]}] + frames[1:]
        env = {name: value for f in frames for name, value in f.items()}
        before = dict(env)
        expr, diags = parse_expression(text)
        assert not diags, diags
        try:
            expected = naive_eval(expr, [kv for f in frames for kv in f.items()],
                                  objects, model)
        except OracleError:
            expected = OracleError
        try:
            actual = evaluate_expression(expr, env, Scope(objects, model))
        except OclRuntimeError:
            actual = OracleError
        assert actual == expected, text
        assert env == before, "the evaluation changed the caller's dict"

    @pytest.mark.parametrize("text", SHADOWING)
    def test_shadowing_iterators(self, text):
        self._pair(text, [{}])

    @pytest.mark.parametrize("text", FREE)
    def test_free_variables_through_several_frames(self, text):
        self._pair(text, self.FRAMES)
