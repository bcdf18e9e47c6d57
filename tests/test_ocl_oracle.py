"""Differential testing of the evaluator against the naive oracle."""

import random

import pytest

from modelkit.metamodel import ClassModel, ObjectModel
from modelkit.ocl.interp import (OclRuntimeError, Scope, check_all, evaluate_constraint,
                                 evaluate_expression)
from modelkit.ocl.nodes import Binary, Literal, OclConstraint
from model_gen import random_expression, random_instanced_model
from ocl_oracle import OracleError, naive_check, naive_eval


def run_pair(rng, seed_note=""):
    model, objects = random_instanced_model(rng)
    context = rng.choice(model.classes).name
    body = random_expression(rng, model, depth=4)
    constraint = OclConstraint(context_class=context, name="inv0", body=body)

    expected = naive_check(constraint, objects, model)
    scope = Scope(objects, model)
    actual = evaluate_constraint(constraint, scope)
    assert_values_match(body, objects, model, scope, seed_note)
    if expected is None:
        assert actual.message is not None, seed_note
        return None
    got = [(r.object_id, r.verdict) for r in actual.per_instance]
    assert got == expected, f"{seed_note}\nexpr={body}\nmodel={model}"
    return [v for _, v in got]


def assert_values_match(body, objects, model, scope, note=""):
    """`body`, with each object of a declared class as `self`, evaluated
    through `scope` gives the oracle's value, or fails where the oracle does."""
    known = {c.name for c in model.classes}
    for obj in objects.objects:
        if obj.classifier not in known:
            continue
        try:
            expected = repr(naive_eval(body, [("self", obj)], objects, model))
        except OracleError:
            expected = "error"
        try:
            actual = repr(evaluate_expression(body, {"self": obj}, scope))
        except OclRuntimeError:
            actual = "error"
        assert actual == expected, f"{note}\nexpr={body}\nself={obj.id}"


def test_verdicts_match_the_oracle():
    rng = random.Random(4242)
    verdicts = []
    for i in range(400):
        row = run_pair(rng, f"case {i}")
        if row:
            verdicts.extend(row)
    # The generator should exercise all three verdicts, not just errors.
    assert verdicts.count("true") > 50
    assert verdicts.count("false") > 50
    assert verdicts.count("error") > 50


def test_dpp_invariants_match_the_oracle(fixtures_dir):
    from modelkit.puml import parse_class_model
    from modelkit.objtext import parse_object_model
    from modelkit.ocl.parser import parse_ocl

    model = parse_class_model((fixtures_dir / "dpp.buml.puml").read_text()).model
    model.associations[0].ends[1].role = "stages"
    objects = parse_object_model((fixtures_dir / "dpp.objs").read_text(),
                                 model).model
    parsed = parse_ocl(
        "context ProductPassport inv hasCode: self.code <> ''\n"
        "context ProductPassport inv allStarted:"
        "  self.stages->forAll(s | s.start_date <> '')\n")
    assert parsed.ok
    for constraint in parsed.constraints:
        expected = naive_check(constraint, objects, model)
        actual = evaluate_constraint(constraint, Scope(objects, model))
        assert [(r.object_id, r.verdict) for r in actual.per_instance] == expected
        assert all(v == "true" for _, v in expected)


def test_batch_checking_matches_per_constraint_oracle_runs():
    rng = random.Random(777)
    for _ in range(30):
        model, objects = random_instanced_model(rng)
        constraints = [
            OclConstraint(rng.choice(model.classes).name, f"inv{k}",
                          random_expression(rng, model, depth=3))
            for k in range(3)
        ]
        results = check_all(constraints, objects, model)
        scope = Scope(objects, model)  # one per population, shared by its constraints
        for constraint, result in zip(constraints, results):
            assert_values_match(constraint.body, objects, model, scope)
            expected = naive_check(constraint, objects, model)
            if expected is None:
                assert result.message is not None
            else:
                assert [(r.object_id, r.verdict)
                        for r in result.per_instance] == expected


# Operand pairs by kind: zero divisors, negative floor division (-7 / 2),
# equal operands and floats whose sum, difference, product or quotient
# overflows among them.
OPERANDS = [
    (7, 2), (-7, 2), (7, -2), (3, 3), (0, 5), (5, 0),
    (7, 2.0), (-7, 2.0), (3, 3.0), (5, 0.0),
    (7.5, 2), (-7.5, 2), (3.0, 3), (5.5, 0),
    (7.5, 2.5), (-7.0, 2.0), (2.5, 2.5), (1.0, 0.0), (1.5e308, 1.5e308), (-1.5e308, 1.5e308),
    (1.5e308, 0.1),
    ("a", "b"), ("b", "a"), ("a", "a"), ("", "a"),
    (1, "1"), ("a", 1.0), (True, 1), (None, 0),
]
# The evaluator's text for each refusal the oracle names.
RUNTIME_ERRORS = {
    "arithmetic on non-numbers": "arithmetic '{op}' on non-numbers",
    "division by zero": "division by zero",
    "float overflow": "float overflow in '{op}'",
    "unorderable operands": "comparison '{op}' needs two numbers or two strings",
}


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "<", "<=", ">", ">="])
def test_each_operator_yields_the_oracles_record(op):
    """Same type and value (their repr tells 3, 3.0 and True apart), not
    only the same verdict: `1 + 2 = 3.0` holds whether `+` yields 3 or 3.0."""
    for lhs, rhs in OPERANDS:
        expr = Binary(op, Literal(lhs), Literal(rhs))
        try:
            expected = naive_eval(expr, [], ObjectModel(), ClassModel())
        except OracleError as exc:
            with pytest.raises(OclRuntimeError) as raised:
                evaluate_expression(expr, {}, Scope(ObjectModel(), ClassModel()))
            assert str(raised.value) == RUNTIME_ERRORS[str(exc)].format(op=op)
            continue
        actual = evaluate_expression(expr, {}, Scope(ObjectModel(), ClassModel()))
        assert repr(actual) == repr(expected), (lhs, op, rhs)
