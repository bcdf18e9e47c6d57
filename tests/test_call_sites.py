"""Calls that go through module globals.

The benchmark's tracer (`bench/spans.py`) counts work by replacing module
globals with wrappers: `check_all` must call `evaluate_constraint` once per
constraint, `run_scenario` must call `modelkit.fsm.evaluate_expression`
once per guarded transition it tries, and `builtin_registry` must look up
`generate_plain_classes` and `generate_sql_ddl` in their modules when it is
called.  A refactor that inlines or binds early any of these calls would
leave those counts silently wrong; these tests fail on it instead.
"""

import modelkit.codegen.plainclasses
import modelkit.codegen.sqlddl
import modelkit.fsm
import modelkit.ocl.interp
from conftest import FIXTURES
from modelkit.codegen import GenerationResult, GeneratorRegistry, builtin_registry
from modelkit.fsm import parse_machine, parse_scenario, run_scenario
from modelkit.objtext import parse_object_model
from modelkit.ocl.parser import parse_ocl
from modelkit.puml import parse_class_model


def counting(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls, real = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_check_all_calls_evaluate_constraint_once_per_constraint(monkeypatch):
    model = parse_class_model((FIXTURES / "dpp.buml.puml").read_text()).model
    objects = parse_object_model((FIXTURES / "dpp.objs").read_text(), model).model
    constraints = parse_ocl((FIXTURES / "dpp.ocl").read_text()).constraints
    assert len(constraints) > 1
    calls = counting(monkeypatch, modelkit.ocl.interp, "evaluate_constraint")
    results = modelkit.ocl.interp.check_all(constraints, objects, model)
    assert [args[0] for args in calls] == constraints
    assert [r.constraint for r in results] == [c.name for c in constraints]


MACHINE = """\
machine m
state A
state B
state C
initial A
event go
event back
trans A -> B on go when x > 5
trans A -> C on go when x > 0
trans A -> A on go
trans B -> A on back
trans C -> A on back when x = x
"""
# Guards tried per step: go x=1 tries both A guards and takes C; back tries
# C's guard; go x=9 takes B at the first guard; back from B has no guard;
# go x=-1 tries both A guards and takes the guardless A -> A.
SCENARIO = "go x=1\nback\ngo x=9\nback\ngo x=-1\n"
TRIED = ["x > 5", "x > 0", "x = x", "x > 5", "x > 5", "x > 0"]


def test_run_scenario_calls_evaluate_expression_once_per_guard_tried(monkeypatch):
    machine = parse_machine(MACHINE).model
    steps, diags = parse_scenario(SCENARIO)
    assert not diags, diags
    guard_text = {id(t.guard): t.guard_text for t in machine.transitions if t.guard}
    calls = counting(monkeypatch, modelkit.fsm, "evaluate_expression")
    session = run_scenario(machine, steps)
    assert [guard_text[id(args[0])] for args in calls] == TRIED
    assert [(e.source, e.target) for e in session.trace] == [
        ("A", "C"), ("C", "A"), ("A", "B"), ("B", "A"), ("A", "A")]


def test_builtin_registry_runs_the_generators_its_modules_hold_when_called(monkeypatch):
    model = parse_class_model((FIXTURES / "dpp.buml.puml").read_text()).model
    classes = counting(monkeypatch, modelkit.codegen.plainclasses, "generate_plain_classes")
    sql = counting(monkeypatch, modelkit.codegen.sqlddl, "generate_sql_ddl")
    registry = builtin_registry()
    registry.generate("sql", model)
    assert (len(classes), [args[0] for args in sql]) == (0, [model])
    registry.generate("classes", model)
    assert ([args[0] for args in classes], len(sql)) == ([model], 1)


def test_a_registered_generator_runs_through_generate_and_stays_in_its_registry():
    model = parse_class_model((FIXTURES / "dpp.buml.puml").read_text()).model
    seen = []

    def produce(given):
        seen.append(given)
        return GenerationResult()

    for registry, ids in ((GeneratorRegistry(), ["mine"]),
                          (builtin_registry(), ["classes", "sql", "mine"])):
        registry.register("mine", produce)
        assert registry.generate("mine", model) == GenerationResult()
        assert registry.ids() == ids
    assert seen == [model, model]
    assert builtin_registry().ids() == ["classes", "sql"]
