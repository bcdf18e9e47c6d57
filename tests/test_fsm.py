import random

import pytest

from modelkit.metamodel import (
    FALSE, NULL, TRUE, BoolV, ClassModel, EnumV, IntV, ObjectModel, StrV)
from modelkit.ocl.nodes import Binary, Literal, Unary
from modelkit.fsm import (
    Session,
    State,
    StateMachine,
    StepError,
    TraceEntry,
    Transition,
    format_trace,
    new_session,
    parse_machine,
    parse_scenario,
    run_scenario,
    step,
    validate_machine,
)
from modelkit.ocl.interp import OclRuntimeError, Scope, evaluate_expression
from modelkit.ocl.parser import parse_expression


def greeting_machine() -> StateMachine:
    return StateMachine(
        name="greeter",
        states=[State("Idle"), State("Greeting", body_action="say_hello"),
                State("Done", body_action="say_bye")],
        events=["greet", "bye"],
        transitions=[Transition("Idle", "Greeting", "greet"),
                     Transition("Greeting", "Done", "bye")],
        initial_state="Idle")


def guarded_machine() -> StateMachine:
    guard, diags = parse_expression("x > 0")
    assert not diags
    return StateMachine(
        name="guarded",
        states=[State("S0"), State("Pos", body_action="go_pos"),
                State("Fallback", body_action="go_fb")],
        events=["tick"],
        transitions=[
            Transition("S0", "Pos", "tick", guard=guard, guard_text="x > 0"),
            Transition("S0", "Fallback", "tick"),
        ],
        initial_state="S0")


class TestValidate:
    def test_well_formed(self):
        assert validate_machine(greeting_machine()) == []

    def test_two_guardless_transitions_are_nondeterministic(self):
        machine = greeting_machine()
        machine.transitions.append(Transition("Idle", "Done", "greet"))
        assert [d.code for d in validate_machine(machine)] == ["nondeterministic"]

    def test_undeclared_event(self):
        machine = greeting_machine()
        machine.transitions.append(Transition("Idle", "Done", "vanish"))
        assert [d.code for d in validate_machine(machine)] == ["unknown-event"]

    def test_unknown_states(self):
        machine = greeting_machine()
        machine.initial_state = "Nowhere"
        machine.transitions.append(Transition("Idle", "Lost", "bye"))
        codes = [d.code for d in validate_machine(machine)]
        assert codes.count("unknown-state") == 2

    def test_duplicate_state(self):
        machine = greeting_machine()
        machine.states.append(State("Idle"))
        assert [d.code for d in validate_machine(machine)] == ["dup-state"]


class TestStep:
    def test_simple_transition_records_the_body_action(self):
        machine = greeting_machine()
        session = step(machine, new_session(machine), "greet", {})
        assert session.current_state == "Greeting"
        assert session.trace[-1].actions_fired == ("say_hello",)

    def test_no_matching_transition_is_a_noop(self):
        machine = greeting_machine()
        session = step(machine, new_session(machine), "bye", {})
        assert session.current_state == "Idle"
        entry = session.trace[-1]
        assert (entry.source, entry.target, entry.actions_fired) == \
            ("Idle", "Idle", ())

    def test_guard_selects_transition(self):
        machine = guarded_machine()
        taken = step(machine, new_session(machine), "tick", {"x": IntV(5)})
        assert taken.current_state == "Pos"

    def test_failed_guard_falls_through_in_declaration_order(self):
        machine = guarded_machine()
        fallback = step(machine, new_session(machine), "tick", {"x": IntV(0)})
        assert fallback.current_state == "Fallback"
        assert fallback.trace[-1].actions_fired == ("go_fb",)

    def test_payload_merges_before_matching_and_survives_noops(self):
        machine = greeting_machine()
        session = step(machine, new_session(machine), "bye",
                       {"note": StrV("kept")})
        assert session.current_state == "Idle"
        assert session.variables == {"note": StrV("kept")}

    def test_undeclared_event_raises_and_leaves_session_alone(self):
        machine = greeting_machine()
        session = new_session(machine)
        with pytest.raises(StepError) as info:
            step(machine, session, "vanish", {"x": IntV(1)})
        assert info.value.diagnostic.code == "undeclared-event"
        assert session.variables == {} and session.trace == []

    def test_guard_runtime_error_fails_the_step_without_side_effects(self):
        guard, _ = parse_expression("x + 1 > 0")
        machine = StateMachine(
            name="m", states=[State("S"), State("T")], events=["go"],
            transitions=[Transition("S", "T", "go", guard=guard,
                                    guard_text="x + 1 > 0")],
            initial_state="S")
        session = new_session(machine)
        with pytest.raises(StepError) as info:
            step(machine, session, "go", {})  # x is unbound
        assert info.value.diagnostic.code == "guard-error"
        assert session.current_state == "S" and session.variables == {}

    def test_step_is_functional(self):
        machine = greeting_machine()
        start = new_session(machine)
        step(machine, start, "greet", {})
        assert start.current_state == "Idle" and start.trace == []

    def test_a_guard_leaves_the_step_variables_unchanged(self, monkeypatch):
        """Guards read the step's variables dict itself, not a copy, and
        write nothing into it, also when they hold or raise."""
        import modelkit.fsm
        seen = []

        def evaluate(expr, env, scope):
            seen.append(env)
            return evaluate_expression(expr, env, scope)

        monkeypatch.setattr(modelkit.fsm, "evaluate_expression", evaluate)
        machine = guarded_machine()
        for variables in ({"x": IntV(1)}, {"x": IntV(-1), "y": StrV("s")}):
            before = dict(variables)
            run = run_scenario(machine, [("tick", variables)])
            assert variables == before and run.variables == before
            assert seen.pop() is run.variables
        session = new_session(machine)
        with pytest.raises(StepError):
            step(machine, session, "tick", {"x": StrV("not a number")})
        assert seen.pop() == {"x": StrV("not a number")} and session.variables == {}


class TestRunScenario:
    def test_empty_scenario(self):
        session = run_scenario(greeting_machine(), [])
        assert session.current_state == "Idle" and session.trace == []

    def test_two_event_chain(self):
        session = run_scenario(greeting_machine(),
                               [("greet", {}), ("bye", {})])
        assert session.current_state == "Done"
        assert len(session.trace) == 2

    def test_undeclared_event_aborts_with_partial_trace(self):
        with pytest.raises(StepError) as info:
            run_scenario(greeting_machine(),
                         [("greet", {}), ("vanish", {}), ("bye", {})])
        assert len(info.value.session.trace) == 1
        assert info.value.session.current_state == "Greeting"

    def test_replay_determinism(self):
        scenario = [("greet", {"k": IntV(1)}), ("bye", {})]
        a = run_scenario(greeting_machine(), scenario)
        b = run_scenario(greeting_machine(), scenario)
        assert format_trace(a) == format_trace(b)
        assert a.trace == b.trace

    def test_guard_nested_too_deeply_fails_the_step(self):
        text = "+".join(["1"] * 2000) + " > 0"
        guard, diags = parse_expression(text)
        assert not diags
        machine = StateMachine(
            name="m", states=[State("S"), State("T")], events=["go", "stay"],
            transitions=[Transition("S", "T", "go", guard=guard, guard_text=text)],
            initial_state="S")
        with pytest.raises(StepError) as info:
            run_scenario(machine, [("stay", {"x": IntV(1)}), ("go", {"x": IntV(2)})])
        assert info.value.diagnostic.code == "guard-error"
        assert info.value.diagnostic.message.endswith(
            "failed: expression nested too deeply")
        partial = info.value.session
        assert (partial.current_state, partial.variables) == ("S", {"x": IntV(1)})
        assert [e.event for e in partial.trace] == ["stay"]

    def test_states_stay_closed_under_stepping(self):
        machine = guarded_machine()
        names = {s.name for s in machine.states}
        session = new_session(machine)
        for x in (-1, 0, 3, 7, -2):
            session = step(machine, session, "tick", {"x": IntV(x)})
            assert session.current_state in names


class TestFileFormats:
    def test_machine_file_round_trip_behaviour(self, fixtures_dir):
        parsed = parse_machine((fixtures_dir / "greeting.fsm").read_text())
        assert parsed.ok, parsed.diagnostics
        machine = parsed.model
        assert machine.name == "greeter"
        assert machine.initial_state == "Idle"
        assert [t.event for t in machine.transitions] == ["greet", "bye"]

    def test_nondeterministic_fixture_is_rejected(self, fixtures_dir):
        parsed = parse_machine((fixtures_dir / "nondet.fsm").read_text())
        assert parsed.model is None
        assert "nondeterministic" in [d.code for d in parsed.diagnostics]

    def test_machine_with_guard_text(self):
        parsed = parse_machine(
            "machine m\nstate A\nstate B\ninitial A\nevent go\n"
            "trans A -> B on go when x > 1 and x < 9\n")
        assert parsed.ok, parsed.diagnostics
        assert parsed.model.transitions[0].guard is not None

    def test_too_deeply_nested_guard_is_a_malformed_guard(self):
        parsed = parse_machine(
            "machine m\nstate A\ninitial A\nevent go\n"
            "trans A -> A on go when " + "(" * 200 + "true" + ")" * 200 + "\n")
        assert parsed.model is None
        assert [d.message for d in parsed.diagnostics] == \
            ["malformed guard: expression nested too deeply"]

    def test_malformed_guard_is_reported(self):
        parsed = parse_machine(
            "machine m\nstate A\ninitial A\nevent go\n"
            "trans A -> A on go when 1 +\n")
        assert parsed.model is None

    def test_scenario_parsing(self):
        steps, diags = parse_scenario(
            '# warm up\ngreet\ntick x=3 label="hello there" done=true\n')
        assert not diags
        assert steps[0] == ("greet", {})
        event, payload = steps[1]
        assert event == "tick"
        assert payload == {"x": IntV(3), "label": StrV("hello there"),
                           "done": BoolV(True)}

    def test_hash_inside_a_guard_string_is_not_a_comment(self):
        parsed = parse_machine(
            "machine m\nstate A\nstate B\ninitial A\nevent e\n"
            "trans A -> B on e when s = 'a#b'  # the only way out\n")
        assert parsed.ok, parsed.diagnostics
        assert parsed.model.transitions[0].guard_text == "s = 'a#b'"
        session = run_scenario(parsed.model, [("e", {"s": StrV("a#b")})])
        assert session.current_state == "B"

    def test_hash_inside_a_payload_string_is_not_a_comment(self):
        steps, diags = parse_scenario('go x="a#b" # a comment\n')
        assert not diags
        assert steps == [("go", {"x": StrV("a#b")})]

    def test_escaped_quote_inside_a_payload_string(self):
        steps, diags = parse_scenario('go x="a\\"b" y="c\\\\" z=1\n')
        assert not diags
        assert steps == [("go", {"x": StrV('a"b'), "y": StrV("c\\"), "z": IntV(1)})]

    def test_unquoted_payload_values_are_unchanged(self):
        steps, diags = parse_scenario("go x=3 y=true z=null w=Color::red\n")
        assert not diags
        assert steps == [("go", {"x": IntV(3), "y": BoolV(True), "z": NULL,
                                 "w": EnumV("Color", "red")})]

    def test_unterminated_payload_string_is_a_bad_value(self):
        steps, diags = parse_scenario('go x="a\\"\n')
        assert not steps
        assert [d.code for d in diags] == ["bad-value"]

    def test_a_payload_float_that_overflows_is_a_bad_value(self):
        steps, diags = parse_scenario("go x=1 y=-1e999\n")
        assert not steps
        assert [(d.code, d.message) for d in diags] == [
            ("bad-value", "malformed payload value for 'y'")]

    def test_scenario_bad_payload(self):
        steps, diags = parse_scenario("tick x=\n")
        assert diags and not steps

    def test_stored_trace_replays_byte_identically(self, fixtures_dir):
        machine = parse_machine((fixtures_dir / "greeting.fsm").read_text()).model
        steps, _ = parse_scenario((fixtures_dir / "greeting.scenario").read_text())
        session = run_scenario(machine, steps)
        stored = (fixtures_dir / "greeting.trace").read_bytes()
        assert format_trace(session).encode() == stored


SHARING_MACHINE = """machine m
state A
state B action b
initial A
event go
trans A -> B on go when x > 2 and y
trans A -> A on go when x > 2 and y
trans A -> B on go when x < 0
trans B -> A on go
"""
SHARING_SCENARIO = "go x=1 y=true\ngo x=3 y=false\ngo x=1 z=1\ngo x=-1\ngo x=3 y=true\n"


class TestSharedValues:
    """Values are treated as immutable, so a reader shares equal ones within
    one call, and nothing outlives the call."""

    def test_equal_payload_literals_in_one_scenario_are_the_same_object(self):
        steps, diags = parse_scenario(SHARING_SCENARIO)
        assert not diags
        payloads = [payload for _, payload in steps]
        ones = [payloads[0]["x"], payloads[2]["x"], payloads[2]["z"]]
        assert all(one is ones[0] for one in ones) and ones[0] == IntV(1)
        assert payloads[1]["x"] is payloads[4]["x"]
        assert payloads[0]["y"] is payloads[4]["y"] is TRUE and payloads[1]["y"] is FALSE
        again, _ = parse_scenario(SHARING_SCENARIO)
        assert again == steps and again[0][1]["x"] is not ones[0]

    def test_equal_guard_texts_in_one_machine_share_one_parse(self):
        machine = parse_machine(SHARING_MACHINE).model
        first, second, other, _ = machine.transitions
        assert first.guard is second.guard and first.guard is not other.guard
        assert parse_machine(SHARING_MACHINE).model.transitions[0].guard is not first.guard

    def test_a_run_changes_no_shared_value(self):
        machine = parse_machine(SHARING_MACHINE).model
        steps, _ = parse_scenario(SHARING_SCENARIO)
        session = run_scenario(machine, steps)
        assert [(e.source, e.target) for e in session.trace] == [
            ("A", "A"), ("A", "A"), ("A", "A"), ("A", "B"), ("B", "A")]
        assert steps == parse_scenario(SHARING_SCENARIO)[0]
        assert (TRUE.value, FALSE.value) == (True, False)

    def test_a_run_shares_one_trace_entry_per_transition_and_per_noop(self):
        machine = parse_machine(SHARING_MACHINE).model
        steps, _ = parse_scenario(SHARING_SCENARIO * 2)
        trace = run_scenario(machine, steps).trace
        assert trace[3] is trace[8] and trace[4] is trace[9]  # A -> B, B -> A
        assert all(entry is trace[0] for entry in trace[1:3] + trace[5:8])  # no-ops in A
        assert trace[0] == TraceEntry("go", "A", "A") and trace[3] is not trace[4]
        again = run_scenario(machine, steps).trace
        assert again == trace and again[3] is not trace[3] and again[0] is not trace[0]
        assert format_trace(run_scenario(machine, steps)) == "".join(
            format_trace(Session("A", trace=[entry])) for entry in trace)

    def test_step_reads_only_the_transitions_it_may_fire(self, monkeypatch):
        """`step` builds no table of the whole machine on each call."""
        import modelkit.fsm

        machine = parse_machine(SHARING_MACHINE).model
        steps, _ = parse_scenario(SHARING_SCENARIO)
        expected = run_scenario(machine, steps)

        def whole_table(machine):
            raise AssertionError("step built the table of every transition")

        monkeypatch.setattr(modelkit.fsm, "_transitions", whole_table)
        session = new_session(machine)
        for event, payload in steps:
            session = step(machine, session, event, payload)
        assert session == expected

    def test_the_guards_a_step_tries_share_its_variables_dict(self, monkeypatch):
        import modelkit.fsm
        envs = []

        def evaluate(expr, env, scope):
            envs.append(env)
            return evaluate_expression(expr, env, scope)

        monkeypatch.setattr(modelkit.fsm, "evaluate_expression", evaluate)
        machine = parse_machine(SHARING_MACHINE).model
        # Each of the first two steps tries all three guards from A, the
        # second taking A -> B at the last; B -> A has no guard.
        session = run_scenario(machine, [("go", {"x": IntV(1), "y": FALSE}),
                                         ("go", {"x": IntV(-1)}), ("go", {})])
        assert [(e.source, e.target) for e in session.trace] == [
            ("A", "A"), ("A", "B"), ("B", "A")]
        assert len(envs) == 6 and envs[0] is envs[1] is envs[2] is not envs[3]
        assert envs[3] is envs[4] is envs[5]
        assert [envs[0], envs[3]] == [{"x": IntV(1), "y": FALSE}, {"x": IntV(-1), "y": FALSE}]

    def test_a_guarded_run_constructs_no_scope(self, monkeypatch):
        """Every guard reads the one empty scope `fsm` holds."""
        import modelkit.fsm
        built, real_init, tried = [], Scope.__init__, []

        def init(scope, *args):
            built.append(args)
            real_init(scope, *args)

        def evaluate(expr, env, scope):
            tried.append(expr)
            return evaluate_expression(expr, env, scope)

        monkeypatch.setattr(Scope, "__init__", init)
        monkeypatch.setattr(modelkit.fsm, "evaluate_expression", evaluate)
        steps, _ = parse_scenario(SHARING_SCENARIO)
        session = run_scenario(parse_machine(SHARING_MACHINE).model, steps)
        assert (len(session.trace), len(tried), built) == (5, 12, [])

    @pytest.mark.parametrize("guard", [Binary("%", Literal(IntV(7)), Literal(IntV(2))),
                                       Unary("%", Literal(IntV(7)))])
    def test_an_operator_the_evaluator_does_not_know_is_a_guard_error(self, guard):
        machine = StateMachine(
            name="m", states=[State("S"), State("T")], events=["go"],
            transitions=[Transition("S", "T", "go", guard=guard, guard_text="7 % 2")],
            initial_state="S")
        with pytest.raises(StepError) as info:
            run_scenario(machine, [("go", {})])
        assert (info.value.diagnostic.code, info.value.diagnostic.message) == (
            "guard-error", "guard '7 % 2' failed: unknown operator '%'")


# Guards that hold or fail on `x`, and ones that raise: `y` unbound until a
# payload binds it, division by zero when y is 1, and a non-boolean value.
GUARDS = [None, None, "x > 2", "x < 5", "x = 3", "y = 1", "x / (y - 1) > 0", "x + 1"]
GUARD_WEIGHTS = [6, 6, 6, 6, 6, 2, 1, 1]


def random_machine(rng):
    names = [f"S{i}" for i in range(rng.randint(1, 6))]
    states = [State(name, body_action=rng.choice([None, f"act_{name}"]))
              for name in names]
    if rng.random() < 0.3:  # a redeclared state: the first declaration wins
        states.append(State(rng.choice(names), body_action="shadowed"))
    events = ["e0", "e1", "e2"]
    transitions = []
    for _ in range(rng.randint(0, 5 * len(names))):
        text = rng.choices(GUARDS, GUARD_WEIGHTS)[0]
        guard = parse_expression(text)[0] if text else None
        transitions.append(Transition(rng.choice(names), rng.choice(names),
                                      rng.choice(events), guard, text))
    return StateMachine("m", states, events, transitions, initial_state=names[0])


def random_scenario(rng):
    steps = []
    for _ in range(rng.randint(0, 40)):
        event = "bogus" if rng.random() < 0.01 else rng.choice(["e0", "e1", "e2"])
        payload = {}
        if rng.random() < 0.7:
            payload["x"] = IntV(rng.randint(0, 6))
        if rng.random() < 0.1:
            payload["y"] = IntV(rng.randint(0, 2))
        steps.append((event, payload))
    return steps


def reference_run(machine, steps):
    """The naive stepper: scan every transition on each step, look the
    target up by a first-wins linear search.  Returns the state, variables
    and trace before the first failing step, and that step's error code."""
    state, variables, trace = machine.initial_state, {}, []
    for event, payload in steps:
        if event not in machine.events:
            return state, variables, trace, "undeclared-event"
        merged = {**variables, **payload}
        fired = None
        for t in machine.transitions:
            if (t.source, t.event) != (state, event):
                continue
            if t.guard is not None:
                try:
                    value = evaluate_expression(t.guard, merged,
                                                Scope(ObjectModel(), ClassModel()))
                except OclRuntimeError:
                    return state, variables, trace, "guard-error"
                if not isinstance(value, BoolV):
                    return state, variables, trace, "guard-error"
                if not value.value:
                    continue
            fired = t
            break
        actions = ()
        if fired is not None:
            target = next((s for s in machine.states if s.name == fired.target), None)
            actions = (target.body_action,) if target and target.body_action else ()
        trace.append(TraceEntry(event, state, fired.target if fired else state,
                                actions))
        state, variables = trace[-1].target, merged
    return state, variables, trace, None


def test_run_scenario_is_a_fold_of_step_on_random_machines():
    rng = random.Random(20260)
    outcomes = {"completed": 0, "undeclared-event": 0, "guard-error": 0}
    for case in range(400):
        machine, steps = random_machine(rng), random_scenario(rng)
        folded, failure = new_session(machine), None
        for event, payload in steps:
            try:
                folded = step(machine, folded, event, payload)
            except StepError as exc:
                failure = exc
                break
        state, variables, trace, code = reference_run(machine, steps)
        assert (folded.current_state, folded.variables, folded.trace) == \
            (state, variables, trace), case
        if failure is None:
            assert code is None, case
            assert run_scenario(machine, steps) == folded, case
            outcomes["completed"] += 1
            continue
        assert failure.diagnostic.code == code and failure.session is folded, case
        with pytest.raises(StepError) as info:
            run_scenario(machine, steps)
        assert info.value.diagnostic == failure.diagnostic, case
        assert info.value.session == folded, case
        outcomes[code] += 1
    assert min(outcomes.values()) >= 3, outcomes
