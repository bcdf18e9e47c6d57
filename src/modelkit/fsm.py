"""Finite-state machines with guarded, event-triggered transitions.

Machines are treated as immutable; stepping is functional (a step
returns a new session).  State bodies are symbolic action identifiers
recorded in the trace, for the host to bind; guards are expressions over
session variables, written in the same language as OCL invariants.

Machine file format (line oriented; `#` comments, except inside a
double-quoted or single-quoted string):

    machine <name>
    state <name> [action <id>]
    initial <name>
    event <name>
    trans <src> -> <dst> on <event> [when <expr>]

Scenario files hold one `<event> [k=v ...]` line per step; payload values
use the object-model literal syntax.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional

from modelkit.diagnostics import (
    INT_CHARS,
    JSON_STRING,
    PLAIN_CHARS,
    Diagnostic,
    ParseResult,
    Record,
    SourceSpan,
    error,
    has_errors,
    read_lines,
)
from modelkit.metamodel import BoolV, ClassModel, IntV, ObjectModel, StrV, Value
from modelkit.ocl.interp import OclRuntimeError, Scope, evaluate_expression
from modelkit.ocl.nodes import OclExpr
from modelkit.ocl.parser import parse_expression


class State(Record):
    """A state and the action its entry fires, if any."""

    def __init__(self, name: str, body_action: Optional[str] = None):
        self.name, self.body_action = name, body_action


class Transition(Record):
    """An edge from `source` to `target` on `event`, taken if its guard holds."""

    def __init__(self, source: str, target: str, event: str,
                 guard: Optional[OclExpr] = None, guard_text: Optional[str] = None):
        self.source, self.target, self.event = source, target, event
        self.guard, self.guard_text = guard, guard_text


class StateMachine(Record):
    """States, events and transitions in declaration order, and the initial state."""

    def __init__(self, name: str, states: Optional[list[State]] = None,
                 events: Optional[list[str]] = None,
                 transitions: Optional[list[Transition]] = None, initial_state: str = ""):
        self.name, self.initial_state = name, initial_state
        self.states = [] if states is None else states
        self.events = [] if events is None else events
        self.transitions = [] if transitions is None else transitions


class TraceEntry(Record):
    """One step taken: event, states left and entered, actions fired."""

    def __init__(self, event: str, source: str, target: str,
                 actions_fired: tuple[str, ...] = ()):
        self.event, self.source, self.target = event, source, target
        self.actions_fired = actions_fired


class Session(Record):
    """A machine's current state, its variables and the trace so far."""

    def __init__(self, current_state: str, variables: Optional[dict[str, Value]] = None,
                 trace: Optional[list[TraceEntry]] = None):
        self.current_state = current_state
        self.variables = {} if variables is None else variables
        self.trace = [] if trace is None else trace


class StepError(Exception):
    """A step that could not be taken; the session is left unchanged."""

    def __init__(self, diagnostic: Diagnostic, session: Optional[Session] = None):
        super().__init__(diagnostic.message)
        self.diagnostic = diagnostic
        self.session = session


def validate_machine(machine: StateMachine) -> list[Diagnostic]:
    """Structural checks plus the determinism rule: per (state, event), at
    most one guardless transition; guarded ones fire in declaration order."""
    diags: list[Diagnostic] = []
    seen_states: set[str] = set()
    for state in machine.states:
        if state.name in seen_states:
            diags.append(error("dup-state",
                               f"state '{state.name}' declared twice",
                               subject=state.name))
        seen_states.add(state.name)

    if not machine.initial_state:
        diags.append(error("missing-initial", "no initial state declared"))
    elif machine.initial_state not in seen_states:
        diags.append(error("unknown-state",
                           f"initial state '{machine.initial_state}' does not exist",
                           subject=machine.initial_state))

    events = set(machine.events)
    guardless: set[tuple[str, str]] = set()
    for t in machine.transitions:
        for endpoint in (t.source, t.target):
            if endpoint not in seen_states:
                diags.append(error("unknown-state",
                                   f"transition references undeclared state "
                                   f"'{endpoint}'",
                                   subject=endpoint))
        if t.event not in events:
            diags.append(error("unknown-event",
                               f"transition on undeclared event '{t.event}'",
                               subject=t.event))
        if t.guard is None:
            key = (t.source, t.event)
            if key in guardless:
                diags.append(error(
                    "nondeterministic",
                    f"two guardless transitions from '{t.source}' on '{t.event}'",
                    subject=t.source))
            guardless.add(key)
    return diags


# Guards read no population: every guard shares this one empty scope.
_GUARD_SCOPE = Scope(ObjectModel(), ClassModel(name="none"))


def _guard_holds(transition: Transition, variables: dict[str, Value]) -> bool:
    try:
        value = evaluate_expression(transition.guard, variables, _GUARD_SCOPE)
        if isinstance(value, BoolV):
            return value.value
        problem = "did not yield a boolean"
    except OclRuntimeError as exc:
        problem = f"failed: {exc}"
    raise StepError(error("guard-error", f"guard '{transition.guard_text or '?'}' {problem}"))


def _entry(transition: Transition, target: Optional[State]) -> TraceEntry:
    """The entry each firing of `transition` records; `target` is the first
    state declared with its target's name, whose action it fires."""
    actions = (target.body_action,) if target and target.body_action else ()
    return TraceEntry(transition.event, transition.source, transition.target, actions)


def _transitions(machine: StateMachine) -> dict[tuple[str, str], list]:
    """(source, event) -> its transitions in declaration order, each with the
    one trace entry all its firings share."""
    first = {s.name: s for s in reversed(machine.states)}
    table: dict[tuple[str, str], list[tuple[Transition, TraceEntry]]] = {}
    for t in machine.transitions:
        table.setdefault((t.source, t.event), []).append((t, _entry(t, first.get(t.target))))
    return table


def _fold(machine: StateMachine, table: dict[tuple[str, str], list], session: Session,
          steps: Iterable[tuple[str, dict[str, Value]]]) -> Session:
    """The session after `steps` from `session`, which is left alone, with
    arcs from `table` as `_transitions` builds it.  A failing step raises
    StepError with the session from before it: `session` if it is the first."""
    declared, noops = set(machine.events), {}
    state, variables, trace = session.current_state, session.variables, list(session.trace)
    try:
        for event, payload in steps:
            if event not in declared:
                raise StepError(error("undeclared-event", f"event '{event}' is not declared"))
            merged = {**variables, **payload}
            for t, entry in table.get((state, event), ()):
                if t.guard is None or _guard_holds(t, merged):
                    break
            else:
                entry = noops.get((state, event))
                if entry is None:
                    entry = noops[state, event] = TraceEntry(event, state, state)
            variables = merged
            trace.append(entry)
            state = entry.target
    except StepError as exc:
        before = session if variables is session.variables else Session(state, variables, trace)
        raise StepError(exc.diagnostic, before) from None
    return Session(state, variables, trace)


def step(machine: StateMachine, session: Session, event: str,
         payload: Optional[dict[str, Value]] = None) -> Session:
    """Take one step: merge the payload, then fire the first transition out
    of the current state on `event` whose guard holds.  No match is a
    recorded no-op.  Undeclared events and guard errors raise StepError and
    leave the session untouched, payload merge included."""
    state = session.current_state
    arcs = [(t, _entry(t, next((s for s in machine.states if s.name == t.target), None)))
            for t in machine.transitions if t.source == state and t.event == event]
    return _fold(machine, {(state, event): arcs}, session, [(event, payload or {})])


def new_session(machine: StateMachine) -> Session:
    return Session(current_state=machine.initial_state)


def run_scenario(machine: StateMachine, events: Iterable[tuple[str, dict[str, Value]]]) -> Session:
    """Fold step over a scenario from a fresh session, in time linear in its
    steps; the scenario is read once, so it may be a stream.  Every firing
    of a transition, and every no-op in one state on one event, shares one
    trace entry.  A failing step raises StepError with the session from
    before it."""
    return _fold(machine, _transitions(machine), new_session(machine), events)


def format_trace(session: Session) -> str:
    """One line per trace entry: `<event> <from> -> <to> [actions]`.  An
    entry the trace holds more than once is formatted once."""
    lines: dict[int, str] = {}
    for entry in session.trace:
        if id(entry) not in lines:
            lines[id(entry)] = (f"{entry.event} {entry.source} -> {entry.target} "
                                f"[{','.join(entry.actions_fired)}]\n")
    return "".join([lines[id(entry)] for entry in session.trace])


# ---------------------------------------------------------------------------
# File formats

# Machine, state, initial, event and transition statements, tried in that
# order; a transition's event is its `on` group.
_STATEMENT_RE = re.compile(
    r"machine\s+(?P<machine>[A-Za-z_]\w*)"
    r"|state\s+(?P<state>[A-Za-z_]\w*)(?:\s+action\s+(?P<action>[A-Za-z_]\w*))?"
    r"|initial\s+(?P<initial>[A-Za-z_]\w*)"
    r"|event\s+(?P<event>[A-Za-z_]\w*)"
    r"|trans\s+(?P<src>[A-Za-z_]\w*)\s*->\s*(?P<dst>[A-Za-z_]\w*)"
    r"\s+on\s+(?P<on>[A-Za-z_]\w*)(?:\s+when\s+(?P<guard>.+))?")


def parse_machine(text: str, filename: str = "<machine>") -> ParseResult:
    """Parse and validate a machine file; the machine is present iff there
    are no errors."""
    diagnostics: list[Diagnostic] = []
    machine = StateMachine(name="machine")

    def err(message: str, lineno: int) -> None:
        diagnostics.append(error("syntax", message, SourceSpan(filename, lineno)))

    named = False
    guards: dict[str, tuple] = {}  # guards are immutable: equal texts share one parse
    for lineno, line in read_lines(text, "#"):
        m = _STATEMENT_RE.fullmatch(line)
        if m is None:
            err(f"unrecognized statement: {line}", lineno)
            continue
        name, state, action, initial, event, src, dst, on, guard_text = m.groups()
        if name is not None:
            if named:
                err("machine name declared twice", lineno)
            machine.name = name
            named = True
        elif state is not None:
            machine.states.append(State(state, action))
        elif initial is not None:
            machine.initial_state = initial
        elif event is not None:
            if event not in machine.events:
                machine.events.append(event)
        elif guard_text is None:
            machine.transitions.append(Transition(src, dst, on))
        else:
            guard_text = guard_text.strip()
            if guard_text not in guards:
                guards[guard_text] = parse_expression(guard_text, filename)
            guard, guard_diags = guards[guard_text]
            if guard is None:
                err(f"malformed guard: {guard_diags[0].message}", lineno)
            else:
                machine.transitions.append(Transition(src, dst, on, guard, guard_text))

    if not named:
        err("missing machine declaration", 1)
    if not has_errors(diagnostics):
        diagnostics.extend(validate_machine(machine))
    return ParseResult(machine if not has_errors(diagnostics) else None,
                       diagnostics)


_EVENT_NAME_RE = re.compile(r"[A-Za-z_]\w*")
# One payload item and the blanks before it.  An integer is taken only when
# it runs to a blank or the line's end, so `x=1y=2` stays one `\S+` value;
# a string ends at its closing quote, so `x="a"y=2` holds two items.
_PAYLOAD_ITEM_RE = re.compile(
    rf'\s*(?P<key>[A-Za-z_]\w*)=(?:"(?P<str>{PLAIN_CHARS})"|(?P<int>{INT_CHARS})(?!\S)'
    rf"|(?P<value>{JSON_STRING}|\S+))")


def read_scenario(text: str, filename: str, diagnostics: list[Diagnostic]
                  ) -> Iterator[tuple[str, dict[str, Value]]]:
    """Each (event, payload) step of a scenario file as its line is read; a
    malformed line yields no step, and its diagnostic is appended to
    `diagnostics`.  A line whose event, keys and `key=int` integers each
    matched earlier in the read is read by `split` alone."""
    events, keys = set(), set()
    ints: dict[str, IntV] = {}  # values are immutable: equal literals share one
    for lineno, line in read_lines(text, "#"):
        event, *items = line.split()
        if event in events:
            payload: dict[str, Value] = {}
            for item in items:
                key, _, digits = item.partition("=")
                if key not in keys or digits not in ints:
                    break
                payload[key] = ints[digits]
            else:
                yield event, payload
                continue
        elif _EVENT_NAME_RE.fullmatch(event):
            events.add(event)
        else:
            diagnostics.append(error("syntax", f"malformed event name '{event}'",
                                     SourceSpan(filename, lineno)))
            continue
        payload = {}
        rest = line[len(event):]
        pos, end = 0, len(rest)
        while pos < end:
            m = _PAYLOAD_ITEM_RE.match(rest, pos)
            if m is None:
                diagnostics.append(error(
                    "syntax", f"malformed payload near: {rest[pos:].lstrip()}",
                    SourceSpan(filename, lineno)))
                break
            key, plain, digits, other = m.groups()
            keys.add(key)
            if plain is not None:
                value = StrV(plain)
            elif digits is not None:
                value = ints.get(digits)
                if value is None:
                    value = ints[digits] = IntV(int(digits))
            else:
                from modelkit.objtext import parse_value  # deferred: plain literals need none
                value = parse_value(other)
                if value is None:
                    diagnostics.append(error(
                        "bad-value", f"malformed payload value for '{key}'",
                        SourceSpan(filename, lineno)))
                    break
            payload[key] = value
            pos = m.end()
        else:
            yield event, payload


def parse_scenario(text: str, filename: str = "<scenario>"
                   ) -> tuple[list[tuple[str, dict[str, Value]]], list[Diagnostic]]:
    """Parse a scenario file into (event, payload) steps."""
    diagnostics: list[Diagnostic] = []
    return list(read_scenario(text, filename, diagnostics)), diagnostics
