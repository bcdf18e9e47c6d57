"""The record contract: every model, node, result and diagnostic class.

Records are plain slotted classes over `diagnostics.Record`.  They keep
what they had as dataclasses: a `Name(field=value, ...)` repr, equality
field by field (as tuples, so a shared NaN still equals itself) only
within one class and without where they were read (`span`, `line`,
`file`; the position a span, token or diagnostic holds counts), and no
hash.  Unlike a tuple's, fields of different exact types are unequal.
"""

import math

import pytest

from modelkit.codegen import GeneratedArtifact, GenerationResult
from modelkit.codegen.sqlddl import _Table
from modelkit.diagnostics import Diagnostic, ParseResult, Record, Severity, SourceSpan
from modelkit.fsm import Session, State, StateMachine, TraceEntry, Transition
from modelkit.metamodel import (
    Association,
    AssociationEnd,
    AttributeLink,
    ClassDef,
    ClassModel,
    EnumDef,
    EnumV,
    Generalization,
    Link,
    Multiplicity,
    ObjectDef,
    ObjectModel,
    Property,
)
from modelkit.ocl.nodes import (
    Binary,
    CollectionOp,
    EvalResult,
    If,
    InstanceResult,
    Literal,
    Nav,
    OclConstraint,
    OclExpr,
    SelfRef,
    Unary,
    VarRef,
)
from modelkit.ocl.parser import OclParseResult, Token

SPAN = SourceSpan('m.puml', 3, 5)
# Each field that says where a record was read, and another value for it.
SOURCE = {"span": SourceSpan("elsewhere", 9), "line": 9, "file": "elsewhere"}

# One instance of each record class and its repr, as the dataclasses wrote it.
RECORDS = [
    (SourceSpan('m.puml', 3, 5),
     "SourceSpan(file='m.puml', line=3, column=5)"),
    (Diagnostic(Severity.ERROR, 'bad-name', 'x', SPAN, 'C'),
     "Diagnostic(severity=<Severity.ERROR: 'error'>, code='bad-name', message='x', "
     "span=SourceSpan(file='m.puml', line=3, column=5), subject='C')"),
    (ParseResult(None, [Diagnostic(Severity.WARNING, 'all-null', 'y')]),
     'ParseResult(model=None, '
     "diagnostics=[Diagnostic(severity=<Severity.WARNING: 'warning'>, code='all-null', "
     "message='y', span=None, subject=None)])"),
    (EnumV('Color', 'RED'),
     "EnumV(enum='Color', literal='RED')"),
    (Multiplicity(1, None),
     'Multiplicity(lower=1, upper=None)'),
    (Property('code', 'str', True, SPAN),
     "Property(name='code', type_name='str', is_id=True, span=SourceSpan(file='m.puml', "
     'line=3, column=5))'),
    (ClassDef('Part', True, [Property('n', 'int')], SPAN),
     "ClassDef(name='Part', is_abstract=True, properties=[Property(name='n', "
     "type_name='int', is_id=False, span=None)], span=SourceSpan(file='m.puml', line=3, "
     'column=5))'),
    (EnumDef('Color', ['RED'], SPAN),
     "EnumDef(name='Color', literals=['RED'], span=SourceSpan(file='m.puml', line=3, "
     'column=5))'),
    (AssociationEnd('Part', 'parts', Multiplicity(0, 1), True),
     "AssociationEnd(target='Part', role='parts', multiplicity=Multiplicity(lower=0, "
     'upper=1), is_composite=True)'),
    (Association('has', (AssociationEnd('A'), AssociationEnd('B')), SPAN),
     "Association(name='has', ends=(AssociationEnd(target='A', role=None, "
     'multiplicity=Multiplicity(lower=0, upper=None), is_composite=False), '
     "AssociationEnd(target='B', role=None, multiplicity=Multiplicity(lower=0, "
     "upper=None), is_composite=False)), span=SourceSpan(file='m.puml', line=3, "
     'column=5))'),
    (Generalization('A', 'B', SPAN),
     "Generalization(general='A', specific='B', span=SourceSpan(file='m.puml', line=3, "
     'column=5))'),
    (ClassModel('m', [ClassDef('A')], [EnumDef('E', ['X'])], [], [Generalization('A', 'B')]),
     "ClassModel(name='m', classes=[ClassDef(name='A', is_abstract=False, properties=[], "
     "span=None)], enumerations=[EnumDef(name='E', literals=['X'], span=None)], "
     "associations=[], generalizations=[Generalization(general='A', specific='B', "
     'span=None)])'),
    (AttributeLink('code', 'c', 3),
     "AttributeLink(property_name='code', value='c', line=3)"),
    (ObjectDef('p1', 'Part', [AttributeLink('n', 1)], 3),
     "ObjectDef(id='p1', classifier='Part', slots=[AttributeLink(property_name='n', "
     "value=1, line=0)], line=3)"),
    (Link('has', ('a', 'b'), 3),
     "Link(association_name='has', ends=('a', 'b'), line=3)"),
    (ObjectModel([ObjectDef('a', 'A')], [Link('r', ('a', 'a'))], 'p.objs'),
     "ObjectModel(objects=[ObjectDef(id='a', classifier='A', slots=[], "
     "line=0)], links=[Link(association_name='r', ends=('a', 'a'), line=0)], "
     "file='p.objs')"),
    (Literal(1),
     'Literal(value=1)'),
    (SelfRef(),
     'SelfRef()'),
    (VarRef('x'),
     "VarRef(name='x')"),
    (Nav(SelfRef(), 'code'),
     "Nav(source=SelfRef(), name='code')"),
    (Unary('-', Literal(1)),
     "Unary(op='-', operand=Literal(value=1))"),
    (Binary('and', VarRef('a'), VarRef('b')),
     "Binary(op='and', lhs=VarRef(name='a'), rhs=VarRef(name='b'))"),
    (If(VarRef('c'), Literal(1), Literal(None)),
     "If(condition=VarRef(name='c'), then_branch=Literal(value=1), "
     'else_branch=Literal(value=None))'),
    (CollectionOp(SelfRef(), 'forAll', 's', VarRef('s')),
     "CollectionOp(source=SelfRef(), op='forAll', var='s', body=VarRef(name='s'))"),
    (OclConstraint('Part', 'inv1', SelfRef(), SPAN),
     "OclConstraint(context_class='Part', name='inv1', body=SelfRef(), "
     "span=SourceSpan(file='m.puml', line=3, column=5))"),
    (InstanceResult('p1', 'error', 'boom'),
     "InstanceResult(object_id='p1', verdict='error', message='boom')"),
    (EvalResult('inv1', [InstanceResult('p1', 'true')], None),
     "EvalResult(constraint='inv1', per_instance=[InstanceResult(object_id='p1', "
     "verdict='true', message=None)], message=None)"),
    (State('Idle', 'greet'),
     "State(name='Idle', body_action='greet')"),
    (Transition('A', 'B', 'go', VarRef('ok'), 'ok'),
     "Transition(source='A', target='B', event='go', guard=VarRef(name='ok'), "
     "guard_text='ok')"),
    (StateMachine('m', [State('A')], ['go'], [Transition('A', 'A', 'go')], 'A'),
     "StateMachine(name='m', states=[State(name='A', body_action=None)], events=['go'], "
     "transitions=[Transition(source='A', target='A', event='go', guard=None, "
     "guard_text=None)], initial_state='A')"),
    (TraceEntry('go', 'A', 'B', ('greet',)),
     "TraceEntry(event='go', source='A', target='B', actions_fired=('greet',))"),
    (Session('A', {'x': 1}, [TraceEntry('go', 'A', 'A')]),
     "Session(current_state='A', variables={'x': 1}, "
     "trace=[TraceEntry(event='go', source='A', target='A', actions_fired=())])"),
    (GeneratedArtifact('sql/schema.sql', 'CREATE'),
     "GeneratedArtifact(relative_path='sql/schema.sql', content='CREATE')"),
    (GenerationResult([GeneratedArtifact('a.py', '')], []),
     "GenerationResult(artifacts=[GeneratedArtifact(relative_path='a.py', content='')], "
     'diagnostics=[])'),
    (Token('ident', 'self', 1, 1),
     "Token(kind='ident', text='self', line=1, column=1)"),
    (OclParseResult([], [Diagnostic(Severity.ERROR, 'syntax', 'z')]),
     'OclParseResult(constraints=[], '
     "diagnostics=[Diagnostic(severity=<Severity.ERROR: 'error'>, code='syntax', "
     "message='z', span=None, subject=None)])"),
    (_Table('part', 0, [('id', 'INTEGER')], ['id'], [(['a_id'], 'a', ['id'])]),
     "_Table(name='part', order=0, columns=[('id', 'INTEGER')], primary_key=['id'], "
     "foreign_keys=[(['a_id'], 'a', ['id'])])"),

]
IDS = [type(record).__name__ for record, _ in RECORDS]


def all_record_classes(base=Record) -> set:
    """The package's subclasses of `base`, at any depth."""
    found = set()
    for cls in base.__subclasses__():
        if cls.__module__.startswith("modelkit."):
            found |= {cls} | all_record_classes(cls)
    return found


def rebuilt(record, **changes):
    """A copy of `record` made without its constructor, with `changes`."""
    cls = type(record)
    copy = cls.__new__(cls)
    for name in cls.__slots__:
        setattr(copy, name, changes.get(name, getattr(record, name)))
    return copy


def test_the_table_holds_every_record_class():
    classes = [type(record) for record, _ in RECORDS]
    assert len(classes) == len(set(classes)) == 37
    assert set(classes) == all_record_classes() - {OclExpr}  # OclExpr is only a base


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr_lists_every_field_in_order(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_equality_is_field_by_field_without_span(record, text):
    """Where a record was read (a span, a population element's line, a
    population's file) is no part of it; a span's, a token's and a
    diagnostic's own position is."""
    assert record == rebuilt(record) and not record != rebuilt(record)
    for name in type(record).__slots__:
        if name in SOURCE and not isinstance(record, (Diagnostic, SourceSpan, Token)):
            assert record == rebuilt(record, **{name: SOURCE[name]})
        else:
            assert record != rebuilt(record, **{name: object()}), name


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_another_class_with_the_same_fields_is_unequal(record, text):
    twin_class = type("Twin", (Record,), {"__init__": type(record).__init__})
    twin = twin_class.__new__(twin_class)
    for name in twin_class.__slots__:
        setattr(twin, name, getattr(record, name))
    assert record.__eq__(twin) is NotImplemented
    assert record != twin and twin != record


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_class_patterns_take_the_fields_in_order(record, text):
    assert type(record).__match_args__ == type(record).__slots__


def test_a_positional_class_pattern_binds_the_fields():
    match EnumV("Color", "RED"), Nav(SelfRef(), "code"):
        case EnumV(e, lit), Nav(SelfRef(), name):
            assert (e, lit, name) == ("Color", "RED", "code")
        case _:
            pytest.fail("no positional match")


def test_values_of_different_kinds_are_unequal():
    """1 == True == 1.0 in Python; as record fields they differ."""
    slots = [AttributeLink("x", 1), AttributeLink("x", True), AttributeLink("x", 1.0)]
    for i, a in enumerate(slots):
        for j, b in enumerate(slots):
            assert (a == b) == (i == j) and (a != b) == (i != j)
    assert Literal(1) != Literal(True) and Literal(0) != Literal(False)
    assert EnumV("Color", "RED").__eq__("RED") is NotImplemented
    assert EnumV("Color", "RED") != "RED" and Literal(None) == Literal(None)


def test_a_shared_nan_equals_itself_as_in_a_tuple():
    nan = math.nan
    assert AttributeLink("x", nan) == AttributeLink("x", nan)
    assert AttributeLink("x", float("nan")) != AttributeLink("x", float("nan"))
    assert Literal(nan) == Literal(nan)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_are_unhashable(record, text):
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_records_are_slotted(record, text):
    assert not hasattr(record, "__dict__")
    for cls in type(record).__mro__[:-1]:
        assert "__slots__" in vars(cls), cls.__name__


def test_a_record_body_may_not_list_its_slots():
    with pytest.raises(TypeError, match="lists __slots__"):
        class Listed(Record):
            __slots__ = ("a",)

            def __init__(self, a):
                self.a = a


def test_a_record_takes_its_fields_from_its_constructor():
    class Pair(Record):
        def __init__(self, a, b=None):
            local = b
            self.a, self.b = a, local

    assert Pair.__slots__ == Pair.__match_args__ == ("a", "b")
    assert not hasattr(Pair(1), "__dict__")


def test_left_out_lists_start_fresh():
    assert ClassModel().classes is not ClassModel().classes
    assert AssociationEnd("A").multiplicity == Multiplicity(0, None)
    assert AssociationEnd("A").multiplicity is not AssociationEnd("A").multiplicity
    given = []
    assert ObjectModel(given).objects is given


@pytest.mark.parametrize("path", ["../x", "/x", "a/../b", ".", "a//b"])
def test_an_artifact_path_must_be_relative_and_normalized(path):
    with pytest.raises(ValueError, match="relative and normalized"):
        GeneratedArtifact(path, "")
