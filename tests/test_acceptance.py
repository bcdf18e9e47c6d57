"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.
"""

import random
import re
import time
from contextlib import contextmanager

from modelkit.cli import main
from modelkit.codegen import builtin_registry
from modelkit.conformance import check_conformance
from modelkit.flex import enforce_conformance, infer_class_model
from modelkit.fsm import format_trace, parse_machine, parse_scenario, run_scenario, validate_machine
from modelkit.metamodel import ClassModel
from modelkit.ocl.interp import Scope, evaluate_constraint
from modelkit.ocl.nodes import OclConstraint
from modelkit.ocl.parser import parse_ocl
from modelkit.puml import parse_class_model, serialize_class_model
from model_gen import (
    random_class_model,
    random_expression,
    random_instanced_model,
    random_object_population,
)
from ocl_oracle import naive_check


@contextmanager
def criterion(number: int, slug: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {slug}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {slug}: PASS ({time.monotonic() - start:.2f}s)")


def test_criterion_1_dpp_end_to_end(fixtures_dir, tmp_path, capsys):
    with criterion(1, "dpp-end-to-end"):
        start = time.monotonic()
        model_path = str(fixtures_dir / "dpp.buml.puml")

        assert main(["validate", "--model", model_path]) == 0

        out = tmp_path / "gen"
        assert main(["generate", "--model", model_path,
                     "--target", "classes", "--out", str(out)]) == 0
        passport = (out / "classes" / "product_passport.gen").read_text()
        signature = re.search(r"def __init__\(self, (.*)\):", passport)
        assert signature.group(1) == "code, product_name, brand"

        assert main(["generate", "--model", model_path,
                     "--target", "sql", "--out", str(out)]) == 0
        schema = (out / "sql" / "schema.sql").read_text()
        assert "PRIMARY KEY (code)" in schema

        assert time.monotonic() - start < 1.0
        capsys.readouterr()


def test_criterion_2_parser_round_trip():
    with criterion(2, "parser-round-trip-500"):
        start = time.monotonic()
        rng = random.Random(20240501)
        failures = 0
        for _ in range(500):
            model = random_class_model(rng, max_classes=8, max_assocs=6)
            reparsed = parse_class_model(serialize_class_model(model))
            if not reparsed.ok or reparsed.model != model:
                failures += 1
        assert failures == 0
        assert time.monotonic() - start < 30.0


def test_criterion_3_ocl_oracle_equivalence():
    with criterion(3, "ocl-oracle-1000"):
        start = time.monotonic()
        rng = random.Random(20240502)
        mismatches = 0
        for _ in range(1000):
            model, objects = random_instanced_model(rng, max_objects=8)
            constraint = OclConstraint(
                context_class=rng.choice(model.classes).name,
                name="inv", body=random_expression(rng, model, depth=4))
            expected = naive_check(constraint, objects, model)
            actual = evaluate_constraint(constraint, Scope(objects, model))
            if expected is None:
                if actual.message is None:
                    mismatches += 1
            elif [(r.object_id, r.verdict)
                  for r in actual.per_instance] != expected:
                mismatches += 1
        assert mismatches == 0
        assert time.monotonic() - start < 60.0


def test_criterion_4_vacuous_truth_and_short_circuit():
    with criterion(4, "vacuous-truth-and-short-circuit"):
        text = (
            "context P inv v1: self.kids->forAll(k | 1 / 0 = 0)\n"
            "context P inv v2: not self.kids->exists(k | true)\n"
            "context P inv s1: not (false and 1 / 0 = 0)\n"
            "context P inv s2: true or 1 / 0 = 0\n"
            "context P inv s3: false implies 1 / 0 = 0\n")
        parsed = parse_ocl(text)
        assert parsed.ok
        from modelkit.metamodel import (
            Association, AssociationEnd, ClassDef, Multiplicity, ObjectDef,
            ObjectModel,
        )
        model = ClassModel(name="m", classes=[ClassDef("P")])
        model.associations.append(Association("r", (
            AssociationEnd("P", multiplicity=Multiplicity(0, None)),
            AssociationEnd("P", role="kids",
                           multiplicity=Multiplicity(0, None)))))
        objects = ObjectModel(objects=[ObjectDef("p1", "P")])
        for constraint in parsed.constraints:
            result = evaluate_constraint(constraint, Scope(objects, model))
            assert [r.verdict for r in result.per_instance] == ["true"], \
                constraint.name


def test_criterion_5_conformance_boundaries():
    from modelkit.metamodel import (
        Association, AssociationEnd, AttributeLink, ClassDef, IntV, Link,
        Multiplicity, ObjectDef, ObjectModel, Property, StrV,
    )

    def model_with(assoc_mult):
        m = ClassModel(name="m", classes=[
            ClassDef("P", properties=[Property("name", "str")]),
            ClassDef("S"),
            ClassDef("Ab", is_abstract=True)])
        m.associations.append(Association("r", (
            AssociationEnd("P", multiplicity=Multiplicity(0, None)),
            AssociationEnd("S", multiplicity=assoc_mult))))
        return m

    def p(slots=True):
        return ObjectDef("p1", "P", slots=[
            AttributeLink("name", StrV("x"))] if slots else [])

    cases = []

    # mult-lower: the one passport needs at least one S link.
    cases.append(("mult-lower",
                  model_with(Multiplicity(1, None)),
                  ObjectModel(objects=[p()])))
    # mult-upper: two links toward an at-most-one end.
    upper = model_with(Multiplicity(0, 1))
    objects_upper = ObjectModel(
        objects=[p(), ObjectDef("s1", "S"), ObjectDef("s2", "S")],
        links=[Link("r", ("p1", "s1")),
               Link("r", ("p1", "s2"))])
    cases.append(("mult-upper", upper, objects_upper))
    # abstract-instance
    cases.append(("abstract-instance", model_with(Multiplicity(0, None)),
                  ObjectModel(objects=[ObjectDef("a1", "Ab")])))
    # slot-type
    bad_slot = ObjectDef("p1", "P", slots=[AttributeLink("name", IntV(3))])
    cases.append(("slot-type", model_with(Multiplicity(0, None)),
                  ObjectModel(objects=[bad_slot])))
    # unknown-classifier
    cases.append(("unknown-classifier", model_with(Multiplicity(0, None)),
                  ObjectModel(objects=[ObjectDef("g1", "Ghost")])))

    with criterion(5, "conformance-boundaries"):
        for expected_code, model, objects in cases:
            diags = check_conformance(objects, model)
            assert [d.code for d in diags] == [expected_code], expected_code


def test_criterion_6_flexible_modeling_round_trip():
    with criterion(6, "flexible-modeling-200"):
        rng = random.Random(20240506)
        for _ in range(200):
            objects = random_object_population(rng)
            inferred = infer_class_model(objects)
            assert check_conformance(objects, inferred) == []

            # Idempotence, both on the already-conformant input and against
            # a perturbed model that forces pruning.
            for model in (inferred, _perturb(rng, infer_class_model(objects))):
                once, _ = enforce_conformance(objects, model)
                twice, diags = enforce_conformance(once, model)
                assert twice == once
                assert not any(d.code.startswith("removed-") for d in diags)


def _perturb(rng, model):
    if model.classes and rng.random() < 0.7:
        victim = rng.choice(model.classes)
        if victim.properties and rng.random() < 0.5:
            victim.properties[0].type_name = "bool"
        else:
            victim.is_abstract = True
    if model.associations and rng.random() < 0.5:
        from modelkit.metamodel import Multiplicity
        model.associations[0].ends[rng.randrange(2)].multiplicity = \
            Multiplicity(0, 1)
    return model


def test_criterion_7_generator_determinism(fixtures_dir, test_fixtures_dir,
                                           golden_dir):
    with criterion(7, "generator-determinism"):
        names = ("dpp", "empty", "shapes", "network", "registry")
        registry = builtin_registry()
        for name in names:
            source = (fixtures_dir / "dpp.buml.puml") if name == "dpp" \
                else (test_fixtures_dir / f"{name}.buml.puml")
            model = parse_class_model(source.read_text()).model
            for generator in ("classes", "sql"):
                first = registry.generate(generator, model).artifacts
                second = registry.generate(generator, model).artifacts
                assert [(a.relative_path, a.content) for a in first] == \
                    [(a.relative_path, a.content) for a in second]
                root = golden_dir / name / generator
                committed = {str(p.relative_to(root)): p.read_text()
                             for p in root.rglob("*") if p.is_file()} \
                    if root.exists() else {}
                assert {a.relative_path: a.content for a in first} == committed


def test_criterion_8_fsm_replay(fixtures_dir):
    with criterion(8, "fsm-replay"):
        machine = parse_machine(
            (fixtures_dir / "greeting.fsm").read_text()).model
        assert machine is not None and validate_machine(machine) == []
        steps, diags = parse_scenario(
            (fixtures_dir / "greeting.scenario").read_text())
        assert not diags
        session = run_scenario(machine, steps)
        stored = (fixtures_dir / "greeting.trace").read_bytes()
        assert format_trace(session).encode() == stored

        nondet = parse_machine((fixtures_dir / "nondet.fsm").read_text())
        assert nondet.model is None
        assert "nondeterministic" in [d.code for d in nondet.diagnostics]
