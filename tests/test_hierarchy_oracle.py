"""ModelIndex and validate_class_model against the naive hierarchy oracle
on seeded hierarchies with multiple inheritance, cycles, self-
generalizations, undeclared generals and specifics, repeated class names
and property names that several classes declare."""

import random

from hierarchy_oracle import NaiveHierarchy
from modelkit.index import ModelIndex, validate_class_model
from modelkit.metamodel import ClassDef, ClassModel, Generalization, Property

NAMES = "ABCDEFGH"  # H is never declared


def random_hierarchy(rng: random.Random) -> ClassModel:
    classes = [ClassDef(name, properties=[Property(p, "int")
                                          for p in rng.sample("pqrs", rng.randint(0, 3))])
               for name in rng.choices(NAMES[:-1], k=rng.randint(0, 9))]
    gens = [Generalization(rng.choice(NAMES), rng.choice(NAMES))
            for _ in range(rng.randint(0, 12))]
    return ClassModel("m", classes, generalizations=gens)


def test_the_index_and_validation_match_the_naive_hierarchy():
    rng = random.Random(16)
    for _ in range(3000):
        model = random_hierarchy(rng)
        naive = NaiveHierarchy(model)
        expected = {name: naive.ancestors(name) for name in NAMES}
        for order in (NAMES, NAMES[::-1]):
            index = ModelIndex(model)
            assert {name: index.ancestors(name) for name in order} == expected, model
        for name in NAMES:
            assert index.flat(name) == naive.flat(name), model
            assert all(index.conforms(name, sup) == naive.conforms(name, sup)
                       for sup in NAMES), model
        found = [(d.format(), d.subject) for d in validate_class_model(model)
                 if d.code in ("dup-property", "gen-cycle")]
        assert found == [(d.format(), d.subject) for d in naive.diagnostics()], model
