"""Seeded input generators for the benchmark workloads.

Every generator takes a seed and a size and returns the text of the files
the CLI reads plus the outcome those files must produce.  The expected
outcome is derived from the defects the generator injected, never from
running modelkit, so the benchmark can tell a fast wrong answer from a
fast right one.

The sizes (object, class and step counts) depend on the size argument
only; the seed decides values, classes, orderings and which elements carry
defects.  Run time therefore moves little between seeds.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

# Same text as fixtures/dpp.buml.puml; kept here so that the benchmark's
# inputs do not change when the test fixtures do.
DPP_MODEL = """\
' Digital product passport domain: one passport, many lifecycle stages.
@startuml
class ProductPassport {
  code : str {id}
  product_name : str
  brand : str
}
class Stage {
  stage_id : str {id}
  start_date : str
}
class Design {
}
class Use {
}
class Manufacture {
}
Stage <|-- Design
Stage <|-- Use
Stage <|-- Manufacture
ProductPassport "1" -- "0..*" Stage : stages
@enduml
"""

# The association `stages` has no roles, so its ends answer to the class
# names: `self.Stage` navigates while `self.stages` is a runtime error.
DPP_OCL = """\
-- attribute only
context ProductPassport inv hasCode: self.code <> ''
-- navigates Stage -> ProductPassport, a single-valued end
context Stage inv linkedPassport: self.ProductPassport <> null and self.ProductPassport.brand <> ''
-- collection operations over self.Stage
context ProductPassport inv hasStages: self.Stage->size() >= 1
context ProductPassport inv stagesDated: self.Stage->forAll(s | s.start_date <> '')
context ProductPassport inv noEarlyStage: self.Stage->select(s | s.start_date < '2000-01-01')->isEmpty()
"""

INVARIANTS = ("hasCode", "linkedPassport", "hasStages", "stagesDated", "noEarlyStage")

STAGE_CLASSES = ("Design", "Use", "Manufacture")

# Skewed share of passports having 1..8 stages (mean 2.94 stages).
_STAGE_WEIGHTS = (30, 22, 16, 11, 8, 6, 4, 3)

_BRANDS = ("Acme", "Globex", "Initech", "Umbrella", "Hooli", "Stark", "Wayne")


@dataclass
class Expected:
    """What a correct modelkit must report for one generated input."""

    exit_code: int
    diag_codes: Counter = field(default_factory=Counter)
    fails: set = field(default_factory=set)  # (invariant, object id)


@dataclass
class Family:
    """One passport and the stages linked to it."""

    passport: str
    stages: list
    slots: dict  # object id -> list of (property, rendered value)
    classifier: dict  # object id -> class name


def _stage_counts(families: int) -> list[int]:
    """Per-family stage counts: a fixed skewed multiset of size `families`."""
    total = sum(_STAGE_WEIGHTS)
    counts = []
    for k, weight in enumerate(_STAGE_WEIGHTS, start=1):
        counts += [k] * (families * weight // total)
    counts += [1] * (families - len(counts))
    return counts


def _date(rng: random.Random) -> str:
    return f"20{rng.randint(10, 29)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}"


def _families(rng: random.Random, families: int) -> list[Family]:
    counts = _stage_counts(families)
    rng.shuffle(counts)
    out = []
    stage_no = 0
    for i, count in enumerate(counts):
        pid = f"p{i}"
        fam = Family(passport=pid, stages=[], slots={}, classifier={})
        fam.classifier[pid] = "ProductPassport"
        fam.slots[pid] = [("code", f'"DPP-{i:06d}"'),
                          ("product_name", f'"Model {rng.randint(1, 999)}"'),
                          ("brand", f'"{rng.choice(_BRANDS)}"')]
        for _ in range(count):
            sid = f"s{stage_no}"
            stage_no += 1
            fam.stages.append(sid)
            fam.classifier[sid] = rng.choice(STAGE_CLASSES)
            fam.slots[sid] = [("stage_id", f'"S-{stage_no:07d}"'),
                              ("start_date", f'"{_date(rng)}"')]
        out.append(fam)
    return out


def _render(families, extra_objects, links) -> str:
    """Object-model text in canonical order: objects with slots, then links."""
    lines = ["@startobjects"]
    for fam in families:
        for oid in [fam.passport] + fam.stages:
            lines.append(f"object {oid} : {fam.classifier[oid]}")
            lines += [f"{oid}.{prop} = {value}" for prop, value in fam.slots[oid]]
    for oid, classifier in extra_objects:
        lines.append(f"object {oid} : {classifier}")
    lines += [f"link {a} -- {b} : {assoc}" for a, b, assoc in links]
    lines.append("@endobjects")
    return "\n".join(lines) + "\n"


def _set_slot(slots: list, prop: str, value: str | None) -> None:
    """Replace (or, with value None, drop) one slot, keeping slot order."""
    index = next(i for i, (name, _) in enumerate(slots) if name == prop)
    if value is None:
        del slots[index]
    else:
        slots[index] = (prop, value)


def _family_count(objects: int, reserved: int) -> int:
    """Number of families so that families plus stages plus `reserved`
    extra objects come to about `objects`."""
    mean_stages = sum(k * w for k, w in enumerate(_STAGE_WEIGHTS, 1)) / sum(_STAGE_WEIGHTS)
    return max(12, round((objects - reserved) / (1 + mean_stages)))


def _pick(pool: list, count: int, min_stages: int = 0):
    """Take `count` untouched families with at least `min_stages` stages."""
    chosen = []
    for fam in list(pool):
        if len(chosen) == count:
            break
        if len(fam.stages) >= min_stages:
            chosen.append(fam)
            pool.remove(fam)
    if len(chosen) < count:
        raise ValueError("population too small for the requested defects")
    return chosen


@dataclass
class CheckDpp:
    model: str
    objects: str
    ocl: str
    expected: Expected
    elements: int


def check_dpp(seed: int, objects: int) -> CheckDpp:
    """DPP population with about 1% of its elements defective.

    Each defect sits in its own passport family, so their effects do not
    interact; each yields exactly one conformance diagnostic or a known set
    of invariant failures.
    """
    rng = random.Random(seed)
    # 11 defect kinds share 1% of the elements (objects plus links, ~1.75
    # per object).
    per_kind = max(1, round(objects * 1.75 * 0.01 / 11))
    fams = _families(rng, _family_count(objects, 2 * per_kind))
    pool = fams[:]
    rng.shuffle(pool)
    exp = Expected(exit_code=1)
    extra_links = []
    orphans = set()

    for fam in _pick(pool, per_kind):                   # slot-type
        _set_slot(fam.slots[fam.passport], "brand", str(rng.randint(1, 99)))
        exp.diag_codes["slot-type"] += 1
    for fam in _pick(pool, per_kind):                   # slot-missing
        _set_slot(fam.slots[fam.passport], "product_name", None)
        exp.diag_codes["slot-missing"] += 1
    for fam in _pick(pool, per_kind):                   # attribute invariant
        _set_slot(fam.slots[fam.passport], "code", '""')
        exp.fails.add(("hasCode", fam.passport))
    for fam in _pick(pool, per_kind):                   # navigated attribute
        _set_slot(fam.slots[fam.passport], "brand", '""')
        exp.fails.update(("linkedPassport", s) for s in fam.stages)
    for fam in _pick(pool, per_kind, 2):                # stage with no passport
        orphan = fam.stages[-1]
        orphans.add(orphan)
        exp.diag_codes["mult-lower"] += 1
        exp.fails.add(("linkedPassport", orphan))
    for fam in _pick(pool, per_kind):                   # stage with two passports
        partner = _pick(pool, 1)[0]
        extra_links.append((partner.passport, fam.stages[0], "stages"))
        exp.diag_codes["mult-upper"] += 1
    for fam in _pick(pool, per_kind):                   # forAll and select
        _set_slot(fam.slots[fam.stages[0]], "start_date", '""')
        exp.fails.add(("stagesDated", fam.passport))
        exp.fails.add(("noEarlyStage", fam.passport))
    for fam in _pick(pool, per_kind):                   # select only
        _set_slot(fam.slots[fam.stages[0]], "start_date", '"1999-12-31"')
        exp.fails.add(("noEarlyStage", fam.passport))
    for fam in _pick(pool, per_kind):                   # unknown property
        fam.slots[fam.stages[0]].append(("batch", f'"B{rng.randint(1, 99)}"'))
        exp.diag_codes["unknown-property"] += 1

    # Passports without stages, placed among the others.
    for k in range(per_kind):
        pid = f"q{k}"
        fams.insert(rng.randrange(len(fams) + 1), Family(
            passport=pid, stages=[], classifier={pid: "ProductPassport"},
            slots={pid: [("code", f'"DPP-Q{k:05d}"'), ("product_name", '"Spare"'),
                         ("brand", f'"{rng.choice(_BRANDS)}"')]}))
        exp.fails.add(("hasStages", pid))
    gadgets = [(f"g{k}", "Gadget") for k in range(per_kind)]
    exp.diag_codes["unknown-classifier"] += per_kind

    links = [(fam.passport, s, "stages") for fam in fams for s in fam.stages
             if s not in orphans] + extra_links
    n_objects = sum(1 + len(f.stages) for f in fams) + len(gadgets)
    return CheckDpp(DPP_MODEL, _render(fams, gadgets, links), DPP_OCL, exp,
                    n_objects + len(links))


@dataclass
class EnforceInfer:
    model: str
    objects: str
    pruned: str  # the exact text `enforce` must write
    inferred: str  # the exact text `infer` must write for `pruned`
    removed: Counter  # removal warning code -> count
    residual: Counter  # residual error code -> count
    omitted: set  # (object id, property) pairs missing from `pruned`
    elements: int


def enforce_infer(seed: int, objects: int) -> EnforceInfer:
    """DPP population with about 10% of its elements defective, in the ways
    enforcement repairs by removal and the ways it cannot repair."""
    rng = random.Random(seed)
    # 8 defect kinds share 10% of the elements.
    per_kind = max(1, round(objects * 1.75 * 0.10 / 8))
    fams = _families(rng, _family_count(objects, per_kind))
    pool = fams[:]
    rng.shuffle(pool)
    removed, residual = Counter(), Counter()
    gone_slots = set()  # (object id, property) dropped by enforce
    omitted = set()
    orphans = set()
    extra_links = []  # all removed by enforce

    gadgets = []
    for k, fam in enumerate(_pick(pool, per_kind)):     # dangling link
        gadgets.append((f"g{k}", "Gadget"))
        extra_links.append((fam.passport, f"g{k}", "stages"))
        removed["removed-object"] += 1
        removed["removed-link"] += 1
    for fam in _pick(pool, per_kind):                   # unknown property
        fam.slots[fam.stages[0]].append(("batch", f'"B{rng.randint(1, 99)}"'))
        gone_slots.add((fam.stages[0], "batch"))
        removed["removed-slot"] += 1
    for fam in _pick(pool, per_kind):                   # ill-typed slot
        _set_slot(fam.slots[fam.passport], "brand", str(rng.randint(1, 99)))
        gone_slots.add((fam.passport, "brand"))
        omitted.add((fam.passport, "brand"))
        removed["removed-slot"] += 1
        residual["slot-missing"] += 1
    for fam in _pick(pool, per_kind):                   # missing slot
        _set_slot(fam.slots[fam.stages[0]], "start_date", None)
        omitted.add((fam.stages[0], "start_date"))
        residual["slot-missing"] += 1
    for fam in _pick(pool, per_kind):                   # surplus link
        partner = _pick(pool, 1)[0]
        extra_links.append((partner.passport, fam.stages[0], "stages"))
        removed["removed-link"] += 1
    for fam in _pick(pool, per_kind, 2):                # stage with no passport
        orphans.add(fam.stages[-1])
        residual["mult-lower"] += 1
    for fam in _pick(pool, per_kind):                   # ends swapped
        extra_links.append((fam.stages[0], fam.passport, "stages"))
        removed["removed-link"] += 1
    for fam in _pick(pool, per_kind):                   # unknown association
        extra_links.append((fam.passport, fam.stages[0], "history"))
        removed["removed-link"] += 1

    rng.shuffle(extra_links)
    kept = [(fam.passport, s, "stages") for fam in fams for s in fam.stages
            if s not in orphans]
    text = _render(fams, gadgets, kept + extra_links)

    for fam in fams:
        for oid in fam.slots:
            fam.slots[oid] = [(p, v) for p, v in fam.slots[oid]
                              if (oid, p) not in gone_slots]
    pruned = _render(fams, [], kept)
    n_objects = sum(1 + len(f.stages) for f in fams) + len(gadgets)
    return EnforceInfer(DPP_MODEL, text, pruned, _inferred(fams, kept), removed,
                        residual, omitted, n_objects + len(kept) + len(extra_links))


def _inferred(fams: list[Family], links: list) -> str:
    """The class model `infer` derives from a clean DPP population, written
    out the way `serialize_class_model` renders it."""
    classifier = {oid: c for fam in fams for oid, c in fam.classifier.items()}
    order = list(dict.fromkeys(classifier[o] for fam in fams
                               for o in [fam.passport] + fam.stages))
    at_end1 = list(dict.fromkeys(classifier[b] for _, b, _ in links))
    per_stage = Counter(b for _, b, _ in links)
    per_passport = Counter(a for a, _, _ in links)
    stage_counts = [per_stage[s] for fam in fams for s in fam.stages]
    passport_counts = [per_passport[fam.passport] for fam in fams]

    def mult(counts: list[int]) -> str:
        low, high = min(counts), max(counts)
        upper = "*" if high > 1 else str(max(high, 1))
        return str(low) if upper == str(low) else f"{low}..{upper}"

    props = {"ProductPassport": ("code", "product_name", "brand")}
    out = ["@startuml"]
    for name in order:
        out.append(f"class {name} {{")
        out += [f"  {p} : str" for p in props.get(name, ("stage_id", "start_date"))]
        out.append("}")
    end1 = at_end1[0]
    if len(at_end1) > 1:
        end1 = "stages_End1"
        out += ["class stages_End1 {", "}"]
    out.append(f'ProductPassport "{mult(stage_counts)}" -- '
               f'"{mult(passport_counts)}" {end1} : stages')
    if len(at_end1) > 1:
        out += [f"stages_End1 <|-- {c}" for c in at_end1]
    out.append("@enduml")
    return "\n".join(out) + "\n"


@dataclass
class GenerateWide:
    model: str
    classes: int
    concrete: int
    fk_assocs: int
    join_assocs: int


_TYPES = ("int", "float", "str", "bool")
TREE_DEPTH = 3  # levels below each generalization root


def generate_wide(seed: int, classes: int) -> GenerateWide:
    """A valid class model of `classes` classes: a forest of complete binary
    generalization trees TREE_DEPTH levels deep whose roots carry the `{id}`
    key (half of them abstract), enum-typed and primitive attributes, and a
    binary fan-out of associations over the concrete classes, each either
    one-to-many (a foreign key) or many-to-many (a join table)."""
    rng = random.Random(seed)
    tree = 2 ** (TREE_DEPTH + 1) - 1
    trees = max(1, round(classes / tree))
    enums = [(f"Kind{e}", [f"K{e}_{k}" for k in range(3 + e % 3)])
             for e in range(max(1, trees // 4))]
    # Counts are fixed by the size; the seed only places them.
    abstract_roots = set(rng.sample(range(trees), trees // 2))
    attributes = [1 + i % 3 for i in range(trees * tree)]
    rng.shuffle(attributes)
    lines = ["@startuml"]
    gens = []
    concrete = []
    idx = 0
    for t in range(trees):
        root_abstract = t in abstract_roots
        base = idx
        for node in range(tree):
            name = f"Cls{idx}"
            is_abstract = node == 0 and root_abstract
            if not is_abstract:
                concrete.append(name)
            lines.append(f"{'abstract class' if is_abstract else 'class'} {name} {{")
            if node == 0:
                lines.append("  uid : int {id}")
            for k in range(attributes[idx]):
                kind = rng.choice(_TYPES + ("enum",))
                type_name = rng.choice(enums)[0] if kind == "enum" else kind
                lines.append(f"  f{idx}_{k} : {type_name}")
            lines.append("}")
            if node:
                gens.append(f"Cls{base + (node - 1) // 2} <|-- {name}")
            idx += 1
    for name, literals in enums:
        lines.append(f"enum {name} {{")
        lines += [f"  {lit}" for lit in literals]
        lines.append("}")
    joins = set(rng.sample(range(1, len(concrete)), (len(concrete) - 1) * 3 // 10))
    for j in range(1, len(concrete)):
        parent, child = concrete[(j - 1) // 2], concrete[j]
        if j in joins:
            lines.append(f'{parent} "*" -- "*" {child} : rel{j}')
        else:
            lines.append(f'{parent} "1" -- "0..*" {child} : rel{j}')
    lines += gens
    lines.append("@enduml")
    return GenerateWide("\n".join(lines) + "\n", idx, len(concrete),
                        len(concrete) - 1 - len(joins), len(joins))


@dataclass
class FsmLong:
    machine: str
    scenario: str
    trace: str  # the exact `fsm-run` output
    steps: int
    fired: int
    guards: int  # guard evaluations the reference stepper made


FSM_STATES = 50
FSM_EVENTS = 8


def fsm_long(seed: int, steps: int) -> FsmLong:
    """A machine of FSM_STATES states and FSM_EVENTS events whose
    transitions carry guards of the fixed shape `x > k and y < 100` (or
    none), and a scenario of `steps` events with integer payloads.  No
    transition loops back to its source, so a step fired exactly when its
    trace entry changes state.  The expected trace comes from a stepper
    written here that evaluates that guard shape in plain Python."""
    rng = random.Random(seed)
    state_names = [f"S{i}" for i in range(FSM_STATES)]
    event_names = [f"e{i}" for i in range(FSM_EVENTS)]
    actions = {s: f"act{i}" for i, s in enumerate(state_names) if rng.random() < 0.5}
    lines = ["# generated machine", "machine long"]
    lines += [f"state {s}" + (f" action {actions[s]}" if s in actions else "")
              for s in state_names]
    lines.append(f"initial {state_names[0]}")
    lines += [f"event {e}" for e in event_names]
    table: dict[tuple[str, str], list] = {}
    # Transitions per (state, event): a fixed multiset the seed shuffles.
    counts = [(0, 1, 1, 2, 2, 3)[i % 6] for i in range(FSM_STATES * FSM_EVENTS)]
    rng.shuffle(counts)
    for s in state_names:
        for e in event_names:
            count = counts.pop()
            guardless = rng.randrange(count + 1)  # == count: no guardless one
            options = []
            for k in range(count):
                target = rng.choice([t for t in state_names if t != s])
                bound = None if k == guardless else rng.randint(0, 60)
                options.append((target, bound))
                guard = "" if bound is None else f" when x > {bound} and y < 100"
                lines.append(f"trans {s} -> {target} on {e}{guard}")
            table[(s, e)] = options
    machine = "\n".join(lines) + "\n"

    scenario = []
    out = []
    x = y = None
    state = state_names[0]
    fired = guards = 0
    for i in range(steps):
        event = rng.choice(event_names)
        x = rng.randint(0, 60)
        payload = f"x={x}"
        if i == 0 or rng.random() < 0.5:
            y = rng.randint(0, 120)
            payload += f" y={y}"
        scenario.append(f"{event} {payload}")
        target, action = state, ""  # no transition fires: a recorded no-op
        for dest, bound in table[(state, event)]:
            if bound is not None:
                guards += 1
                if not (x > bound and y < 100):
                    continue
            target, action = dest, actions.get(dest, "")
            fired += 1
            break
        out.append(f"{event} {state} -> {target} [{action}]")
        state = target
    return FsmLong(machine, "\n".join(scenario) + "\n", "".join(o + "\n" for o in out),
                   steps, fired, guards)
