"""Class-model and population lookup indexes, and class-model validation.

Each public check builds the indexes it needs once, when it is called,
and passes them down; nothing is cached on the models themselves, which
callers may keep editing between calls.  Every name lookup is first-wins,
like the linear searches it replaces.
"""

from __future__ import annotations

from modelkit.diagnostics import Diagnostic, error, int_text
from modelkit.metamodel import ClassModel, EnumV

# The value types each primitive type admits, narrowest type first: the
# only table of primitive types, which inference also types observed values by.
PRIMITIVE_VALUES = {"int": (int,), "float": (int, float), "bool": (bool,),
                    "str": (str, EnumV)}


def graph_cycles(nodes, successors) -> list[list[str]]:
    """Strongly connected components of two or more of `nodes` under the
    edges from each node to `successors(node)` (those that are not nodes
    are left out), in the order Tarjan's algorithm finishes them."""
    # Frames of (node, successors iterator, place on the stack), so that
    # long chains cannot exhaust the interpreter stack.  A node whose
    # component is done gets a number no lowlink can be lowered to.
    number: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    stack, sccs, frames = [], [], []

    def enter(v: str) -> None:
        number[v] = lowlink[v] = len(number)
        frames.append((v, iter(successors(v)), len(stack)))
        stack.append(v)

    for n in nodes:
        if n in number:
            continue
        enter(n)
        while frames:
            v, after, at = frames[-1]
            for w in after:
                if w not in nodes:
                    continue
                if w not in number:
                    enter(w)
                    break
                lowlink[v] = min(lowlink[v], number[w])
            else:
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == number[v]:
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        number[w] = len(nodes)
                    if len(comp) > 1:
                        sccs.append(comp)
    return sccs


class ModelIndex:
    """Names, inheritance, flattened properties and navigation of one
    class model, each computed at most once per class."""

    def __init__(self, model):
        # Built from the back, so the first declaration of a name wins.
        self.classes = {c.name: c for c in reversed(model.classes)}
        self.enums = {e.name: e for e in reversed(model.enumerations)}
        self.associations = {a.name: a for a in reversed(model.associations)}
        # The associations with exactly two ends, in declaration order; any
        # other is invalid, reported by validation and skipped everywhere else.
        self.binary = [a for a in model.associations if len(a.ends) == 2]
        self.parents: dict[str, list[str]] = {}
        for gen in model.generalizations:
            self.parents.setdefault(gen.specific, []).append(gen.general)
        self._ancestors: dict[str, list[str]] = {}
        self._props: dict[str, dict] = {}
        self._navigation: dict[tuple[str, str], object] = {}

    def ancestors(self, name: str) -> list[str]:
        """Ancestor names, general-most first, each listed once: a depth-first
        walk up the generalizations in declaration order that never revisits
        a class, so cycles end it."""
        order = self._ancestors.get(name)
        if order is not None:
            return order
        order, seen = [], {name}
        stack = [(name, iter(self.parents.get(name, ())))]
        while stack:
            for general in stack[-1][1]:
                if general not in seen:
                    seen.add(general)
                    stack.append((general, iter(self.parents.get(general, ()))))
                    break
            else:
                done = stack.pop()[0]
                if stack:
                    order.append(done)
        self._ancestors[name] = order
        return order

    def conforms(self, sub: str, sup: str) -> bool:
        """Both classes exist and sub is sup or one of its descendants."""
        return (sub in self.classes and sup in self.classes
                and (sub == sup or sup in self.ancestors(sub)))

    def flat(self, name: str) -> list:
        """Properties of a known class, inherited ones first, general-most
        class first."""
        return [p for owner in self.ancestors(name) + [name]
                if owner in self.classes for p in self.classes[owner].properties]

    def properties(self, name: str) -> dict:
        """flat(name) by property name; a redeclaration replaces the value."""
        props = self._props.get(name)
        if props is None:
            props = self._props[name] = {p.name: p for p in self.flat(name)}
        return props

    def kind(self, type_name: str):
        """'primitive', 'class', 'enum' or None; primitive names win over
        same-named classes or enums."""
        if type_name in PRIMITIVE_VALUES:
            return "primitive"
        if type_name in self.classes:
            return "class"
        return "enum" if type_name in self.enums else None

    def navigation(self, classifier: str, name: str):
        """What `x.name` reaches from an instance of `classifier`: the
        Property, the (association, far end position) of the first declared
        end that answers to `name` from a conforming near end, or None."""
        key = (classifier, name)
        if key not in self._navigation:
            self._navigation[key] = self._resolve(classifier, name)
        return self._navigation[key]

    def _resolve(self, classifier: str, name: str):
        if classifier in self.classes and name in self.properties(classifier):
            return self.properties(classifier)[name]
        for assoc in self.binary:
            for j in (0, 1):
                if (assoc.ends[j].nav_name() == name
                        and self.conforms(classifier, assoc.ends[1 - j].target)):
                    return assoc, j
        return None


def is_identifier(name: str) -> bool:
    """`[A-Za-z_][A-Za-z0-9_]*`, with nothing after it."""
    return name.isascii() and name.isidentifier()


def validate_class_model(model: ClassModel) -> list[Diagnostic]:
    """Check every class-model invariant; empty result means well-formed.

    Diagnostics come in declaration order: the model's name, then classes,
    enumerations, associations and generalizations, each declaration's
    sorted by code.
    """
    found: list[Diagnostic] = []
    if not is_identifier(model.name):
        found.append(error("bad-name", f"model name '{model.name}' is not an identifier"))
    index = ModelIndex(model)
    groups: list[list[Diagnostic]] = []  # each declaration's findings, in order
    seen: dict[str, str] = {}

    def opened(kind: str, name: str, span) -> list[Diagnostic]:
        """Open the findings of the next class, enumeration or association
        with those on its name: the three share one namespace."""
        groups.append(findings := [])
        if not is_identifier(name):
            findings.append(error("bad-name", f"{kind} name '{name}' is not an identifier",
                                  span, subject=name))
        if name in seen:
            findings.append(error("dup-name", f"{kind} '{name}' clashes with {seen[name]} "
                                  "of the same name", span, subject=name))
        else:
            seen[name] = kind
        return findings

    decl_pos = {c.name: i for i, c in enumerate(model.classes)}
    cycles = [sorted(comp, key=decl_pos.get)
              for comp in graph_cycles(index.classes, lambda v: index.parents.get(v, ()))]
    cyclic = {name for comp in cycles for name in comp}

    for cls in model.classes:
        add = opened("class", cls.name, cls.span).append
        own: set[str] = set()
        for prop in cls.properties:
            if not is_identifier(prop.name):
                add(error("bad-name", f"property name '{prop.name}' is not an identifier",
                          prop.span, subject=f"{cls.name}.{prop.name}"))
            if prop.name in own:
                add(error("dup-property",
                          f"property '{prop.name}' declared twice in class '{cls.name}'",
                          prop.span, subject=f"{cls.name}.{prop.name}"))
            own.add(prop.name)
            kind = index.kind(prop.type_name)
            if kind is None:
                add(error("bad-type",
                          f"property '{cls.name}.{prop.name}' references unknown type "
                          f"'{prop.type_name}'",
                          prop.span, subject=f"{cls.name}.{prop.name}"))
            elif prop.is_id and kind != "primitive":
                add(error("id-not-primitive",
                          f"identifier property '{cls.name}.{prop.name}' must have a "
                          f"primitive type, not '{prop.type_name}'",
                          prop.span, subject=f"{cls.name}.{prop.name}"))

        # Shadowing of inherited properties, skipped for classes on a cycle
        # (their ancestry is not well defined until the cycle is fixed).
        if cls.name not in cyclic and cyclic.isdisjoint(index.ancestors(cls.name)):
            inherited_from: dict[str, str] = {}
            for anc in index.ancestors(cls.name):
                anc_cls = index.classes.get(anc)
                if anc_cls is None:
                    continue
                for prop in anc_cls.properties:
                    if prop.name in inherited_from and inherited_from[prop.name] != anc:
                        # Clash between two unrelated ancestors: report at the
                        # most specific class where both lines first meet.
                        meets_below = any(
                            inherited_from[prop.name] in ([d] + index.ancestors(d))
                            and anc in ([d] + index.ancestors(d))
                            for d in index.parents[cls.name]
                        )
                        if not meets_below:
                            add(error(
                                "dup-property",
                                f"class '{cls.name}' inherits property '{prop.name}' "
                                f"from both '{inherited_from[prop.name]}' and '{anc}'",
                                cls.span, subject=f"{cls.name}.{prop.name}"))
                    else:
                        inherited_from[prop.name] = anc
            for prop in cls.properties:
                if prop.name in inherited_from:
                    add(error("dup-property",
                              f"property '{cls.name}.{prop.name}' redeclares a property "
                              f"inherited from '{inherited_from[prop.name]}'",
                              prop.span, subject=f"{cls.name}.{prop.name}"))

    for enum in model.enumerations:
        add = opened("enum", enum.name, enum.span).append
        if not enum.literals:
            add(error("no-literals", f"enumeration '{enum.name}' has no literals",
                      enum.span, subject=enum.name))
        lits: set[str] = set()
        for lit in enum.literals:
            if not is_identifier(lit):
                add(error("bad-name", f"enumeration literal '{lit}' is not an identifier",
                          enum.span, subject=f"{enum.name}.{lit}"))
            if lit in lits:
                add(error("dup-literal", f"literal '{lit}' repeated in enumeration '{enum.name}'",
                          enum.span, subject=f"{enum.name}.{lit}"))
            lits.add(lit)

    for assoc in model.associations:
        add = opened("association", assoc.name, assoc.span).append
        if len(assoc.ends) != 2:
            add(error("assoc-ends", f"association '{assoc.name}' must have exactly two ends",
                      assoc.span, subject=assoc.name))
            continue
        for j, end in enumerate(assoc.ends):
            if end.target not in index.classes:
                add(error("unknown-class",
                          f"association '{assoc.name}' end references unknown class "
                          f"'{end.target}'",
                          assoc.span, subject=f"{assoc.name}[{j}]"))
            m = end.multiplicity
            if m.lower < 0 or (m.upper is not None and m.upper < 1):
                add(error("bad-mult",
                          f"association '{assoc.name}' end has malformed multiplicity bounds",
                          assoc.span, subject=f"{assoc.name}[{j}]"))
            elif m.upper is not None and m.lower > m.upper:
                add(error("bad-mult",
                          f"association '{assoc.name}' end multiplicity has "
                          f"lower {int_text(m.lower)} > upper {int_text(m.upper)}",
                          assoc.span, subject=f"{assoc.name}[{j}]"))
            if end.role is not None and not is_identifier(end.role):
                add(error("bad-name",
                          f"role '{end.role}' on association '{assoc.name}' is not "
                          f"an identifier",
                          assoc.span, subject=f"{assoc.name}[{j}]"))
        r0, r1 = assoc.ends[0].role, assoc.ends[1].role
        if r0 is not None and r0 == r1:
            add(error("dup-role", f"association '{assoc.name}' has two ends with role '{r0}'",
                      assoc.span, subject=assoc.name))
        if assoc.ends[0].is_composite and assoc.ends[1].is_composite:
            add(error("two-composites", f"association '{assoc.name}' has two composite ends",
                      assoc.span, subject=assoc.name))

    for gen in model.generalizations:
        groups.append(findings := [])
        add = findings.append
        for name in (gen.general, gen.specific):
            if name not in index.classes:
                add(error("unknown-class", f"generalization references unknown class '{name}'",
                          gen.span, subject=name))
        if gen.general == gen.specific:
            add(error("gen-self", f"class '{gen.general}' cannot specialize itself",
                      gen.span, subject=gen.general))

    for comp in cycles:
        groups[decl_pos[comp[0]]].append(error(
            "gen-cycle", "generalization cycle: " + " -> ".join(comp + [comp[0]]),
            subject=comp[0]))

    for findings in groups:
        if findings:  # most declarations have none, and need no sort
            found += sorted(findings, key=lambda diag: diag.code)
    return found


class PopulationIndex:
    """The objects in population order, the first object per id, and the
    two-ended links of each association grouped by (association name, end
    position, object id) in link order."""

    def __init__(self, objects):
        self.listed = objects.objects
        self.objects = {o.id: o for o in reversed(objects.objects)}
        self._links: dict[tuple[str, int, str], list] = {}
        self.add(objects.links)

    def add(self, links) -> None:
        """Index the two-ended links among `links`, after those it holds."""
        for link in links:
            if len(link.ends) == 2:
                for pos, end in enumerate(link.ends):
                    key = (link.association_name, pos, end)
                    self._links.setdefault(key, []).append(link)

    def drop(self, links) -> set[int]:
        """Forget `links`, which the index holds, rebuilding once each list
        that holds one of them; returns their id()s."""
        gone = {id(link) for link in links}
        for key in {(ln.association_name, p, e) for ln in links for p, e in enumerate(ln.ends)}:
            self._links[key] = [ln for ln in self._links[key] if id(ln) not in gone]
        return gone

    def linked(self, association: str, pos: int, object_id: str):
        """Links of `association` whose end `pos` names `object_id`."""
        return self._links.get((association, pos, object_id), ())

    def bounded(self, index: ModelIndex, assoc, j: int):
        """Each object, in population order, that conforms to the class at
        the end opposite end j of `assoc`, with its links of `assoc` at that
        end: the objects and link counts end j's multiplicity bounds."""
        i = 1 - j
        target = assoc.ends[i].target
        fits: dict[str, bool] = {}  # whether each classifier conforms to target
        for obj in self.listed:
            fit = fits.get(obj.classifier)
            if fit is None:
                fit = fits[obj.classifier] = index.conforms(obj.classifier, target)
            if fit:
                yield obj, self.linked(assoc.name, i, obj.id)
