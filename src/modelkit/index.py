"""Lookup indexes over a class model and over an object population.

Each public check builds the indexes it needs once, when it is called,
and passes them down; nothing is cached on the models themselves, which
callers may keep editing between calls.  Every name lookup is first-wins,
like the linear searches it replaces.
"""

from __future__ import annotations

PRIMITIVE_TYPES = ("int", "float", "str", "bool")


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
        if type_name in PRIMITIVE_TYPES:
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


class PopulationIndex:
    """The objects in population order, the first object per id, and the
    two-ended links of each association grouped by (association name, end
    position, object id) in link order."""

    def __init__(self, objects):
        self.listed = objects.objects
        self.objects = {o.id: o for o in reversed(objects.objects)}
        self._links: dict[tuple[str, int, str], list] = {}
        for link in objects.links:
            if len(link.ends) == 2:
                for pos, end in enumerate(link.ends):
                    key = (link.association_name, pos, end.object_id)
                    self._links.setdefault(key, []).append(link)

    def linked(self, association: str, pos: int, object_id: str):
        """Links of `association` whose end `pos` names `object_id`."""
        return self._links.get((association, pos, object_id), ())

    def bounded(self, index: ModelIndex, assoc, j: int):
        """Each object, in population order, that conforms to the class at
        the end opposite end j of `assoc`, with its links of `assoc` at that
        end: the objects and link counts end j's multiplicity bounds."""
        i = 1 - j
        target = assoc.ends[i].target
        for obj in self.listed:
            if index.conforms(obj.classifier, target):
                yield obj, self.linked(assoc.name, i, obj.id)
