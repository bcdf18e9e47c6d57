"""A naive reference for a class model's generalization hierarchy.

The ancestor walk and the shadowing loop are kept in their plain form:
each class's ancestry is walked from scratch, and each clash test rebuilds
the lines of descent it looks in.  Cycles are found from reachability
alone.  Tests compare `ModelIndex` and `validate_class_model` against this
module, so a faster hierarchy must be checked here and never share its
code with it.
"""

from modelkit.diagnostics import error


class NaiveHierarchy:
    def __init__(self, model):
        self.model = model
        self.classes = {c.name: c for c in reversed(model.classes)}
        self.parents: dict[str, list[str]] = {}
        for gen in model.generalizations:
            self.parents.setdefault(gen.specific, []).append(gen.general)

    def ancestors(self, name: str) -> list[str]:
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
        return order

    def conforms(self, sub: str, sup: str) -> bool:
        return (sub in self.classes and sup in self.classes
                and (sub == sup or sup in self.ancestors(sub)))

    def flat(self, name: str) -> list:
        return [p for owner in self.ancestors(name) + [name]
                if owner in self.classes for p in self.classes[owner].properties]

    def _reach(self, name: str) -> set[str]:
        """Declared classes reachable from `name` over generalizations
        between two distinct declared classes."""
        found, todo = set(), [name]
        while todo:
            here = todo.pop()
            for general in self.parents.get(here, ()):
                if (general != here and general in self.classes
                        and general not in found):
                    found.add(general)
                    todo.append(general)
        return found

    def cycles(self) -> list[list[str]]:
        """Each set of two or more declared classes that reach one another,
        in declaration order (a repeated name sits at its last declaration),
        ordered by first class."""
        pos = {c.name: i for i, c in enumerate(self.model.classes)}
        comps: list[list[str]] = []
        for name in pos:
            if name in self._reach(name) and not any(name in c for c in comps):
                comps.append(sorted((m for m in self._reach(name)
                                     if name in self._reach(m)), key=pos.get))
        return sorted(comps, key=lambda comp: pos[comp[0]])

    def diagnostics(self) -> list:
        """The `dup-property` diagnostics of inherited properties and the
        `gen-cycle` diagnostics, in validation's order."""
        found = []
        cycles = self.cycles()
        cyclic = {name for comp in cycles for name in comp}
        for ci, cls in enumerate(self.model.classes):
            if cls.name not in cyclic and not (set(self.ancestors(cls.name)) & cyclic):
                inherited_from: dict[str, str] = {}
                for anc in self.ancestors(cls.name):
                    anc_cls = self.classes.get(anc)
                    if anc_cls is None:
                        continue
                    for prop in anc_cls.properties:
                        if prop.name in inherited_from and inherited_from[prop.name] != anc:
                            meets_below = any(
                                inherited_from[prop.name] in ([d] + self.ancestors(d))
                                and anc in ([d] + self.ancestors(d))
                                for d in self.parents[cls.name]
                            )
                            if not meets_below:
                                found.append((ci, error(
                                    "dup-property",
                                    f"class '{cls.name}' inherits property '{prop.name}' "
                                    f"from both '{inherited_from[prop.name]}' and '{anc}'",
                                    cls.span, subject=f"{cls.name}.{prop.name}")))
                        else:
                            inherited_from[prop.name] = anc
                for prop in cls.properties:
                    if prop.name in inherited_from:
                        found.append((ci, error(
                            "dup-property",
                            f"property '{cls.name}.{prop.name}' redeclares a property "
                            f"inherited from '{inherited_from[prop.name]}'",
                            prop.span, subject=f"{cls.name}.{prop.name}")))
        pos = {c.name: i for i, c in enumerate(self.model.classes)}
        for comp in cycles:
            found.append((pos[comp[0]], error(
                "gen-cycle", "generalization cycle: " + " -> ".join(comp + [comp[0]]),
                subject=comp[0])))
        found.sort(key=lambda item: (item[0], item[1].code))
        return [diag for _, diag in found]
