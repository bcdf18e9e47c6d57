"""Spans around calls into modelkit's public functions, recorded from
outside the program.

`Tracer.install()` replaces each function named in `INSTRUMENTED` by a
wrapper in the module that calls it, so that where one public function
calls another (enforce_conformance -> check_conformance, parse_class_model
-> validate_class_model, run_scenario -> evaluate_expression) the callee
shows as a child span.  The spans of one pass stay in memory until
`summary()` has turned them into self times and counts per name; `flush()`
then appends them to a JSON-lines file and drops them.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _elements(result, *_):
    model = result.model
    return {"objtext.elements": len(model.objects) + len(model.links) if model else 0}


def _diagnostics(result, *_):
    return {"conformance.diagnostics": len(result)}


def _verdicts(results, *_):
    verdicts = [i.verdict for r in results for i in r.per_instance]
    return {"ocl.instances": len(verdicts), "ocl.false": verdicts.count("false"),
            "ocl.errors": verdicts.count("error")}


def _enforced(result, *_):
    diags = result[1]
    removed = sum(d.code.startswith("removed-") for d in diags)
    return {"flex.removed": removed, "flex.residual": len(diags) - removed}


def _artifacts(result, *_):
    return {"codegen.artifacts": len(result.artifacts),
            "codegen.bytes": sum(len(a.content.encode()) for a in result.artifacts)}


def _steps(session, *_):
    return {"fsm.steps": len(session.trace),
            "fsm.fired": sum(e.target != e.source for e in session.trace)}


def _guard(*_):
    return {"fsm.guards": 1}


def _constraint_name(constraint, *_):
    return f"ocl.{constraint.name}"


# (module, function, span name or function of the call's arguments, counts)
INSTRUMENTED = (
    ("modelkit.puml", "parse_class_model", "puml.parse", None),
    ("modelkit.puml", "serialize_class_model", "puml.serialize", None),
    ("modelkit.puml", "validate_class_model", "metamodel.validate", None),
    ("modelkit.objtext", "parse_object_model", "objtext.parse", _elements),
    ("modelkit.objtext", "serialize_object_model", "objtext.serialize", None),
    ("modelkit.conformance", "check_conformance", "conformance.check", _diagnostics),
    ("modelkit.flex", "check_conformance", "conformance.check", _diagnostics),
    ("modelkit.flex", "enforce_conformance", "flex.enforce", _enforced),
    ("modelkit.flex", "infer_class_model", "flex.infer", None),
    ("modelkit.ocl.parser", "parse_ocl", "ocl.parse", None),
    ("modelkit.ocl.interp", "check_all", "ocl.check_all", _verdicts),
    ("modelkit.ocl.interp", "evaluate_constraint", _constraint_name, None),
    ("modelkit.codegen.sqlddl", "generate_sql_ddl", "codegen.sql", _artifacts),
    ("modelkit.codegen.plainclasses", "generate_plain_classes", "codegen.classes",
     _artifacts),
    ("modelkit.fsm", "parse_machine", "fsm.parse", None),
    ("modelkit.fsm", "parse_scenario", "fsm.parse", None),
    ("modelkit.fsm", "run_scenario", "fsm.run", _steps),
    ("modelkit.fsm", "evaluate_expression", "fsm.guard", _guard),
)


class Tracer:
    """Records spans as [name, start, end, parent index, run id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self.flushed = 0  # spans written so far; ids continue from here
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int, counts=None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = counts
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrapper(self, func, name, count):
        def traced(*args, **kwargs):
            index = self._begin(name if isinstance(name, str) else name(*args))
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                self._end(index, count(result, *args) if count and result is not None
                          else None)
        return traced

    def install(self) -> None:
        for module_name, attr, name, count in INSTRUMENTED:
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            self._saved.append((module, attr, func))
            setattr(module, attr, self._wrapper(func, name, count))

    def uninstall(self) -> None:
        for module, attr, func in reversed(self._saved):
            setattr(module, attr, func)
        self._saved.clear()

    def summary(self) -> tuple[dict, dict, dict]:
        """Self time, inclusive time and summed counts per span name for the
        spans held.  A span's self time is its duration minus its children's."""
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time, total, counts = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _, _, span_counts) in enumerate(self.spans):
            self_time[name] += end - start - child[i]
            total[name] += end - start
            for key, value in (span_counts or {}).items():
                counts[key] += value
        return dict(self_time), dict(total), dict(counts)

    def flush(self, out) -> None:
        """Append the spans held to the text file `out`, one JSON object a
        line, and drop them.  No span may be open."""
        assert not self._open
        base = self.flushed
        for i, (name, start, end, parent, run_id, counts) in enumerate(self.spans):
            out.write(json.dumps({
                "id": base + i, "parent": base + parent if parent >= 0 else None,
                "run": run_id, "name": name, "start": start, "end": end,
                "counts": counts}) + "\n")
        self.flushed += len(self.spans)
        self.spans.clear()
