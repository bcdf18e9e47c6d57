"""The four benchmark workloads: their input files, the CLI invocations of
one pass, the same pipeline called in process, and the checks of every
output against what the generator injected.

Each check returns a list of problems; an empty list means the output was
correct.  The in-process pipelines call modelkit through module
attributes, so the tracer's wrappers (see spans.py) see the calls.
"""

from __future__ import annotations

import hashlib
import shutil
from collections import Counter
from pathlib import Path

import gen


def _modelkit():
    import modelkit.codegen
    import modelkit.conformance
    import modelkit.flex
    import modelkit.fsm
    import modelkit.metamodel
    import modelkit.objtext
    import modelkit.ocl.interp
    import modelkit.ocl.parser
    import modelkit.puml
    return modelkit


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {_short(got)}, want {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def _digest(files) -> str:
    """One hash over (relative path, bytes) pairs, in path order."""
    digest = hashlib.sha256()
    for path, content in sorted(files):
        digest.update(path.encode() + b"\0" + content + b"\0")
    return digest.hexdigest()


class Workload:
    """One generated input set.  `cli_pass` and `gate` return a list of
    (invocation result, problems); `api_pass` returns the pipeline's result
    for `check_api`."""

    name = ""
    default_size = 0

    def __init__(self, workdir: Path, seed: int, size: int):
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.mk = _modelkit()
        self.scale = size  # the size measure slopes are taken against

    def write(self, name: str, text: str) -> str:
        (self.dir / name).write_text(text, encoding="utf-8")
        return name

    def gate(self, cli) -> list:
        return []

    def counts(self) -> dict:
        return {}


class CheckDpp(Workload):
    name = "check-dpp"
    default_size = 1500  # objects

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.data = gen.check_dpp(seed, size)
        self.scale = self.data.elements
        self.model = self.write("dpp.buml.puml", self.data.model)
        self.objects = self.write("dpp.objs", self.data.objects)
        self.ocl = self.write("dpp.ocl", self.data.ocl)

    def cli_pass(self, cli) -> list:
        res = cli("check", "--model", self.model, "--objects", self.objects,
                  "--ocl", self.ocl)
        problems = []
        exp = self.data.expected
        _expect(problems, "exit code", res.code, exp.exit_code)
        codes, fails, other = Counter(), set(), []
        for line in res.out.splitlines():
            parts = line.split()
            if parts[:1] == ["error"]:
                codes[parts[1]] += 1
            elif parts[:1] == ["FAIL"] and len(parts) == 3:
                fails.add((parts[1], parts[2]))
            else:
                other.append(line)  # ERROR verdicts, warnings, anything else
        _expect(problems, "diagnostics per code", codes, exp.diag_codes)
        _expect(problems, "FAIL lines", fails, exp.fails)
        _expect(problems, "other lines", other, [])
        _expect(problems, "stderr", res.err, f"{sum(exp.diag_codes.values())} error(s)\n")
        return [(res, problems)]

    def api_pass(self):
        mk = self.mk
        model = mk.puml.parse_class_model(self.data.model, filename=self.model).model
        objects = mk.objtext.parse_object_model(self.data.objects, model,
                                                filename=self.objects).model
        constraints = mk.ocl.parser.parse_ocl(self.data.ocl, filename=self.ocl).constraints
        diags = mk.conformance.check_conformance(objects, model)
        return diags, mk.ocl.interp.check_all(constraints, objects, model)

    def check_api(self, result) -> list:
        diags, results = result
        problems = []
        _expect(problems, "diagnostics per code", Counter(d.code for d in diags),
                self.data.expected.diag_codes)
        verdicts = [(r.constraint, i.object_id, i.verdict)
                    for r in results for i in r.per_instance]
        _expect(problems, "false verdicts",
                {(c, o) for c, o, v in verdicts if v == "false"}, self.data.expected.fails)
        _expect(problems, "error verdicts", [v for v in verdicts if v[2] == "error"], [])
        _expect(problems, "constraints evaluated", [r.constraint for r in results],
                list(gen.INVARIANTS))
        return problems


class EnforceInfer(Workload):
    name = "enforce-infer"
    default_size = 2000  # objects

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.data = gen.enforce_infer(seed, size)
        self.scale = self.data.elements
        self.model = self.write("dpp.buml.puml", self.data.model)
        self.objects = self.write("dirty.objs", self.data.objects)
        self.empty_ocl = self.write("empty.ocl", "")
        self.infer_rejects = 0

    def _check_enforce(self, res) -> list:
        problems = []
        _expect(problems, "exit code", res.code, 1 if self.data.residual else 0)
        lines = res.out.splitlines()
        _expect(problems, "removals",
                Counter(ln.split()[1] for ln in lines if ln.startswith("warning ")),
                self.data.removed)
        _expect(problems, "residual",
                Counter(ln.split()[1] for ln in lines if ln.startswith("error ")),
                self.data.residual)
        _expect(problems, "last line", lines[-1:], ["pruned.objs"])
        _expect(problems, "pruned text",
                (self.dir / "pruned.objs").read_text(encoding="utf-8"), self.data.pruned)
        return problems

    def _check_infer(self, res) -> list:
        problems = []
        _expect(problems, "exit code", res.code, 0)
        _expect(problems, "output", [ln.split()[:2] for ln in res.out.splitlines()],
                [["warning", "mixed-end"], ["inferred.buml.puml"]])
        _expect(problems, "inferred text",
                (self.dir / "inferred.buml.puml").read_text(encoding="utf-8"),
                self.data.inferred)
        return problems

    def cli_pass(self, cli) -> list:
        enforce = cli("enforce", "--model", self.model, "--objects", self.objects,
                      "--out", "pruned.objs")
        out = [(enforce, self._check_enforce(enforce))]
        infer = cli("infer", "--objects", "pruned.objs", "--out", "inferred.buml.puml")
        return out + [(infer, self._check_infer(infer))]

    def gate(self, cli) -> list:
        """README promises: enforcing twice removes nothing more, and the
        inferred model accepts the population it was inferred from."""
        again = cli("enforce", "--model", self.model, "--objects", "pruned.objs",
                    "--out", "pruned2.objs")
        problems = []
        _expect(problems, "exit code", again.code, 1)
        lines = again.out.splitlines()
        _expect(problems, "removals", [ln for ln in lines if ln.startswith("warning ")], [])
        _expect(problems, "residual",
                Counter(ln.split()[1] for ln in lines if ln.startswith("error ")),
                self.data.residual)
        _expect(problems, "idempotent", (self.dir / "pruned2.objs").read_bytes(),
                (self.dir / "pruned.objs").read_bytes())
        accepts = cli("check", "--model", "inferred.buml.puml", "--objects",
                      "pruned.objs", "--ocl", self.empty_ocl)
        return [(again, problems), (accepts, self._check_accepts(accepts))]

    def _check_accepts(self, res) -> list:
        """Known defect: `infer_class_model` makes every observed slot a
        required property, so an object that omits a slot its classmates
        carry is rejected by the model inferred from it.  Exactly those
        objects may be reported (as `slot-missing`); anything else fails."""
        rejects = set()
        other = []
        for line in res.out.splitlines():
            parts = line.split(None, 3)
            if parts[:2] == ["error", "slot-missing"] and "'" in line:
                oid, prop = parts[3].split("'")[1], parts[3].split("'")[3]
                rejects.add((oid, prop))
            else:
                other.append(line)
        problems = []
        self.infer_rejects = len(rejects)
        _expect(problems, "exit code", res.code, 1 if rejects else 0)
        _expect(problems, "diagnostics besides omitted slots", other, [])
        _expect(problems, "rejected slots outside the omitted ones",
                rejects - self.data.omitted, set())
        return problems

    def counts(self) -> dict:
        return {"flex.infer_rejects": self.infer_rejects}

    def api_pass(self):
        mk = self.mk
        model = mk.puml.parse_class_model(self.data.model, filename=self.model).model
        objects = mk.objtext.parse_object_model(self.data.objects, model,
                                                filename=self.objects).model
        pruned, diags = mk.flex.enforce_conformance(objects, model)
        pruned_text = mk.objtext.serialize_object_model(pruned)
        reread = mk.objtext.parse_object_model(pruned_text, mk.metamodel.ClassModel(),
                                               filename="pruned.objs").model
        warnings = []
        inferred = mk.flex.infer_class_model(reread, warnings)
        return diags, pruned_text, warnings, mk.puml.serialize_class_model(inferred)

    def check_api(self, result) -> list:
        diags, pruned_text, warnings, inferred_text = result
        problems = []
        _expect(problems, "removals",
                Counter(d.code for d in diags if d.code.startswith("removed-")),
                self.data.removed)
        _expect(problems, "residual",
                Counter(d.code for d in diags if not d.code.startswith("removed-")),
                self.data.residual)
        _expect(problems, "pruned text", pruned_text, self.data.pruned)
        _expect(problems, "inference warnings", [w.code for w in warnings], ["mixed-end"])
        _expect(problems, "inferred text", inferred_text, self.data.inferred)
        return problems


class GenerateWide(Workload):
    name = "generate-wide"
    default_size = 480  # classes

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.data = gen.generate_wide(seed, size)
        self.scale = self.data.classes
        self.model = self.write("wide.buml.puml", self.data.model)
        self.digests: dict[str, str] = {}  # target -> digest of the first output
        self.passes = 0

    def _check_generated(self, res, target: str, out: str) -> list:
        problems = []
        _expect(problems, "exit code", res.code, 0)
        paths = res.out.splitlines()
        root = self.dir / out / target
        rel = [str(Path(p).relative_to(Path(out) / target)) for p in paths]
        if target == "sql":
            _expect(problems, "artifacts", rel, ["schema.sql"])
            if rel == ["schema.sql"]:
                sql = (root / "schema.sql").read_text(encoding="utf-8")
                _expect(problems, "CREATE TABLE count", sql.count("CREATE TABLE "),
                        self.data.concrete + self.data.join_assocs)
                _expect(problems, "FOREIGN KEY count", sql.count("FOREIGN KEY ("),
                        self.data.fk_assocs + 2 * self.data.join_assocs)
        else:
            _expect(problems, ".gen files", sum(p.endswith(".gen") for p in rel),
                    self.data.classes)
            _expect(problems, "files written", len(list(root.iterdir())), len(rel))
        if not problems:
            digest = _digest((p, (root / p).read_bytes()) for p in rel)
            _expect(problems, f"{target} bytes equal to the first invocation's",
                    digest, self.digests.setdefault(target, digest))
        return problems

    def cli_pass(self, cli) -> list:
        self.passes += 1
        out = f"out{self.passes}"
        validate = cli("validate", "--model", self.model)
        problems = []
        _expect(problems, "exit code", validate.code, 0)
        _expect(problems, "output", validate.out + validate.err, "")
        results = [(validate, problems)]
        for target in ("sql", "classes"):
            res = cli("generate", "--model", self.model, "--target", target, "--out", out)
            results.append((res, self._check_generated(res, target, out)))
        shutil.rmtree(self.dir / out, ignore_errors=True)
        return results

    def api_pass(self):
        mk = self.mk
        validated = mk.puml.parse_class_model(self.data.model, filename=self.model)
        generated = {}
        for target in ("sql", "classes"):
            model = mk.puml.parse_class_model(self.data.model, filename=self.model).model
            generated[target] = mk.codegen.builtin_registry().generate(target, model)
        return validated, generated

    def check_api(self, result) -> list:
        validated, generated = result
        problems = []
        _expect(problems, "validation diagnostics", validated.diagnostics, [])
        for target, res in generated.items():
            _expect(problems, f"{target} diagnostics", res.diagnostics, [])
            want = self.digests.get(target)
            if want is not None:  # set by the CLI pass that runs first
                _expect(problems, f"{target} bytes equal to the CLI's",
                        _digest((a.relative_path, a.content.encode())
                                for a in res.artifacts), want)
        _expect(problems, "classes artifacts", len(generated["classes"].artifacts),
                self.data.classes)
        return problems


class FsmLong(Workload):
    name = "fsm-long"
    default_size = 12000  # scenario steps

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        self.data = gen.fsm_long(seed, size)
        self.machine = self.write("long.fsm", self.data.machine)
        self.scenario = self.write("long.scenario", self.data.scenario)

    def cli_pass(self, cli) -> list:
        res = cli("fsm-run", "--machine", self.machine, "--scenario", self.scenario)
        problems = []
        _expect(problems, "exit code", res.code, 0)
        if res.out != self.data.trace:
            got, want = res.out.splitlines(), self.data.trace.splitlines()
            first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
            problems.append(f"trace differs from the reference stepper at step {first}")
        return [(res, problems)]

    def api_pass(self):
        mk = self.mk
        machine = mk.fsm.parse_machine(self.data.machine, filename=self.machine).model
        steps, _ = mk.fsm.parse_scenario(self.data.scenario, filename=self.scenario)
        return mk.fsm.format_trace(mk.fsm.run_scenario(machine, steps))

    def check_api(self, result) -> list:
        problems = []
        _expect(problems, "trace equal to the reference stepper's",
                result == self.data.trace, True)
        return problems


WORKLOADS = {w.name: w for w in (CheckDpp, EnforceInfer, GenerateWide, FsmLong)}
