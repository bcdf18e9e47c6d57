"""Command-line front door.

    modelkit validate --model m.buml.puml
    modelkit check    --model m.buml.puml --objects pop.objs --ocl rules.ocl
    modelkit generate --model m.buml.puml --target sql --out build/
    modelkit fsm-run  --machine greeter.fsm --scenario hello.scenario
    modelkit infer    --objects pop.objs --out inferred.buml.puml
    modelkit enforce  --model m.buml.puml --objects pop.objs --out pruned.objs

Exit status: 0 all checks pass, 1 model-level failures (invalid model,
conformance or constraint violations, aborted runs, residuals), 2 usage,
parse, or I/O failures.  Reports go to stdout, one line per finding;
error counts are summarized on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _report(diagnostics: list) -> None:
    from modelkit.diagnostics import Severity

    for diag in diagnostics:
        print(diag.format())
    errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
    if errors:
        print(f"{errors} error(s)", file=sys.stderr)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot read {path}: {reason}", file=sys.stderr)
        return None


def _write(path: Path, content: str) -> bool:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(content)
        return True
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False


def _parse_exit(diagnostics: list) -> int:
    """2 when anything failed to parse, else 1 for semantic errors."""
    from modelkit.diagnostics import SYNTAX_CODES, Severity

    if any(d.code in SYNTAX_CODES and d.severity is Severity.ERROR
           for d in diagnostics):
        return EXIT_USAGE
    return EXIT_FAIL


def _load(path: str, parse, *args):
    """The model `parse(text, *args, filename=path)` reads from `path`, and
    an exit code; exactly one of the two is meaningful."""
    text = _read(path)
    if text is None:
        return None, EXIT_USAGE
    result = parse(text, *args, filename=path)
    if result.model is None:
        _report(result.diagnostics)
        return None, _parse_exit(result.diagnostics)
    return result.model, EXIT_OK


def cmd_validate(args) -> int:
    from modelkit.puml import parse_class_model

    return _load(args.model, parse_class_model)[1]


def cmd_check(args) -> int:
    from modelkit.conformance import check_conformance
    from modelkit.diagnostics import has_errors
    from modelkit.objtext import parse_object_model
    from modelkit.ocl import check_all, parse_ocl
    from modelkit.puml import parse_class_model

    model, code = _load(args.model, parse_class_model)
    if model is None:
        return code
    objects, code = _load(args.objects, parse_object_model, model)
    if objects is None:
        return code
    ocl_text = _read(args.ocl)
    if ocl_text is None:
        return EXIT_USAGE
    ocl = parse_ocl(ocl_text, filename=args.ocl)
    if ocl.diagnostics:
        _report(ocl.diagnostics)
        return EXIT_USAGE

    conformance = check_conformance(objects, model)
    _report(conformance)
    failed = has_errors(conformance)

    for result in check_all(ocl.constraints, objects, model):
        if result.message is not None:
            print(f"ERROR {result.constraint} {result.message}")
            failed = True
            continue
        for instance in result.per_instance:
            if instance.verdict == "false":
                print(f"FAIL {result.constraint} {instance.object_id}")
                failed = True
            elif instance.verdict == "error":
                print(f"ERROR {result.constraint} {instance.object_id} "
                      f"{instance.message}")
                failed = True
    return EXIT_FAIL if failed else EXIT_OK


def cmd_generate(args) -> int:
    from modelkit.codegen import GeneratorError, builtin_registry
    from modelkit.diagnostics import has_errors
    from modelkit.puml import parse_class_model

    model, code = _load(args.model, parse_class_model)
    if model is None:
        return code
    registry = builtin_registry()
    try:
        result = registry.generate(args.target, model)
    except GeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_root = Path(args.out) / args.target
    for artifact in result.artifacts:
        path = out_root / artifact.relative_path
        if not _write(path, artifact.content):
            return EXIT_USAGE
        print(path)
    _report(result.diagnostics)
    return EXIT_FAIL if has_errors(result.diagnostics) else EXIT_OK


def cmd_fsm_run(args) -> int:
    from modelkit.fsm import (StepError, format_trace, parse_machine, parse_scenario,
                              run_scenario)

    machine_text = _read(args.machine)
    if machine_text is None:
        return EXIT_USAGE
    parsed = parse_machine(machine_text, filename=args.machine)
    if parsed.model is None:
        _report(parsed.diagnostics)
        return EXIT_USAGE
    scenario_text = _read(args.scenario)
    if scenario_text is None:
        return EXIT_USAGE
    steps, diags = parse_scenario(scenario_text, filename=args.scenario)
    if diags:
        _report(diags)
        return EXIT_USAGE
    try:
        session = run_scenario(parsed.model, steps)
    except StepError as exc:
        if exc.session is not None:
            sys.stdout.write(format_trace(exc.session))
        print(f"error: {exc.diagnostic.message}", file=sys.stderr)
        return EXIT_FAIL
    sys.stdout.write(format_trace(session))
    return EXIT_OK


def cmd_infer(args) -> int:
    from modelkit.flex import infer_class_model
    from modelkit.objtext import parse_object_model
    from modelkit.puml import serialize_class_model

    objects, code = _load(args.objects, parse_object_model, None)  # needs no class model
    if objects is None:
        return code
    diagnostics: list = []
    model = infer_class_model(objects, diagnostics)
    _report(diagnostics)
    try:
        text = serialize_class_model(model)
    except ValueError as exc:  # the inferred model is invalid
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if not _write(Path(args.out), text):
        return EXIT_USAGE
    print(args.out)
    return EXIT_OK


def cmd_enforce(args) -> int:
    from modelkit.diagnostics import has_errors
    from modelkit.flex import enforce_conformance
    from modelkit.objtext import parse_object_model, serialize_object_model
    from modelkit.puml import parse_class_model

    model, code = _load(args.model, parse_class_model)
    if model is None:
        return code
    objects, code = _load(args.objects, parse_object_model, model)
    if objects is None:
        return code
    pruned, diagnostics = enforce_conformance(objects, model)
    _report(diagnostics)
    if not _write(Path(args.out), serialize_object_model(pruned)):
        return EXIT_USAGE
    print(args.out)
    return EXIT_FAIL if has_errors(diagnostics) else EXIT_OK


# Each subcommand: its name, help text, the options it requires, its handler.
_COMMANDS = (
    ("validate", "well-formedness of a class model", ("model",), cmd_validate),
    ("check", "conformance plus OCL invariants over objects", ("model", "objects", "ocl"),
     cmd_check),
    ("generate", "run a code generator", ("model", "target", "out"), cmd_generate),
    ("fsm-run", "run a scenario against a machine", ("machine", "scenario"), cmd_fsm_run),
    ("infer", "infer a class model from objects", ("objects", "out"), cmd_infer),
    ("enforce", "prune non-conforming elements", ("model", "objects", "out"), cmd_enforce),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modelkit",
        description="Validate, check, and transform class/object models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, func in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(f"--{option}", required=True)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize anything else.
        return EXIT_USAGE if exc.code else EXIT_OK
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
