"""Command-line front door.

    modelkit validate --model m.buml.puml
    modelkit check    --model m.buml.puml --objects pop.objs --ocl rules.ocl
    modelkit generate --model m.buml.puml --target sql --out build/
    modelkit fsm-run  --machine greeter.fsm --scenario hello.scenario
    modelkit infer    --objects pop.objs --out inferred.buml.puml
    modelkit enforce  --model m.buml.puml --objects pop.objs --out pruned.objs

Each option is `--name VALUE` or `--name=VALUE`, and a name may be cut
to any prefix no other option of the command shares; `-h` or `--help`,
alone or after a command, lists the commands or that command's options.

Exit status: 0 all checks pass, 1 model-level failures (invalid model,
conformance or constraint violations, aborted runs, residuals), 2 usage,
parse, or I/O failures.  Reports go to stdout, one line per finding;
error counts are summarized on stderr.
"""

from __future__ import annotations

import gc
import os
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
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        print(f"error: cannot read {path}: {reason}", file=sys.stderr)
        return None


def _write(path: Path, content: str, mkdir: bool = True) -> bool:
    try:
        if mkdir:
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


def cmd_validate(model: str) -> int:
    from modelkit.puml import parse_class_model

    return _load(model, parse_class_model)[1]


def cmd_check(model: str, objects: str, ocl: str) -> int:
    from modelkit import check_all, parse_ocl
    from modelkit.conformance import check_conformance
    from modelkit.diagnostics import has_errors
    from modelkit.objtext import parse_object_model
    from modelkit.puml import parse_class_model

    classes, code = _load(model, parse_class_model)
    if classes is None:
        return code
    population, code = _load(objects, parse_object_model, classes)
    if population is None:
        return code
    ocl_text = _read(ocl)
    if ocl_text is None:
        return EXIT_USAGE
    constraints = parse_ocl(ocl_text, filename=ocl)
    if constraints.diagnostics:
        _report(constraints.diagnostics)
        return EXIT_USAGE

    conformance = check_conformance(population, classes)
    _report(conformance)
    failed = has_errors(conformance)

    for result in check_all(constraints.constraints, population, classes):
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


def cmd_generate(model: str, target: str, out: str) -> int:
    from modelkit.codegen import GeneratorError, builtin_registry
    from modelkit.diagnostics import has_errors
    from modelkit.puml import parse_class_model

    classes, code = _load(model, parse_class_model)
    if classes is None:
        return code
    registry = builtin_registry()
    try:
        result = registry.generate(target, classes)
    except GeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_root = Path(out) / target
    made: set[Path] = set()  # each directory is made once, not once per artifact
    for artifact in result.artifacts:
        path = out_root / artifact.relative_path
        if not _write(path, artifact.content, path.parent not in made):
            return EXIT_USAGE
        made.add(path.parent)
        print(path)
    _report(result.diagnostics)
    return EXIT_FAIL if has_errors(result.diagnostics) else EXIT_OK


def cmd_fsm_run(machine: str, scenario: str) -> int:
    from modelkit.fsm import (StepError, format_trace, parse_machine, read_scenario,
                              run_scenario)

    machine_text = _read(machine)
    if machine_text is None:
        return EXIT_USAGE
    parsed = parse_machine(machine_text, filename=machine)
    if parsed.model is None:
        _report(parsed.diagnostics)
        return EXIT_USAGE
    scenario_text = _read(scenario)
    if scenario_text is None:
        return EXIT_USAGE
    diags: list = []
    steps = read_scenario(scenario_text, scenario, diags)
    failure = None
    try:
        session = run_scenario(parsed.model, steps)
    except StepError as exc:  # keeping `exc` would keep its traceback's cycle
        session, failure = exc.session, exc.diagnostic
    for _ in steps:  # a malformed line anywhere wins over the run
        pass
    if diags:
        _report(diags)
        return EXIT_USAGE
    sys.stdout.write(format_trace(session))
    if failure is None:
        return EXIT_OK
    print(f"error: {failure.message}", file=sys.stderr)
    return EXIT_FAIL


def cmd_infer(objects: str, out: str) -> int:
    from modelkit.flex import infer_class_model
    from modelkit.objtext import parse_object_model
    from modelkit.puml import serialize_class_model

    population, code = _load(objects, parse_object_model, None)  # needs no class model
    if population is None:
        return code
    diagnostics: list = []
    classes = infer_class_model(population, diagnostics)
    _report(diagnostics)
    try:
        text = serialize_class_model(classes)
    except ValueError as exc:  # the inferred model is invalid
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if not _write(Path(out), text):
        return EXIT_USAGE
    print(out)
    return EXIT_OK


def cmd_enforce(model: str, objects: str, out: str) -> int:
    from modelkit.diagnostics import has_errors
    from modelkit.flex import enforce_conformance
    from modelkit.objtext import parse_object_model, serialize_object_model
    from modelkit.puml import parse_class_model

    classes, code = _load(model, parse_class_model)
    if classes is None:
        return code
    population, code = _load(objects, parse_object_model, classes)
    if population is None:
        return code
    pruned, diagnostics = enforce_conformance(population, classes)
    _report(diagnostics)
    if not _write(Path(out), serialize_object_model(pruned)):
        return EXIT_USAGE
    print(out)
    return EXIT_FAIL if has_errors(diagnostics) else EXIT_OK


_MODEL = "class model, PlantUML subset (.buml.puml)"
_OBJECTS = "object population (.objs)"

# Each subcommand: its help text, its handler, and the options it requires
# with their help texts; the handler takes the options as keywords.
_COMMANDS = {
    "validate": ("well-formedness of a class model", cmd_validate, {"model": _MODEL}),
    "check": ("conformance plus OCL invariants over objects", cmd_check,
              {"model": _MODEL, "objects": _OBJECTS, "ocl": "OCL invariants (.ocl)"}),
    "generate": ("run a code generator", cmd_generate,
                 {"model": _MODEL, "target": "generator id: classes or sql",
                  "out": "directory; artifacts are written under OUT/TARGET/"}),
    "fsm-run": ("run a scenario against a machine", cmd_fsm_run,
                {"machine": "state machine (.fsm)",
                 "scenario": "one event and its payload per line"}),
    "infer": ("infer a class model from objects", cmd_infer,
              {"objects": _OBJECTS, "out": "class model file to write"}),
    "enforce": ("prune non-conforming elements", cmd_enforce,
                {"model": _MODEL, "objects": _OBJECTS,
                 "out": "file to write the pruned population to"}),
}


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: modelkit {{{','.join(_COMMANDS)}}} --option VALUE ..."
    options = " ".join(f"--{name} {name.upper()}" for name in _COMMANDS[command][2])
    return f"usage: modelkit {command} {options}"


def _help(command: str | None) -> str:
    if command is None:
        title, heading = "Validate, check, and transform class/object models.", "commands"
        rows = {name: entry[0] for name, entry in _COMMANDS.items()}
    else:
        title, _, options = _COMMANDS[command]
        heading = "options"
        rows = {f"--{name} {name.upper()}": text for name, text in options.items()}
    width = max(map(len, rows))
    lines = [_usage(command), "", title, "", f"{heading}:"]
    lines += [f"  {left:<{width}}  {text}" for left, text in rows.items()]
    return "\n".join(lines)


def _usage_error(command: str | None, message: str) -> int:
    prog = "modelkit" if command is None else f"modelkit {command}"
    print(_usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    return EXIT_USAGE


def _names(token: str, options) -> list[str]:
    """The option names `token` may stand for: `-h` stands for `help`, and
    `--NAME` or `--NAME=VALUE` for NAME, or for each name NAME begins."""
    if token == "-h":
        return ["help"]
    flag = token[2:].partition("=")[0] if token.startswith("--") else ""
    names = [name for name in (*options, "help") if flag and name.startswith(flag)]
    return [flag] if flag in names else names


def _is_value(token: str) -> bool:
    """Whether the token after `--option` is its value rather than another
    option: it does not start with `-`, or is `-`, a negative number or a
    text with a blank."""
    return (not token.startswith("-") or token == "-" or " " in token
            or token[1:].replace(".", "", 1).isdigit())


def _command(argv: list[str]):
    """The handler `argv` names and the options to call it with, or the exit
    status once help or a usage error is printed.  Help wins over an
    unknown argument, and a missing option is reported before an unknown
    one."""
    if argv and _names(argv[0], ()) == ["help"]:
        print(_help(None))
        return EXIT_OK
    if not argv or argv[0] not in _COMMANDS:
        given = f"invalid choice: {argv[0]!r}" if argv else "a command is required"
        return _usage_error(None, f"{given} (choose from {', '.join(_COMMANDS)})")
    command, tokens = argv[0], iter(argv[1:])
    _, func, options = _COMMANDS[command]
    values: dict[str, str] = {}
    unknown: list[str] = []
    for token in tokens:
        names = _names(token, options)
        if len(names) > 1:
            listed = ", ".join(f"--{name}" for name in names)
            return _usage_error(command, f"ambiguous option: {token} could match {listed}")
        if not names:
            unknown.append(token)
        elif names[0] == "help":
            print(_help(command))
            return EXIT_OK
        else:  # an empty value names no file, target or directory
            value = token.partition("=")[2] if "=" in token else next(tokens, "")
            if not value or not ("=" in token or _is_value(value)):
                return _usage_error(command, f"argument --{names[0]}: expected one argument")
            values[names[0]] = value
    missing = [f"--{name}" for name in options if name not in values]
    if missing:
        return _usage_error(command, "the following arguments are required: "
                            + ", ".join(missing))
    if unknown:
        return _usage_error(command, f"unrecognized arguments: {' '.join(unknown)}")
    return func, values


def main(argv: list[str] | None = None) -> int:
    # No command makes a reference cycle, so reference counting frees all
    # it drops and a collector pass would only rescan live, acyclic models
    # and populations; a CLI process ends when its command returns.  An
    # in-process caller gets its collector back as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        command = _command(sys.argv[1:] if argv is None else argv)
        code = command if isinstance(command, int) else command[0](**command[1])
        sys.stdout.flush()  # so that a failed write fails here, not at exit
        return code
    except OSError as exc:  # a closed pipe or a full disk behind stdout or stderr
        try:
            sys.stdout.flush()
        except OSError:  # lest it fail again at exit, with a traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print(f"error: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        except OSError:
            pass  # stderr is what failed
        return EXIT_USAGE
    finally:
        if enabled:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
