"""What each entry point imports.

The CLI imports, per subcommand, only the modules that subcommand calls,
and `import modelkit` re-exports lazily (PEP 562).  No subcommand loads
`argparse`, `dataclasses` or `inspect`, and `json` only for a string with
escapes.
Each footprint is taken in a fresh interpreter, so the modules this test
process has already loaded cannot hide an import.  A footprint also counts
the modelkit source lines the command loads: every run compiles each of
them, whether or not it executes it.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import modelkit
from conftest import FIXTURES, REPO
from modelkit.metamodel import ClassModel
from modelkit.objtext import parse_object_model

BASE = {"modelkit", "modelkit.cli"}
CLASS_MODEL = {"modelkit.diagnostics", "modelkit.index", "modelkit.metamodel",
               "modelkit.puml"}
OCL = {"modelkit.ocl", "modelkit.ocl.interp", "modelkit.ocl.nodes",
       "modelkit.ocl.parser"}


WATCHED = ("argparse", "dataclasses", "inspect", "json")


def loaded(code: str) -> tuple[set[str], set[str], int]:
    """The modelkit modules a fresh interpreter holds after running `code`,
    which of the WATCHED standard modules it loaded, and how many source
    lines those modelkit modules hold."""
    probe = (code + "\nimport sys\n"
             "print(*sorted(m for m in sys.modules"
             f" if m.split('.')[0] in {('modelkit',) + WATCHED!r}))\n"
             "print(sum(open(m.__file__, 'rb').read().count(b'\\n')"
             " for n, m in list(sys.modules.items()) if n.split('.')[0] == 'modelkit'))\n")
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert result.returncode == 0, result.stderr
    *_, modules, lines = result.stdout.splitlines()
    names = set(modules.split())
    ours = {name for name in names if name.split(".")[0] == "modelkit"}
    return ours, {name.split(".")[0] for name in names - ours}, int(lines)


def test_importing_the_cli_loads_no_other_module():
    assert loaded("import modelkit.cli")[:2] == (BASE, set())


def test_importing_the_package_loads_nothing_else():
    assert loaded("import modelkit")[:2] == ({"modelkit"}, set())


# The most modelkit source lines each subcommand may load: the counts of
# the tree this table was last set on.  Lower it when a change loads fewer.
MOST_LINES = {"validate": 1438, "check": 2592, "generate": 1837, "fsm-run": 1978,
              "infer": 2066, "enforce": 2066}


@pytest.mark.parametrize("command, modules", [
    ("validate --model {fx}/dpp.buml.puml", CLASS_MODEL),
    ("check --model {fx}/dpp.buml.puml --objects {fx}/dpp.objs --ocl {fx}/dpp.ocl",
     CLASS_MODEL | OCL | {"modelkit.conformance", "modelkit.objtext"}),
    ("generate --model {fx}/dpp.buml.puml --target sql --out {out}",
     CLASS_MODEL | {"modelkit.codegen", "modelkit.codegen.sqlddl"}),
    ("fsm-run --machine {fx}/greeting.fsm --scenario {fx}/greeting.scenario",
     OCL | {"modelkit.diagnostics", "modelkit.fsm", "modelkit.metamodel"}),
    ("infer --objects {fx}/dpp.objs --out {out}/inferred.buml.puml",
     CLASS_MODEL | {"modelkit.conformance", "modelkit.flex", "modelkit.objtext"}),
    ("enforce --model {fx}/dpp.buml.puml --objects {fx}/dpp.objs --out {out}/pruned.objs",
     CLASS_MODEL | {"modelkit.conformance", "modelkit.flex", "modelkit.objtext"}),
], ids=lambda v: v.split()[0] if isinstance(v, str) else None)
def test_a_subcommand_loads_only_its_modules(command, modules, tmp_path):
    """The fixtures hold no escaped string, so no subcommand needs `json`."""
    argv = [arg.format(fx=FIXTURES, out=tmp_path) for arg in command.split()]
    code = f"from modelkit.cli import main\nassert main({argv!r}) == 0"
    ours, watched, lines = loaded(code)
    assert (ours, watched) == (BASE | modules, set())
    assert lines <= MOST_LINES[argv[0]], f"{argv[0]} loads {lines} lines"


@pytest.mark.parametrize("value", ['"say \\"hi\\""', '"tab\\there"'])
def test_only_an_escaped_string_loads_json(value, tmp_path):
    """Reading and writing a string with escapes is what needs `json`."""
    objs = tmp_path / "escaped.objs"
    objs.write_text(f"@startobjects\nobject a : K\na.s = {value}\n@endobjects\n")
    argv = ["infer", "--objects", str(objs), "--out", str(tmp_path / "m.buml.puml")]
    code = f"from modelkit.cli import main\nassert main({argv!r}) == 0"
    assert loaded(code)[1] == {"json"}
    code = ("from modelkit.metamodel import StrV\n"
            "from modelkit.objtext import render_value\n"
            f"assert render_value(StrV({json.loads(value)!r})) == {value!r}")
    assert loaded(code)[1] == {"json"}


def test_every_export_is_its_home_modules_object():
    for name in modelkit.__all__:
        home = importlib.import_module(modelkit._HOME[name])
        assert getattr(modelkit, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from modelkit import *", namespace)
    assert set(modelkit.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(modelkit, name) for name in modelkit.__all__)


def test_submodules_are_attributes_of_a_bare_import():
    code = ("import sys, modelkit\n"
            "assert 'modelkit.fsm' not in sys.modules\n"
            "assert modelkit.fsm.run_scenario is modelkit.run_scenario\n"
            "assert modelkit.ocl.parser.parse_ocl is modelkit.parse_ocl")
    modules, _, _ = loaded(code)
    assert "modelkit.fsm" in modules and "modelkit.flex" not in modules


def test_a_package_of_exporting_modules_is_an_attribute_of_a_bare_import():
    """`modelkit.ocl` holds no code: reading it loads each of its modules that
    `modelkit` exports from."""
    code = ("import modelkit\n"
            "assert modelkit.ocl.parser.parse_ocl is modelkit.parse_ocl\n"
            "assert modelkit.ocl.interp.Scope is modelkit.Scope")
    modules, _, _ = loaded(code)
    assert modules == {"modelkit", "modelkit.diagnostics", "modelkit.metamodel"} | OCL


def test_link_end_is_no_longer_exported():
    """A link's ends are id strings: there is no `LinkEnd` record."""
    assert "LinkEnd" not in modelkit.__all__
    with pytest.raises(AttributeError, match="LinkEnd"):
        modelkit.LinkEnd


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        modelkit.nope
    with pytest.raises(ImportError):
        exec("from modelkit import nope", {})


def test_no_module_imports_dataclasses():
    """`dataclasses` builds each class's methods by `exec` when the class is
    defined, on every import, and loads `inspect` with it; the records
    write out their own `__init__` over a shared `diagnostics.Record`."""
    importers = []
    for path in sorted((REPO / "src" / "modelkit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_parsed_records_are_slotted():
    """The per-line records of a parsed population carry no `__dict__`."""
    text = ('@startobjects\nobject a : K\na.s = "x"\nlink a -- a : r\n'
            '@endobjects\n')
    objects = parse_object_model(text, ClassModel(name="m")).model
    obj, link = objects.objects[0], objects.links[0]
    slot = obj.slots[0]
    for record in (obj, slot, slot.value, slot.span, link):
        assert not hasattr(record, "__dict__"), type(record).__name__
