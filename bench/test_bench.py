"""Smoke tests of the benchmark harness at tiny sizes, so that it cannot rot:

    python -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMOKE_SIZES = {"check-dpp": 200, "enforce-infer": 240, "generate-wide": 60,
               "fsm-long": 300}

# A span each workload's traced pass must record.
LAYER_SPAN = {"check-dpp": "ocl.check_all", "enforce-infer": "flex.enforce",
              "generate-wide": "codegen.sql", "fsm-long": "fsm.run"}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE_SIZES))
def test_smoke_run_reports_every_declared_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    res = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--size", str(SMOKE_SIZES[workload]),
                 "--spans", str(spans))
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert (result["correct"], result["failed"]) == (True, 0), res.stderr
    assert sorted(result["metrics"]) == sorted(declared)
    for metric in spec["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        records = [json.loads(line) for line in spans.read_text().splitlines()]
        assert {"pass", LAYER_SPAN[workload]} <= {r["name"] for r in records}
        assert [r["id"] for r in records] == list(range(len(records)))
        assert all(r["parent"] is None or r["parent"] < r["id"] for r in records)
    if trace and workload == "fsm-long":
        data = gen.fsm_long(3, SMOKE_SIZES[workload])
        assert result["metrics"]["fsm.guards_per_step"]["value"] == data.guards / data.steps
        assert result["metrics"]["fsm.fired_ratio"]["value"] == data.fired / data.steps


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inputs_depend_on_the_seed_only():
    assert gen.check_dpp(5, 300) == gen.check_dpp(5, 300)
    assert gen.check_dpp(5, 300).objects != gen.check_dpp(6, 300).objects
    assert gen.fsm_long(5, 200) == gen.fsm_long(5, 200)


@pytest.mark.parametrize("workload", sorted(SMOKE_SIZES))
def test_gate_fails_when_an_expectation_is_altered(workload, tmp_path):
    wl = workloads.WORKLOADS[workload](tmp_path, 3, SMOKE_SIZES[workload])
    data = wl.data
    if workload == "check-dpp":
        data.expected.diag_codes["mult-lower"] += 1
    elif workload == "enforce-infer":
        data.removed["removed-link"] -= 1
    elif workload == "generate-wide":
        data.join_assocs += 1
    else:
        data.trace = data.trace.replace("->", "=>", 1)
    cli = run.Cli(tmp_path, run.Meter())
    try:
        bench = run.Run(wl, cli)
        bench.warm_up()
    finally:
        cli.close()
    assert bench.failed >= 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = _bench("--workload", "check-dpp", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert res.returncode != 0
    assert res.stdout == ""
