"""modelkit benchmark: seeded workloads driven through the CLI and the library.

    python3 bench/run.py --workload check-dpp --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is run from `src/` (with
PYTHONPATH=src, not installed).  The benchmark generates its inputs from
`--seed`, runs one closed loop (one subprocess at a time, no threads) for
`--seconds`, checks every output against what the generator injected, and
prints one line per metric followed by a JSON object as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:

    verdict_s    the workload's CLI invocations, run as subprocesses
    api_s        the same pipeline called in process, from text to result
    setup_s      interpreter start plus `import modelkit.cli`
    peak_rss_mb  largest ru_maxrss of one CLI invocation

With `--trace 1` spans are recorded around the calls into each modelkit
module (see spans.py), on the workload and on a quarter-size copy of it,
and the metrics are per-layer self times, counts and log-log slopes.  The
spans themselves are appended to a JSON-lines file (`--spans`), one pass
at a time.

Times are medians over the run's passes, in reference seconds: each
invocation's or pass's wall time is scaled by how fast fixed pure-Python
reference loops ran just before and after it, relative to their nominal
speed (REF_SECONDS).  On a shared 2-core host the interpreter's speed was
seen to drift by 20-70% within seconds; the scaling takes most of that
drift out and leaves changes in modelkit's own work.  The raw wall-time
medians are printed too, as `#` lines.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import gen  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"verdict_s": "s", "api_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Timed layers: (span name, whether its slope is reported).  ocl.parse reads
# a constraint file whose size does not grow with the workload.
LAYERS = (
    ("objtext.parse", True), ("objtext.serialize", True), ("puml.parse", True),
    ("puml.serialize", True), ("metamodel.validate", True),
    ("conformance.check", True), ("ocl.parse", False), ("ocl.check_all", True),
    ("flex.enforce", True), ("flex.infer", True), ("codegen.sql", True),
    ("codegen.classes", True), ("fsm.parse", True), ("fsm.run", True),
    ("fsm.guard", True),
)
COUNTS = (
    "objtext.elements", "conformance.diagnostics", "ocl.instances", "ocl.false",
    "flex.removed", "flex.residual", "flex.infer_rejects", "codegen.artifacts",
    "codegen.bytes", "fsm.steps",
)
INVOCATION_TIMEOUT_S = 120

# --------------------------------------------------------------------------
# Machine speed reference


class _Probe:
    __slots__ = ("key", "kind")

    def __init__(self, i: int):
        self.key = f"o{i}"
        self.kind = i % 7


# The reference is two fixed loops, each slowed by contention the way part
# of modelkit is: a scan over a few MB of small objects in shuffled order
# (pointer chasing, like conformance checks and OCL navigation) and copies
# of a long list (memory bandwidth, like the FSM trace copies).
_PROBES = [_Probe(i) for i in range(20000)]
random.Random(0).shuffle(_PROBES)
_KEYS = [f"o{i * 997 % 20000}" for i in range(24)]
_BLOCK = list(range(12000))
# Nominal value of reference_seconds(); sets the unit of reported times.
REF_SECONDS = 0.012


def reference_seconds() -> float:
    """Geometric mean of the two reference loops' times."""
    start = time.perf_counter()
    hits = 0
    for key in _KEYS:
        for probe in _PROBES:
            if probe.key == key and probe.kind != 9:
                hits += 1
    scan = time.perf_counter() - start
    start = time.perf_counter()
    for i in range(200):
        copy = _BLOCK + [i]
    copying = time.perf_counter() - start
    if hits != len(_KEYS) or len(copy) != len(_BLOCK) + 1:
        raise RuntimeError("reference loops miscounted")
    return math.sqrt(scan * copying)


class Meter:
    """Converts wall time to reference seconds, from reference scans timed
    before and after each measured interval."""

    def __init__(self):
        self.before = reference_seconds()

    def factor(self) -> float:
        """Scale for the interval since the previous call."""
        after = reference_seconds()
        scale = REF_SECONDS / ((self.before + after) / 2)
        self.before = after
        return scale


# --------------------------------------------------------------------------
# CLI invocations


@dataclass
class CliResult:
    seconds: float  # wall time
    scaled: float  # reference seconds
    code: int
    out: str
    err: str
    maxrss_kib: int


class Cli:
    """Runs `python -m modelkit.cli ...` in the work directory through the
    launcher (launch.py), one at a time, and keeps the largest child RSS.
    Each invocation is scaled by reference scans timed right around it."""

    def __init__(self, workdir: Path, meter: Meter):
        self.dir = workdir
        self.meter = meter
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.peak_kib = 0
        self.launcher = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def run(self, argv: list[str]) -> CliResult:
        out_path, err_path = self.dir / ".stdout", self.dir / ".stderr"
        self.meter.factor()
        self.launcher.stdin.write(json.dumps({
            "argv": [sys.executable, *argv], "cwd": str(self.dir), "env": self.env,
            "out": str(out_path), "err": str(err_path),
            "timeout": INVOCATION_TIMEOUT_S}) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline() or '{"error": "launcher died"}')
        scale = self.meter.factor()
        if "error" in reply:
            raise RuntimeError(f"modelkit {' '.join(argv)}: {reply['error']}")
        return CliResult(reply["seconds"], reply["seconds"] * scale, reply["code"],
                         out_path.read_text(encoding="utf-8", errors="replace"),
                         err_path.read_text(encoding="utf-8", errors="replace"),
                         reply["maxrss_kib"])

    def __call__(self, *args: str) -> CliResult:
        res = self.run(["-m", "modelkit.cli", *args])
        self.peak_kib = max(self.peak_kib, res.maxrss_kib)
        return res


# --------------------------------------------------------------------------
# The run


class Run:
    def __init__(self, workload, cli: Cli):
        self.wl = workload
        self.cli = cli
        self.meter = cli.meter
        self.attempted = 0
        self.failed = 0

    def tally(self, what: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {self.wl.name} {what}: " + "; ".join(problems[:3]),
                  file=sys.stderr)

    def cli_pass(self) -> tuple[float, float]:
        """One pass of the workload's CLI invocations: (reference, wall) seconds."""
        scaled = seconds = 0.0
        for res, problems in self.wl.cli_pass(self.cli):
            scaled += res.scaled
            seconds += res.seconds
            self.tally("cli", problems)
        return scaled, seconds

    def api_pass(self) -> tuple[float, float]:
        gc.collect()
        self.meter.factor()
        start = time.perf_counter()
        result = self.wl.api_pass()
        seconds = time.perf_counter() - start
        scaled = seconds * self.meter.factor()
        self.tally("api", self.wl.check_api(result))
        return scaled, seconds

    def setup_sample(self) -> tuple[float, float]:
        res = self.cli.run(["-c", "import modelkit.cli"])
        self.tally("setup", [] if res.code == 0 and not res.err
                   else [f"exit {res.code}: {res.err[-200:]}"])
        return res.scaled, res.seconds

    def traced_pass(self, tracer: Tracer, wl, spans_out) -> tuple[float, dict, dict]:
        """One in-process pass of `wl` with spans recorded: the pass's total,
        self time per span name (both in reference seconds) and counts.  The
        pass's spans are then written to `spans_out`."""
        tracer.run_id += 1
        gc.collect()
        tracer.install()
        try:
            self.meter.factor()
            with tracer.span("pass"):
                result = wl.api_pass()
            scale = self.meter.factor()
        finally:
            tracer.uninstall()
        self.tally("traced api", wl.check_api(result))
        self_time, total, counts = tracer.summary()
        tracer.flush(spans_out)
        # The children of check_all are the per-invariant spans; report it whole.
        self_time["ocl.check_all"] = total.get("ocl.check_all", 0.0)
        return (total["pass"] * scale,
                {name: t * scale for name, t in self_time.items()}, counts)

    def warm_up(self) -> None:
        """Compile bytecode and fill caches, and run the gate's extra
        invocations once."""
        for _, problems in self.wl.cli_pass(self.cli):
            self.tally("cli", problems)
        for _, problems in self.wl.gate(self.cli):
            self.tally("gate", problems)
        self.tally("api", self.wl.check_api(self.wl.api_pass()))


def _median(pairs: list, index: int = 0) -> float:
    return statistics.median(p[index] for p in pairs)


def measure(run: Run, seconds: float, quarter=None, spans_out=None) -> tuple[dict, dict]:
    """Alternate set-up samples, CLI passes and in-process passes until
    `seconds` have passed.  With a `quarter` workload, each round also makes
    a traced in-process pass on the workload and on that quarter-size copy,
    whose spans go to `spans_out`.  Returns the end-to-end metrics and the
    traced passes."""
    samples = {"setup_s": [], "verdict_s": [], "api_s": []}
    traced = {"full": [], "quarter": []}
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    while not samples["api_s"] or time.perf_counter() < deadline:
        samples["setup_s"].append(run.setup_sample())
        samples["verdict_s"].append(run.cli_pass())
        samples["api_s"].append(run.api_pass())
        if quarter is not None:
            traced["full"].append(run.traced_pass(tracer, run.wl, spans_out))
            traced["quarter"].append(run.traced_pass(tracer, quarter, spans_out))
    for name, pairs in samples.items():
        print(f"# {name}: raw wall-time median {_median(pairs, 1):.4f} s over "
              f"{len(pairs)} passes")
    metrics = {name: (_median(pairs), "s") for name, pairs in samples.items()}
    metrics["peak_rss_mb"] = (run.cli.peak_kib / 1024, "MiB")
    return metrics, traced


def layer_metrics(run: Run, quarter, end_to_end: dict, traced: dict) -> dict:
    """Per-layer self times, slopes and counts from the traced passes."""

    def layer_s(key: str, name: str) -> float:
        return statistics.median(p[1].get(name, 0.0) for p in traced[key])

    metrics = {}
    size_ratio = math.log(run.wl.scale / quarter.scale)
    for layer, with_slope in LAYERS:
        full = layer_s("full", layer)
        metrics[f"{layer}_s"] = (full, "s")
        if with_slope:
            small = layer_s("quarter", layer)
            slope = math.log(full / small) / size_ratio if full > 0 and small > 0 else 0.0
            metrics[f"{layer}.slope"] = (slope, "1")
    for inv in gen.INVARIANTS:
        metrics[f"ocl.{inv}.s"] = (layer_s("full", f"ocl.{inv}"), "s")

    counts = dict(traced["full"][-1][2])
    counts.update(run.wl.counts())
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    instances = counts.get("ocl.instances", 0)
    metrics["ocl.error_ratio"] = (counts.get("ocl.errors", 0) / instances
                                  if instances else 0.0, "1")
    metrics["flex.removed_ratio"] = (counts.get("flex.removed", 0) / run.wl.scale, "1")
    steps = counts.get("fsm.steps", 0)
    metrics["fsm.fired_ratio"] = (counts.get("fsm.fired", 0) / steps if steps else 0.0, "1")
    metrics["fsm.guards_per_step"] = (counts.get("fsm.guards", 0) / steps
                                      if steps else 0.0, "1")
    api = end_to_end["api_s"][0]
    metrics["cli.overhead_s"] = (end_to_end["verdict_s"][0] - api, "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p[0] for p in traced["full"]) / api, "1")
    metrics["failed_ratio"] = (run.failed / run.attempted, "1")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None,
                        help="JSON-lines file the traced run writes its spans "
                             "to; defaults to .bench_work/<workload>.spans.jsonl")
    parser.add_argument("--size", type=int, default=None,
                        help="workload size (objects, classes or steps); "
                             "defaults to the workload's own")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "modelkit" / "cli.py").is_file():
        print(f"error: no modelkit sources under {SRC}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    kind = WORKLOADS[args.workload]
    size = args.size or kind.default_size
    # One CPU for the benchmark and its children, so the reference loops
    # run where the measured work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (workdir / "full").mkdir(parents=True)
    cli = Cli(workdir / "full", Meter())
    try:
        run = Run(kind(workdir / "full", args.seed, size), cli)
        run.warm_up()
        if args.trace:
            quarter = kind(workdir / "quarter", args.seed, max(1, size // 4))
            run.tally("api", quarter.check_api(quarter.api_pass()))
            spans = args.spans or workdir.parent / f"{args.workload}.spans.jsonl"
            with open(spans, "w", encoding="utf-8") as spans_out:
                metrics, traced = measure(run, args.seconds, quarter, spans_out)
            for name, (value, unit) in metrics.items():
                print(f"{name} {value:.6g} {unit}")
            metrics = layer_metrics(run, quarter, metrics, traced)
        else:
            metrics, _ = measure(run, args.seconds)
    finally:
        cli.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # a spans file or another run's directory is still there
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
