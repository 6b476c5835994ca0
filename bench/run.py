#!/usr/bin/env python3
"""The mzteleport benchmark.

    python3 bench/run.py --workload cli-figures|bulk-sweep|verify-routes \\
        --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src/`` and starts every ``mzteleport`` process the same way
the console script does. Each workload is a closed loop: one client, one
operation in flight, and a new operation only while it is expected to
finish within ``--seconds``. Every operation's output is checked against
an independent route; a wrong table, an error exit or an exception counts
as a failed operation.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` each operation runs untraced and
traced back to back, and the JSON holds the per-layer metrics taken from
the traced runs. The lines above it print every metric with its unit and
sample count. Each run writes to ``bench/runs/`` a record (context,
metrics, and the spans when traced) and one line per operation with the
sha256 of its output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, TextIO

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

CLI_MAIN = "import sys; from mzteleport.cli import main; sys.exit(main())"
SETUP_REPEATS = 15
BULK_STEPS = 100001
VERIFY_WARMUP_OPS = 10  # per set-up repeat
KEPT_PROBLEMS = 100

WORKLOADS = ("cli-figures", "bulk-sweep", "verify-routes")
END_TO_END = ("setup_s", "op_s.p50", "points_per_s", "peak_rss_mb")

# Layer metrics reported by a traced run: name -> unit.
LAYER_UNITS = {
    "init.interpreter_s": "s",
    "init.import_s": "s",
    "init.numpy_import_s": "s",
    "init.self_s": "s/op",
    "cli.main.self_s": "s/op",
    "cli.bytes_out": "bytes/op",
    "scenarios.sweep_gain.s": "s/op",
    "scenarios.sweep_gain.self_s": "s/op",
    "scenarios.build_scenario.calls": "calls/op",
    "scenarios.build_scenario.s": "s/op",
    "scenarios.build_scenario.self_s": "s/op",
    "scenarios.build_scenario.per_point": "ratio",
    "scenarios.optimize_eta.calls": "calls/op",
    "scenarios.optimize_eta.s": "s/op",
    "scenarios.reference_counts.calls": "calls/op",
    "scenarios.reference_counts.s": "s/op",
    "photometry.port_count.calls": "calls/op",
    "photometry.port_count.s": "s/op",
    "photometry.photon_flux.calls": "calls/op",
    "modes.combine.calls": "calls/op",
    "modes.fresh_mode.calls": "calls/op",
    "modes.terms_per_point": "terms/point",
    "teleporter.teleport.calls": "calls/op",
    "teleporter.teleport.s": "s/op",
    "fock.oracle_flux.calls": "calls/op",
    "fock.oracle_flux.s": "s/op",
    "fock.cells": "cells/call",
    "trace.overhead": "s",
    "trace.coverage": "ratio",
}


@dataclass
class Side:
    """The untraced or the traced operations of a run.

    Kept in typed arrays, a few bytes per operation, so that the memory of
    ``verify-routes`` (measured in this process) does not grow with the
    number of operations a faster program fits into a run.
    """

    seconds: array = field(default_factory=lambda: array("d"))
    ok: bytearray = field(default_factory=bytearray)
    points: array = field(default_factory=lambda: array("q"))
    out_bytes: int = 0
    rss_mb: float = 0.0

    def good(self) -> tuple[list[float], int]:
        """Seconds and total points of the correct operations (all, if none is)."""
        picked = [i for i, ok in enumerate(self.ok) if ok] or range(len(self.ok))
        return [self.seconds[i] for i in picked], sum(self.points[i] for i in picked)


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    env: dict
    work: Path
    ops: TextIO
    sides: dict = field(default_factory=lambda: {False: Side(), True: Side()})
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)  # fresh-interpreter import seconds
    tracer: object = None

    @property
    def attempted(self) -> int:
        return len(self.sides[False].ok) + len(self.sides[True].ok)

    def add(
        self, traced: bool, seconds: float, problems: list[str], points: int, output: bytes,
        what: str, rss_mb: float = 0.0,
    ) -> None:
        side = self.sides[traced]
        side.seconds.append(seconds)
        side.ok.append(not problems)
        side.points.append(points)
        side.out_bytes += len(output)
        side.rss_mb = max(side.rss_mb, rss_mb)
        self.failed += bool(problems)
        self.problems += [f"{what}: {p}" for p in problems][: KEPT_PROBLEMS - len(self.problems)]
        line = {
            "what": what, "traced": traced, "seconds": seconds, "ok": not problems,
            "sha256": hashlib.sha256(output).hexdigest(),
        }
        self.ops.write(json.dumps(line) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mzteleport" / "__init__.py").is_file():
        print(f"bench: no mzteleport package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    RUNS.mkdir(exist_ok=True)
    name = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    pythonpath = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    work = RUNS / f"work-{os.getpid()}"
    work.mkdir()
    try:
        with open(f"{name}.ops.jsonl", "w", encoding="ascii") as ops:
            run = Run(
                args.workload, args.seed, bool(args.trace),
                {**os.environ, "PYTHONPATH": pythonpath}, work, ops,
            )
            setup = measure_setup(run)
            body = verify_routes if run.workload == "verify-routes" else cli_workload
            body(run, random.Random(args.seed), args.seconds)
            while len(run.imports) < SETUP_REPEATS:
                sample_import(run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setup["setup_s"] = statistics.median(run.imports) + setup.get("warmup_s", 0.0)
    return report(run, setup, args.seconds, Path(f"{name}.json"))


# --- set-up ---------------------------------------------------------------


def measure_setup(run: Run) -> dict:
    """Warm the bytecode cache and, in-process, the routes; split the import when traced.

    The fresh-interpreter import samples behind ``setup_s`` are taken
    between operations (see :func:`closed_loop`), so that they span the
    run as the operations do.
    """
    spawn(run, ["-c", "import mzteleport"])  # compiles the bytecode cache once
    setup = {}
    if run.workload == "verify-routes":
        setup["warmup_s"] = verify_warmup()
    if run.trace:
        bare = [spawn(run, ["-c", "pass"])[0] for _ in range(SETUP_REPEATS)]
        split = [import_times(run) for _ in range(SETUP_REPEATS)]
        setup["init.interpreter_s"] = statistics.median(bare)
        setup["init.import_s"] = statistics.median(s["mzteleport"] for s in split)
        setup["init.numpy_import_s"] = statistics.median(s["numpy"] for s in split)
    return setup


def sample_import(run: Run) -> None:
    run.imports.append(spawn(run, ["-c", "import mzteleport"])[0])


def import_times(run: Run) -> dict[str, float]:
    """Cumulative import seconds of numpy and mzteleport, from ``-X importtime``."""
    _, code, _, err, _ = spawn(run, ["-X", "importtime", "-c", "import mzteleport"])
    if code != 0:
        raise RuntimeError(f"import mzteleport failed: {err[-500:]!r}")
    found = {}
    for line in err.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if name.strip() in ("numpy", "mzteleport"):
                found[name.strip()] = int(cumulative) * 1e-6
    return found


def spawn(run: Run, args: list[str], stdout: Path | None = None):
    """Run the interpreter with ``args``.

    Returns (seconds, exit code, peak RSS MB, stderr, start clock reading).
    """
    err_path = run.work / "stderr"
    with open(stdout or os.devnull, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=run.env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss_mb = usage.ru_maxrss / 1024.0
    return seconds, proc.returncode, rss_mb, err_path.read_text("utf-8", "replace"), start


# --- closed loop ----------------------------------------------------------


def closed_loop(run: Run, seconds: float, ops: Iterator, once: Callable[[object, bool], None]) -> None:
    """Run operations back to back while the next is expected to end in time.

    A traced run runs each operation untraced and traced, alternating
    which goes first. The set-up import samples are spread over the run.
    """
    start = time.perf_counter()
    for index, op in enumerate(ops):
        begin = time.perf_counter()
        if not run.trace:
            once(op, False)
        else:
            for traced in (False, True) if index % 2 == 0 else (True, False):
                once(op, traced)
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(run.imports) < SETUP_REPEATS * share:
            sample_import(run)
        now = time.perf_counter()
        if now + (now - begin) > start + seconds:
            return


# --- CLI workloads --------------------------------------------------------


def cli_figures_ops(rng: random.Random) -> Iterator:
    """Everyday invocations: each round runs every kind once, in seeded order."""
    from checks import CliOp

    kinds = ("fig3", "fig4", "fig5", "sweep-a", "sweep-b", "sweep-c", "lock", "max", "fidelity")
    while True:
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            fmt = rng.choice(("csv", "gnuplot"))
            source = rng.choice(("two-mode", "single-squeezer", "classical"))
            squeezing = 0.0 if source == "classical" else round(rng.uniform(0.0, 0.9), 3)
            if kind.startswith("fig"):
                yield CliOp("figure", fmt, figure=kind)
            elif kind.startswith("sweep"):
                layout = kind[-1]
                eta = "auto" if layout == "b" else None
                yield CliOp("sweep", fmt, layout=layout, source=source, squeezing=squeezing, eta=eta)
            elif kind == "lock":
                yield CliOp("lock-curve", fmt, source=source, squeezing=squeezing)
            elif kind == "max":
                yield CliOp("classical-max", fmt)
            else:
                yield CliOp("fidelity", fmt, source=source, squeezing=squeezing)


# Layout and source follow a fixed rotation: while a 100001-point sweep
# takes longer than half a run, a run holds one or two of them, and a
# seeded choice would make the run's mix, not the code, set the median.
# The first two are the slowest and about equally slow.
BULK_ROTATION = (
    ("c", "two-mode", None),
    ("c", "single-squeezer", None),
    ("b", "two-mode", "auto"),
    ("a", "two-mode", None),
    ("b", "single-squeezer", "fixed"),
    ("a", "classical", None),
)


def bulk_sweep_ops(rng: random.Random) -> Iterator:
    """Large sweeps written with --out; the seed draws squeezing and eta."""
    from checks import CliOp

    while True:
        for layout, source, eta in BULK_ROTATION:
            squeezing = 0.0 if source == "classical" else round(rng.uniform(0.0, 0.9), 3)
            if eta == "fixed":
                eta = repr(round(rng.uniform(0.05, 1.0), 3))
            yield CliOp(
                "sweep", "csv", layout=layout, source=source, squeezing=squeezing, eta=eta,
                steps=BULK_STEPS,
            )


def cli_workload(run: Run, rng: random.Random, seconds: float) -> None:
    import checks

    ops = cli_figures_ops(rng) if run.workload == "cli-figures" else bulk_sweep_ops(rng)
    write_out = run.workload == "bulk-sweep"
    if run.trace:
        from tracer import Tracer

        run.tracer = Tracer()

    closed_loop(run, seconds, ops, lambda op, traced: cli_once(run, checks, op, traced, write_out))


def cli_once(run: Run, checks, op, traced: bool, write_out: bool) -> None:
    stdout = run.work / "stdout"
    out = run.work / "table.csv" if write_out else None
    cli_argv = op.argv(str(out) if out else None)
    trace_path = run.work / "trace.json"
    if traced:
        args = [str(BENCH / "trace_child.py"), str(trace_path), *cli_argv]
    else:
        args = ["-c", CLI_MAIN, *cli_argv]
    seconds, code, rss_mb, err, start = spawn(run, args, stdout)
    text = stdout.read_text("ascii")
    if out is not None and out.exists():
        text += out.read_text("ascii")
        out.unlink()
    problems = [f"exit {code}: {err.strip()[-300:]}"] if code != 0 else checks.check(op, text)
    if traced:
        tracer = run.tracer
        tracer.op = run.attempted
        tracer.record("op", start, start + seconds, 0.0, None)
        if code == 0:
            child = json.loads(trace_path.read_text("ascii"))
            tracer.record("init", start, child["ready"], 0.0, "op")
            tracer.merge(child, "op")
    what = "mzteleport " + " ".join(op.argv())
    run.add(traced, seconds, problems, op.points(), text.encode("ascii"), what, rss_mb)


# --- in-process route check -------------------------------------------------


def verify_cases(rng: random.Random) -> Iterator:
    """Seeded configurations; each round holds every layout once."""
    from checks import Case

    while True:
        layouts = ["a", "b", "c"]
        rng.shuffle(layouts)
        for layout in layouts:
            source = rng.choice(("two-mode", "single-squeezer", "classical"))
            squeezing = 0.0 if source == "classical" else rng.uniform(0.0, 0.9)
            gain = rng.uniform(0.0, 1.5)
            eta = None
            if layout == "b":
                eta = "auto" if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
            x = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            y = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
            norm = math.sqrt(abs(x) ** 2 + abs(y) ** 2)
            yield Case(layout, source, squeezing, gain, eta, (x / norm, y / norm))


def verify_warmup() -> float:
    """Warm up in-process before timing; return the median seconds of a warm-up batch."""
    from checks import verify_case

    cases = verify_cases(random.Random(-1))
    batches = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for _ in range(VERIFY_WARMUP_OPS):
            verify_case(next(cases))
        batches.append(time.perf_counter() - start)
    return statistics.median(batches)


def verify_routes(run: Run, rng: random.Random, seconds: float) -> None:
    from checks import verify_case

    patches = None
    if run.trace:
        from tracer import LayerPatches, Tracer

        run.tracer = Tracer()
        patches = LayerPatches(run.tracer)
        timed_op = run.tracer.timed("op", verify_case)

    def once(case, traced: bool) -> None:
        if traced:
            run.tracer.op = run.attempted
            patches.apply()
        start = time.perf_counter()
        try:
            count_a, count_b, problems = (timed_op if traced else verify_case)(case)
        except Exception as exc:  # noqa: BLE001 - any failure of an operation is counted
            count_a = count_b = math.nan
            problems = [f"{type(exc).__name__}: {exc}"]
        seconds_taken = time.perf_counter() - start
        if traced:
            patches.restore()
        run.add(traced, seconds_taken, problems, 1, f"{count_a!r},{count_b!r}".encode(), repr(case))

    closed_loop(run, seconds, verify_cases(rng), once)


# --- metrics and report -----------------------------------------------------


def end_to_end(run: Run, setup: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count), from the untraced operations."""
    side = run.sides[False]
    times, points = side.good()
    if run.workload == "verify-routes":
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = side.rss_mb
    metrics = {
        "setup_s": (setup["setup_s"], "s", len(run.imports)),
        "op_s.p50": (statistics.median(times), "s", len(times)),
        "points_per_s": (points / sum(times), "1/s", len(times)),
        "peak_rss_mb": (rss, "MB", len(side.ok)),
    }
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        metrics["op_s.p90"] = (statistics.quantiles(times, n=10)[-1], "s", len(times))
    failed = len(side.ok) - sum(side.ok)
    metrics["error_rate"] = (failed / len(side.ok), "ratio", len(side.ok))
    return metrics


def layer_metrics(run: Run, setup: dict) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, sample count), from the traced operations."""
    tracer = run.tracer
    traced, plain = run.sides[True], run.sides[False]
    n = len(traced.ok)
    points = sum(traced.points)

    def total(layer: str, column: int) -> float:
        return tracer.totals.get(layer, (0, 0.0, 0.0))[column]

    covered = sum(end - start for _, _, start, end, parent in tracer.spans if parent == "op")
    oracle_calls = total("fock.oracle_flux", 0)
    values = {
        "init.interpreter_s": setup["init.interpreter_s"],
        "init.import_s": setup["init.import_s"],
        "init.numpy_import_s": setup["init.numpy_import_s"],
        "init.self_s": total("init", 2) / n,
        "cli.main.self_s": total("cli.main", 2) / n,
        "cli.bytes_out": traced.out_bytes / n,
        "scenarios.build_scenario.per_point": total("scenarios.build_scenario", 0) / max(points, 1),
        "photometry.photon_flux.calls": tracer.counts["photometry.photon_flux"] / n,
        "modes.combine.calls": tracer.counts["modes.combine"] / n,
        "modes.fresh_mode.calls": tracer.counts["modes.fresh_mode"] / n,
        "modes.terms_per_point": tracer.counts["modes.terms"] / max(points, 1),
        "fock.cells": tracer.counts["fock.cells"] / oracle_calls if oracle_calls else 0.0,
        "trace.overhead": statistics.median(traced.seconds) - statistics.median(plain.seconds),
        "trace.coverage": covered / sum(traced.seconds),
    }
    for name in LAYER_UNITS:
        if name not in values:
            layer, _, kind = name.rpartition(".")
            values[name] = total(layer, {"calls": 0, "s": 1, "self_s": 2}[kind]) / n
    counts = {name: SETUP_REPEATS if name.startswith("init.") and name != "init.self_s" else n
              for name in LAYER_UNITS}
    return {name: (values[name], LAYER_UNITS[name], counts[name]) for name in LAYER_UNITS}


def report(run: Run, setup: dict, seconds: float, record_path: Path) -> int:
    e2e = end_to_end(run, setup)
    metrics = layer_metrics(run, setup) if run.trace else e2e
    context = run_context(run, seconds)
    print("# " + ", ".join(f"{k}={v}" for k, v in context.items()))
    if run.trace:
        print(f"# untraced op_s.p50 {e2e['op_s.p50'][0]:.6g} s (n={e2e['op_s.p50'][2]})")
    for name, (value, unit, count) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit:11s} (n={count})")
    if not run.trace and "op_s.p90" not in metrics:
        print(f"{'op_s.p90':36s} {'-':>14s} {'s':11s} (n={e2e['op_s.p50'][2]}: under 100 samples)")
    if run.trace:
        n = len(run.sides[True].ok)
        selves = {layer: t[2] / n for layer, t in run.tracer.totals.items() if layer != "op"}
        ranked = sorted(selves.items(), key=lambda item: -item[1])
        print("# self seconds per op: " + ", ".join(f"{k} {v:.4g}" for k, v in ranked))
        print(f"# error_rate {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    for problem in run.problems[:10]:
        print(f"bench: failed: {problem}", file=sys.stderr)

    record = {
        "context": context,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
    }
    if run.trace:
        record["trace"] = run.tracer.dump()
    record_path.write_text(json.dumps(record) + "\n", encoding="ascii")

    keys = LAYER_UNITS if run.trace else END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
    }
    print(json.dumps(result))
    return 0


def run_context(run: Run, seconds: float) -> dict:
    import numpy

    return {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "trace": int(run.trace),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text("ascii").strip()
        for line in (git / "packed-refs").read_text("ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
