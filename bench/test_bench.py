"""The benchmark's own tests; kept out of the tier-1 suite because they run it.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from mzteleport import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def assert_reports(proc, metrics: list[dict]) -> None:
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in metrics
    }
    for m in metrics:
        assert re.search(rf"^{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\s", "\n".join(lines), re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    assert_reports(proc, SPEC["end_to_end"])
    assert re.search(r"^error_rate\s+0\s+ratio\s", proc.stdout, re.M)


@pytest.mark.parametrize("workload", ["cli-figures", "verify-routes"])
def test_traced_run_prints_every_layer_metric(workload):
    assert_reports(run_bench(workload, 1), SPEC["per_layer"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = run_bench("verify-routes", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


OPS = [
    checks.CliOp("sweep", "csv", layout="a", source="single-squeezer", squeezing=0.3),
    checks.CliOp("sweep", "gnuplot", layout="b", source="two-mode", squeezing=0.5, eta="auto"),
    checks.CliOp("sweep", "csv", layout="b", source="two-mode", squeezing=0.5, eta="0.42"),
    checks.CliOp("lock-curve", "csv", source="single-squeezer", squeezing=0.7),
    checks.CliOp("figure", "csv", figure="fig4"),
    checks.CliOp("figure", "gnuplot", figure="fig5"),
    checks.CliOp("classical-max", "gnuplot"),
    checks.CliOp("fidelity", "csv", source="single-squeezer", squeezing=0.6),
]


def table_of(op: checks.CliOp, tmp_path: Path) -> str:
    out = tmp_path / "table.txt"
    assert cli.main(op.argv(str(out))) == 0
    return out.read_text()


def perturb(text: str, line: int, column: int, sep: str) -> str:
    """Shift the middle significant digit of one field by 5."""
    lines = text.split("\n")
    fields = lines[line].split(sep)
    value = fields[column]
    mantissa = value.split("e")[0]
    digits = [i for i, ch in enumerate(mantissa) if ch.isdigit()]
    i = digits[len(digits) // 2]
    fields[column] = value[:i] + str((int(value[i]) + 5) % 10) + value[i + 1:]
    lines[line] = sep.join(fields)
    return "\n".join(lines)


@pytest.mark.parametrize("op", OPS, ids=lambda op: " ".join(op.argv()))
def test_checker_fails_a_table_with_one_perturbed_digit(op, tmp_path):
    text = table_of(op, tmp_path)
    assert checks.check(op, text) == []
    sep = checks.SEPARATORS[op.fmt]
    lines = text.split("\n")
    line = 1 if op.command in ("classical-max", "fidelity") else len(lines) // 2
    width = len(lines[line].split(sep))
    numeric = {"classical-max": 2, "fidelity": 3}.get(op.command, 4)
    for column in range(width - numeric, width):
        assert checks.check(op, perturb(text, line, column, sep)), (line, column)
