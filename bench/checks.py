"""The benchmark's operations and the independent routes their outputs are held to.

A CLI table is held to the printed precision against routes that do not go
through the network engine's formatting: the closed forms of
``reference_counts`` on every row that has one, the visibility recomputed
from the printed counts, the gain grid, and the truncated-Fock oracle on
the first, middle and last row of every curve. The fidelity and
classical-maximum reports are held to closed forms written out here.
An in-process configuration is held to the truncated-Fock oracle and,
where one exists, the closed form, at the acceptance tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mzteleport import fock, photometry, scenarios

PRECISION = 12  # the CLI's default significant digits
# Slack for two float routes to the same value, on top of the printed
# rounding; far below one unit in the 12th digit at every count magnitude.
SLACK = 1e-13
ORACLE_TOL = 1e-10  # acceptance tolerances of the Fock oracle and the closed forms
CLOSED_FORM_TOL = 1e-9
MAX_PROBLEMS = 5

HEADER = ("lambda", "count_a", "count_b", "visibility")
SEPARATORS = {"csv": ",", "tsv": "\t", "gnuplot": " "}
SOURCE_FLAGS = {"two-mode": "two-mode", "single-squeezer": "single", "classical": "none"}

_PRESET_LEVELS = (
    ("two-mode", 0.0),
    ("two-mode", 0.5),
    ("two-mode", 0.9),
    ("single-squeezer", 0.875),
)
# figure -> (layout, eta, number of preset curves), as the README documents them.
FIGURES = {"fig3": ("a", None, 4), "fig4": ("b", "auto", 4), "fig5": ("c", None, 3)}


def pump_gain(squeezing: float) -> float:
    """H solving (sqrt(H) - sqrt(H-1))^2 = 1 - s."""
    rest = 1.0 - squeezing
    return (1.0 + rest) ** 2 / (4.0 * rest)


def has_closed_form(layout: str, source: str) -> bool:
    return layout == "a" or source in ("two-mode", "classical")


class Curve(NamedTuple):
    label: str | None
    layout: str
    source: str
    squeezing: float
    eta: str | None  # "auto", a number as text, or None

    def config(self, gain: float) -> scenarios.ScenarioConfig:
        eta = self.eta if self.eta in (None, "auto") else float(self.eta)
        return scenarios.ScenarioConfig(
            self.layout, self.source, float(gain), pump_gain(self.squeezing), eta
        )


@dataclass(frozen=True)
class CliOp:
    """One mzteleport invocation: what to ask for and what it must print."""

    command: str  # sweep | lock-curve | figure | classical-max | fidelity
    fmt: str = "csv"
    figure: str | None = None
    layout: str = "a"
    source: str = "two-mode"
    squeezing: float = 0.0
    eta: str | None = None
    steps: int = 301

    def argv(self, out: str | None = None) -> list[str]:
        argv = [self.command]
        if self.command == "figure":
            argv.append(self.figure)
        if self.command == "sweep":
            argv += ["--scenario", self.layout]
        if self.command in ("sweep", "lock-curve", "fidelity"):
            argv += ["--source", SOURCE_FLAGS[self.source]]
            if self.source != "classical":
                argv += ["--squeezing", repr(self.squeezing)]
        if self.eta is not None and self.command == "sweep":
            argv += ["--eta", self.eta]
        if self.steps != 301:
            argv += ["--steps", str(self.steps)]
        argv += ["--format", self.fmt]
        if out is not None:
            argv += ["--out", out]
        return argv

    def curves(self) -> list[Curve]:
        if self.command == "figure":
            layout, eta, count = FIGURES[self.figure]
            return [
                Curve(f"{source} s={s:g}", layout, source, s, eta)
                for source, s in _PRESET_LEVELS[:count]
            ]
        layout = "c" if self.command == "lock-curve" else self.layout
        return [Curve(None, layout, self.source, self.squeezing, self.eta)]

    def points(self) -> int:
        """Gain-grid points the invocation evaluates."""
        if self.command == "fidelity":
            return 0
        if self.command == "classical-max":
            return self.steps
        return self.steps * len(self.curves())


def check(op: CliOp, text: str) -> list[str]:
    """Problems found in ``text``, the output of ``op``; empty when correct."""
    try:
        if op.command == "fidelity":
            return _check_fidelity(op, text)
        if op.command == "classical-max":
            return _check_classical_max(op, text)
        return _check_curves(op, text)
    except ValueError as exc:
        return [f"malformed output: {exc}"]


def half_unit(value: float) -> float:
    """Half a unit in the last printed place of ``value``."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - PRECISION + 1)


def agrees(printed: float, expected: float, tol: float = 0.0) -> bool:
    """``printed`` is ``expected`` rounded to the printed precision, up to ``tol``."""
    slack = half_unit(printed) + SLACK * max(1.0, abs(expected)) + tol
    return abs(printed - expected) <= slack


def parse_curves(text: str, fmt: str, labelled: bool) -> list[tuple[str | None, list[list[float]]]]:
    """Split a sweep or figure table into (label, rows of 4 numbers) per curve."""
    if not text.endswith("\n"):
        raise ValueError("table does not end with a newline")
    sep = SEPARATORS[fmt]
    curves: list[tuple[str | None, list[list[float]]]] = []
    if fmt == "gnuplot":
        for block in text[:-1].split("\n\n") if labelled else [text[:-1]]:
            lines = block.split("\n")
            label = None
            if labelled:
                if not lines[0].startswith("# "):
                    raise ValueError(f"block starts with {lines[0]!r}, not a label")
                label, lines = lines[0][2:], lines[1:]
            if lines[0] != "# " + " ".join(HEADER):
                raise ValueError(f"unexpected header {lines[0]!r}")
            curves.append((label, [_numbers(line, sep, 4) for line in lines[1:]]))
        return curves
    lines = text[:-1].split("\n")
    header = (("curve",) if labelled else ()) + HEADER
    if lines[0] != sep.join(header):
        raise ValueError(f"unexpected header {lines[0]!r}")
    for line in lines[1:]:
        label = None
        if labelled:
            label, _, line = line.partition(sep)
        if not curves or curves[-1][0] != label:
            curves.append((label, []))
        curves[-1][1].append(_numbers(line, sep, 4))
    return curves


def _numbers(line: str, sep: str, width: int) -> list[float]:
    fields = line.split(sep)
    if len(fields) != width:
        raise ValueError(f"row {line!r} has {len(fields)} fields, expected {width}")
    return [float(field) for field in fields]


def _check_curves(op: CliOp, text: str) -> list[str]:
    expected = op.curves()
    found = parse_curves(text, op.fmt, op.command == "figure")
    labels = [label for label, _ in found]
    if labels != [curve.label for curve in expected]:
        return [f"curves {labels}, expected {[curve.label for curve in expected]}"]
    grid = np.linspace(0.0, 1.5, op.steps)
    problems: list[str] = []
    for curve, (_, rows) in zip(expected, found):
        problems += _check_rows(curve, rows, grid)
    return problems


def _check_rows(curve: Curve, rows: list[list[float]], grid: np.ndarray) -> list[str]:
    if len(rows) != len(grid):
        return [f"{curve.label or 'sweep'}: {len(rows)} rows, expected {len(grid)}"]
    problems = []
    closed = has_closed_form(curve.layout, curve.source)
    for k, (lam, count_a, count_b, vis) in enumerate(rows):
        where = f"{curve.label or 'sweep'} row {k + 1}"
        if not agrees(lam, grid[k]):
            problems.append(f"{where}: lambda {lam!r}, expected {grid[k]!r}")
        if closed:
            ref = scenarios.reference_counts(curve.config(grid[k]))
            if not (agrees(count_a, ref.count_a) and agrees(count_b, ref.count_b)):
                problems.append(f"{where}: counts {count_a!r}, {count_b!r}, closed form {ref}")
        if not _visibility_agrees(count_a, count_b, vis):
            problems.append(f"{where}: visibility {vis!r} does not follow from the counts")
        if len(problems) >= MAX_PROBLEMS:
            return problems
    for k in (0, len(grid) // 2, len(grid) - 1):
        outputs = scenarios.build_scenario(curve.config(grid[k]))
        for port, printed in ((outputs.port_a, rows[k][1]), (outputs.port_b, rows[k][2])):
            exact = sum(fock.oracle_flux(f, photometry.HORIZONTAL, 3) for f in port)
            if not agrees(printed, exact, ORACLE_TOL):
                problems.append(f"{curve.label or 'sweep'} row {k + 1}: {printed!r}, oracle {exact!r}")
    return problems


def _visibility_agrees(count_a: float, count_b: float, vis: float) -> bool:
    total = count_a + count_b
    if total == 0.0:
        return math.isnan(vis)
    if math.isnan(vis) or count_a < 0.0 or count_b < 0.0:
        return False
    # Error carried into (a - b)/(a + b) by the rounding of the printed counts.
    carried = 2.0 * (count_b * half_unit(count_a) + count_a * half_unit(count_b)) / total**2
    return agrees(vis, (count_a - count_b) / total, carried)


def _single_row(op: CliOp, text: str, header: tuple[str, ...]) -> list[str]:
    sep = SEPARATORS[op.fmt]
    lines = text.split("\n")
    if len(lines) != 3 or lines[2] != "" or lines[0] != sep.join(header):
        raise ValueError(f"expected a {header} header and one row, got {text[:200]!r}")
    fields = lines[1].split(sep)
    if len(fields) != len(header):
        raise ValueError(f"row {lines[1]!r} has {len(fields)} fields")
    return fields


def _check_classical_max(op: CliOp, text: str) -> list[str]:
    lam, vis = map(float, _single_row(op, text, ("lambda_max", "visibility_max")))
    grid = np.linspace(0.0, 1.5, op.steps)
    curve = Curve(None, "a", "classical", 0.0, None)
    best_k, best_vis = 0, -math.inf
    for k, gain in enumerate(grid):
        counts = scenarios.reference_counts(curve.config(gain))
        fringe = (counts.count_a - counts.count_b) / (counts.count_a + counts.count_b)
        if fringe > best_vis:
            best_k, best_vis = k, fringe
    if agrees(lam, grid[best_k]) and agrees(vis, best_vis):
        return []
    return [f"peak ({lam!r}, {vis!r}), closed form ({grid[best_k]!r}, {best_vis!r})"]


def _check_fidelity(op: CliOp, text: str) -> list[str]:
    source, *numbers = _single_row(op, text, ("source", "squeezing", "H", "fidelity"))
    squeezing, H, fidelity = map(float, numbers)
    s = op.squeezing if op.source != "classical" else 0.0
    # Unity-gain noise variances: 2(1-s) per quadrature for the two-mode
    # channel; (4 - 2s, 0) for the split single squeezer.
    expected = 1.0 / (2.0 - s) if op.source != "single-squeezer" else 1.0 / math.sqrt(3.0 - s)
    if (
        source == op.source
        and agrees(squeezing, s)
        and agrees(H, pump_gain(s))
        and agrees(fidelity, expected)
    ):
        return []
    return [f"row {text.splitlines()[1]!r}, expected {op.source},{s!r},{pump_gain(s)!r},{expected!r}"]


class Case(NamedTuple):
    """One in-process configuration and the qubit it is evaluated on."""

    layout: str
    source: str
    squeezing: float
    gain: float
    eta: float | str | None
    qubit: tuple[complex, complex]


def verify_case(case: Case) -> tuple[float, float, list[str]]:
    """Counts of one configuration along the network, checked by the oracle and closed form."""
    config = scenarios.ScenarioConfig(
        case.layout, case.source, case.gain, pump_gain(case.squeezing), case.eta
    )
    state = photometry.QubitInput(*case.qubit)
    outputs = scenarios.build_scenario(config)
    counts = scenarios.port_count(outputs.port_a, outputs.port_b, state)
    problems = []
    for name, port, value in (("a", outputs.port_a, counts.count_a), ("b", outputs.port_b, counts.count_b)):
        oracle = sum(fock.oracle_flux(f, state, 3) for f in port)
        if not abs(oracle - value) <= ORACLE_TOL:
            problems.append(f"port {name}: network {value!r}, oracle {oracle!r}")
    if has_closed_form(case.layout, case.source):
        ref = scenarios.reference_counts(config)
        if not max(abs(ref.count_a - counts.count_a), abs(ref.count_b - counts.count_b)) <= CLOSED_FORM_TOL:
            problems.append(f"network {counts}, closed form {ref}")
    return counts.count_a, counts.count_b, problems
