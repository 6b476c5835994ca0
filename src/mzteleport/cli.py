"""Command-line front end: gain sweeps, preset figure data, fidelity reports.

All physics lives in the library modules; this layer only parses flags,
composes library calls, and formats rows. Exit codes: 0 on success, 1 on
a failure during evaluation, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

from .scenarios import ETA_AUTO, ScenarioConfig, SweepTable, default_gain_grid, sweep_gain
from .teleporter import (
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    TeleporterSpec,
    H_to_squeezing,
    coherent_fidelity,
    squeezing_to_H,
)

__all__ = ["main", "build_parser", "figure_curves"]

_SOURCE_BY_FLAG = {
    "two-mode": KIND_TWO_MODE,
    "single": KIND_SINGLE_SQUEEZER,
    "none": KIND_CLASSICAL,
}

_FIGURES = ("fig3", "fig4", "fig5")

SWEEP_HEADER = ("lambda", "count_a", "count_b", "visibility")
FIDELITY_HEADER = ("source", "squeezing", "H", "fidelity")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated invocation, ready to evaluate."""

    command: str
    scenario: str
    source: str
    H: float
    gain_min: float
    gain_max: float
    steps: int
    eta: float | str
    fmt: str
    out: str | None
    precision: int
    figure: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzteleport",
        description=(
            "Interference tests for continuous-variable teleporter channels: "
            "photon-count and visibility sweeps of a Mach-Zehnder network with "
            "a teleporter in one or both arms."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sweep = commands.add_parser("sweep", help="visibility and counts across a gain grid")
    _add_scenario_flags(sweep)
    _add_grid_flags(sweep)
    _add_output_flags(sweep)

    figure = commands.add_parser("figure", help="preset multi-curve sweep collections")
    figure.add_argument("name", choices=_FIGURES, help="which preset to emit")
    _add_grid_flags(figure)
    _add_output_flags(figure)

    classical = commands.add_parser(
        "classical-max", help="peak visibility of the entanglement-free channel"
    )
    _add_grid_flags(classical)
    _add_output_flags(classical)

    fidelity = commands.add_parser(
        "fidelity", help="average coherent-state fidelity at unity gain"
    )
    fidelity.add_argument("--source", choices=sorted(_SOURCE_BY_FLAG), default="two-mode")
    _add_squeezing_flags(fidelity)
    _add_output_flags(fidelity)

    lock = commands.add_parser(
        "lock-curve", help="dark-port sweep of the dual-teleporter arrangement"
    )
    lock.add_argument("--source", choices=sorted(_SOURCE_BY_FLAG), default="two-mode")
    _add_squeezing_flags(lock)
    _add_grid_flags(lock)
    _add_output_flags(lock)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _to_run_config(parser, args)
    try:
        text = _render(config)
        if config.out is None:
            sys.stdout.write(text)
        else:
            with open(config.out, "w", encoding="ascii", newline="\n") as handle:
                handle.write(text)
    except Exception as exc:  # noqa: BLE001 - map any evaluation failure to exit 1
        print(f"mzteleport: error: {exc}", file=sys.stderr)
        return 1
    return 0


def figure_curves(
    name: str, grid_start: float = 0.0, grid_stop: float = 1.5, grid_steps: int = 301
) -> list[tuple[str, SweepTable]]:
    """The labeled sweep curves behind each figure preset.

    ``fig3``: layout a at two-mode squeezing 0, 0.5 and 0.9 plus the
    single-squeezer source at squeezing 0.875. ``fig4``: the same four
    sources in layout b with per-gain optimized attenuation. ``fig5``:
    layout c at two-mode squeezing 0, 0.5 and 0.9.
    """
    if name not in _FIGURES:
        raise ValueError(f"unknown figure {name!r}")
    grid = default_gain_grid(grid_start, grid_stop, grid_steps)
    two_mode_levels = (0.0, 0.5, 0.9)
    curves: list[tuple[str, SweepTable]] = []
    if name in ("fig3", "fig4"):
        layout = "a" if name == "fig3" else "b"
        eta = None if name == "fig3" else ETA_AUTO
        for s in two_mode_levels:
            config = ScenarioConfig(layout, KIND_TWO_MODE, 0.0, squeezing_to_H(s), eta)
            curves.append((f"two-mode s={s:g}", sweep_gain(config, grid)))
        config = ScenarioConfig(
            layout, KIND_SINGLE_SQUEEZER, 0.0, squeezing_to_H(0.875), eta
        )
        curves.append(("single-squeezer s=0.875", sweep_gain(config, grid)))
    else:
        for s in two_mode_levels:
            config = ScenarioConfig("c", KIND_TWO_MODE, 0.0, squeezing_to_H(s))
            curves.append((f"two-mode s={s:g}", sweep_gain(config, grid)))
    return curves


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", choices=("a", "b", "c"), default="a")
    sub.add_argument("--source", choices=sorted(_SOURCE_BY_FLAG), default="two-mode")
    _add_squeezing_flags(sub)
    sub.add_argument(
        "--eta",
        default=None,
        help="attenuator transmission for scenario b: 'auto' or a value in [0, 1]",
    )


def _add_squeezing_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--squeezing",
        type=float,
        default=None,
        help="squeezing fraction in [0, 1); defaults to 0 when --H is absent",
    )
    group.add_argument("--H", type=float, default=None, help="squeezer pump gain, >= 1")


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--gain-min", type=float, default=0.0)
    sub.add_argument("--gain-max", type=float, default=1.5)
    sub.add_argument("--steps", type=int, default=301)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "tsv", "gnuplot"), default="csv")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.add_argument(
        "--precision", type=int, default=12, help="significant digits (default 12)"
    )


def _to_run_config(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    source_flag = getattr(args, "source", "two-mode")
    source = _SOURCE_BY_FLAG[source_flag]
    if args.command == "classical-max":
        source = KIND_CLASSICAL

    squeezing = getattr(args, "squeezing", None)
    pump_gain = getattr(args, "H", None)
    if squeezing is not None:
        if not 0.0 <= squeezing < 1.0:
            parser.error(f"--squeezing must lie in [0, 1), got {squeezing}")
        H = squeezing_to_H(squeezing)
    elif pump_gain is not None:
        if not (math.isfinite(pump_gain) and pump_gain >= 1.0):
            parser.error(f"--H must be a finite number >= 1, got {pump_gain}")
        H = pump_gain
    else:
        H = 1.0
    if source == KIND_CLASSICAL and H != 1.0:
        parser.error("source 'none' has no squeezer; omit --squeezing/--H or pass --H 1")

    scenario = getattr(args, "scenario", "a")
    if args.command == "lock-curve":
        scenario = "c"

    eta_flag = getattr(args, "eta", None)
    if scenario == "b":
        eta = ETA_AUTO if eta_flag in (None, ETA_AUTO) else _parse_eta(parser, eta_flag)
    elif eta_flag is not None:
        parser.error("--eta applies to scenario b only")
    else:
        eta = ETA_AUTO  # unused outside scenario b

    gain_min = getattr(args, "gain_min", 0.0)
    gain_max = getattr(args, "gain_max", 1.5)
    steps = getattr(args, "steps", 301)
    if not (math.isfinite(gain_min) and math.isfinite(gain_max)):
        parser.error(f"--gain-min and --gain-max must be finite, got {gain_min} and {gain_max}")
    if not gain_min < gain_max:
        parser.error(f"--gain-min must be below --gain-max, got {gain_min} and {gain_max}")
    if steps < 2:
        parser.error(f"--steps must be >= 2, got {steps}")
    if args.precision < 1:
        parser.error(f"--precision must be >= 1, got {args.precision}")

    return RunConfig(
        command=args.command,
        scenario=scenario,
        source=source,
        H=H,
        gain_min=gain_min,
        gain_max=gain_max,
        steps=steps,
        eta=eta,
        fmt=args.format,
        out=args.out,
        precision=args.precision,
        figure=getattr(args, "name", None),
    )


def _parse_eta(parser: argparse.ArgumentParser, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        parser.error(f"--eta must be 'auto' or a number, got {text!r}")
    if not 0.0 <= value <= 1.0:
        parser.error(f"--eta must lie in [0, 1], got {text}")
    return value


def _render(config: RunConfig) -> str:
    if config.command in ("sweep", "lock-curve"):
        table = sweep_gain(_scenario_config(config), _grid(config))
        return _render_table(table, config)
    if config.command == "figure":
        curves = figure_curves(config.figure, config.gain_min, config.gain_max, config.steps)
        return _render_curves(curves, config)
    if config.command == "classical-max":
        table = sweep_gain(ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), _grid(config))
        peak = table.peak()
        sep = _separator(config.fmt)
        header = sep.join(("lambda_max", "visibility_max"))
        row = sep.join((_fmt(peak.gain, config.precision), _fmt(peak.visibility, config.precision)))
        return f"{header}\n{row}\n"
    if config.command == "fidelity":
        spec = TeleporterSpec(config.source, 1.0, config.H)
        value = coherent_fidelity(spec)
        sep = _separator(config.fmt)
        header = sep.join(FIDELITY_HEADER)
        row = sep.join(
            (
                config.source,
                _fmt(H_to_squeezing(config.H), config.precision),
                _fmt(config.H, config.precision),
                _fmt(value, config.precision),
            )
        )
        return f"{header}\n{row}\n"
    raise ValueError(f"unknown command {config.command!r}")


def _scenario_config(config: RunConfig) -> ScenarioConfig:
    eta = config.eta if config.scenario == "b" else None
    return ScenarioConfig(config.scenario, config.source, 0.0, config.H, eta)


def _grid(config: RunConfig):
    return default_gain_grid(config.gain_min, config.gain_max, config.steps)


def _separator(fmt: str) -> str:
    return {"csv": ",", "tsv": "\t", "gnuplot": " "}[fmt]


def _fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def _render_table(table: SweepTable, config: RunConfig) -> str:
    sep = _separator(config.fmt)
    lines = []
    if config.fmt == "gnuplot":
        lines.append("# " + " ".join(SWEEP_HEADER))
    else:
        lines.append(sep.join(SWEEP_HEADER))
    for row in table.rows:
        lines.append(sep.join(_fmt(value, config.precision) for value in row))
    return "\n".join(lines) + "\n"


def _render_curves(curves: list[tuple[str, SweepTable]], config: RunConfig) -> str:
    sep = _separator(config.fmt)
    if config.fmt == "gnuplot":
        blocks = []
        for label, table in curves:
            lines = [f"# {label}", "# " + " ".join(SWEEP_HEADER)]
            for row in table.rows:
                lines.append(sep.join(_fmt(value, config.precision) for value in row))
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"
    lines = [sep.join(("curve", *SWEEP_HEADER))]
    for label, table in curves:
        for row in table.rows:
            lines.append(sep.join((label, *(_fmt(value, config.precision) for value in row))))
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
