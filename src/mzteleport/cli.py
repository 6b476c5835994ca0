"""Command-line front end: gain sweeps, preset figure data, fidelity reports.

All physics lives in the library modules; this layer only parses flags,
composes library calls, and formats rows. Exit codes: 0 on success, 1 on
a failure during evaluation, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import Iterable, Iterator, TextIO

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

# Lines joined into one write: a few hundred kB, so memory stays flat in
# the table length while the writes stay few.
WRITE_BLOCK_LINES = 4096


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
    lock.set_defaults(scenario="c", eta=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve(parser, args)
    try:
        lines = _render(args)
        if args.out is None:
            _write_blocks(sys.stdout, lines)
        else:
            with open(args.out, "w", encoding="ascii", newline="\n") as handle:
                _write_blocks(handle, lines)
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
        type=_eta_flag,
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
    group.add_argument("--H", type=float, default=None, help="squeezer pump gain, finite, >= 1")


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


def _eta_flag(text: str) -> float | str:
    if text == ETA_AUTO:
        return text
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be 'auto' or a number, got {text!r}") from None


def _resolve(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Build the library values a command needs onto ``args``.

    Sets ``grid`` for every command with grid flags, ``config`` for the
    sweeping commands and ``spec`` for ``fidelity``. The library checks
    every physical range, so the command line accepts exactly what the
    library accepts; a value it rejects is a usage error.
    """
    if args.precision < 1:
        parser.error(f"--precision must be >= 1, got {args.precision}")
    try:
        if args.command != "fidelity":
            args.grid = default_gain_grid(args.gain_min, args.gain_max, args.steps)
        if args.command == "classical-max":
            args.config = ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0)
        elif args.command != "figure":
            source = _SOURCE_BY_FLAG[args.source]
            H = 1.0 if args.H is None else args.H
            if args.squeezing is not None:
                H = squeezing_to_H(args.squeezing)
            if args.command == "fidelity":
                args.spec = TeleporterSpec(source, 1.0, H)
            else:
                eta = ETA_AUTO if args.scenario == "b" and args.eta is None else args.eta
                args.config = ScenarioConfig(args.scenario, source, 0.0, H, eta)
    except ValueError as exc:
        parser.error(str(exc))


def _render(args: argparse.Namespace) -> Iterable[str]:
    """Evaluate the command, then return its output lines, each ending in a newline.

    Every table is complete before this returns; only the formatting is
    left to the returned iterator, so an evaluation failure writes nothing.
    """
    if args.command in ("sweep", "lock-curve"):
        return _render_table(sweep_gain(args.config, args.grid), args)
    if args.command == "figure":
        curves = figure_curves(args.name, args.gain_min, args.gain_max, args.steps)
        return _render_curves(curves, args)
    if args.command == "classical-max":
        peak = sweep_gain(args.config, args.grid).peak()
        return _render_line(("lambda_max", "visibility_max"), (peak.gain, peak.visibility), args)
    spec = args.spec
    values = (H_to_squeezing(spec.H), spec.H, coherent_fidelity(spec))
    return _render_line(FIDELITY_HEADER, (spec.kind, *values), args)


def _write_blocks(stream: TextIO, lines: Iterable[str]) -> None:
    """Write ``lines`` in blocks of :data:`WRITE_BLOCK_LINES`."""
    lines = iter(lines)
    while block := "".join(islice(lines, WRITE_BLOCK_LINES)):
        stream.write(block)


def _render_line(header: tuple[str, ...], row: tuple, args: argparse.Namespace) -> list[str]:
    """A header line and one row; strings pass through, numbers are formatted."""
    sep = _separator(args.format)
    cells = (v if isinstance(v, str) else _fmt(v, args.precision) for v in row)
    return [sep.join(header) + "\n", sep.join(cells) + "\n"]


def _separator(fmt: str) -> str:
    return {"csv": ",", "tsv": "\t", "gnuplot": " "}[fmt]


def _fmt(value: float, precision: int) -> str:
    return format(float(value), f".{precision}g")


def _render_table(table: SweepTable, args: argparse.Namespace) -> Iterator[str]:
    sep = _separator(args.format)
    if args.format == "gnuplot":
        yield "# " + " ".join(SWEEP_HEADER) + "\n"
    else:
        yield sep.join(SWEEP_HEADER) + "\n"
    yield from _row_lines(table, sep, args.precision)


def _render_curves(
    curves: list[tuple[str, SweepTable]], args: argparse.Namespace
) -> Iterator[str]:
    if args.format == "gnuplot":
        for index, (label, table) in enumerate(curves):
            if index:
                yield "\n"
            yield f"# {label}\n"
            yield from _render_table(table, args)
        return
    sep = _separator(args.format)
    yield sep.join(("curve", *SWEEP_HEADER)) + "\n"
    for label, table in curves:
        yield from _row_lines(table, sep, args.precision, label + sep)


def _row_lines(
    table: SweepTable, sep: str, precision: int, prefix: str = ""
) -> Iterator[str]:
    """One line per row, each number as :func:`_fmt` writes it."""
    line = sep.join([f"{{:.{precision}g}}"] * 4) + "\n"
    for row in zip(table.gains, table.count_a, table.count_b, table.visibility):
        yield prefix + line.format(*row)


if __name__ == "__main__":
    sys.exit(main())
