"""Command-line front end: gain sweeps, preset figure data, fidelity reports.

All physics lives in the library modules; this layer only parses flags,
composes library calls, and formats rows. Exit codes: 0 on success, 1 on
a failure during evaluation, 2 on a usage error, 141 when the reader of
stdout closes it early.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import closing, suppress
from dataclasses import replace
from typing import Generator, NoReturn

import numpy as np

from . import scenarios
from .scenarios import ETA_AUTO, ScenarioConfig, SweepTable, default_gain_grid, sweep_gain
from .teleporter import (
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    PUMP_GAIN_MAX,
    TeleporterSpec,
    H_to_squeezing,
    coherent_fidelity,
    squeezing_to_H,
)

__all__ = ["main", "build_parser", "FIGURES"]

_SOURCE_BY_FLAG = {
    "two-mode": KIND_TWO_MODE,
    "single": KIND_SINGLE_SQUEEZER,
    "none": KIND_CLASSICAL,
}

_TWO_MODE_CURVES = tuple((f"two-mode s={s:g}", KIND_TWO_MODE, s) for s in (0.0, 0.5, 0.9))
_SOURCE_CURVES = (*_TWO_MODE_CURVES, ("single-squeezer s=0.875", KIND_SINGLE_SQUEEZER, 0.875))

# The labelled configurations behind each figure preset, each swept across
# the figure's grid (``gain`` is replaced by the grid's gains). fig3: layout
# a, fig4: layout b with per-gain optimized attenuation, both at two-mode
# squeezing 0, 0.5 and 0.9 plus the single-squeezer source at 0.875; fig5:
# layout c at the three two-mode squeezings.
FIGURES: dict[str, list[tuple[str, ScenarioConfig]]] = {
    name: [
        (label, ScenarioConfig(layout, source, 0.0, squeezing_to_H(s), eta))
        for label, source, s in curves
    ]
    for name, layout, eta, curves in (
        ("fig3", "a", None, _SOURCE_CURVES),
        ("fig4", "b", ETA_AUTO, _SOURCE_CURVES),
        ("fig5", "c", None, _TWO_MODE_CURVES),
    )
}

SWEEP_HEADER = ("lambda", "count_a", "count_b", "visibility")
FIDELITY_HEADER = ("source", "squeezing", "H", "fidelity")
_SEPARATORS = {"csv": ",", "tsv": "\t", "gnuplot": " "}


class _ArgumentParser(argparse.ArgumentParser):
    """Reads any negative number as a value: argparse alone takes ``-1e-9`` for a flag."""

    def _parse_optional(self, arg_string: str):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
    figure.add_argument("name", choices=tuple(FIGURES), help="which preset to emit")
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
    _add_source_flags(fidelity)
    _add_output_flags(fidelity)

    lock = commands.add_parser(
        "lock-curve", help="dark-port sweep of the dual-teleporter arrangement"
    )
    _add_source_flags(lock)
    _add_grid_flags(lock)
    _add_output_flags(lock)
    lock.set_defaults(scenario="c", eta=None)

    for command in commands.choices.values():
        command.set_defaults(command_parser=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Closed however the writing ends, so a table's formatting worker is reaped.
        with closing(_resolve(args.command_parser, args)) as text:
            if args.out is None:
                sys.stdout.writelines(text)
            else:
                with open(args.out, "w", encoding="ascii", newline="\n") as handle:
                    handle.writelines(text)
    except Exception as exc:  # noqa: BLE001 - map any evaluation failure to exit 1
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # The reader stopped early, as ``head`` does: exit as SIGPIPE stops a filter,
            # with the interpreter's last flush sent to devnull (if stdout has a descriptor).
            with suppress(OSError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return 141
        print(f"mzteleport: error: {exc}", file=sys.stderr)
        return 1
    return 0


def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", choices=("a", "b", "c"), default="a")
    _add_source_flags(sub)
    sub.add_argument(
        "--eta",
        type=_eta_flag,
        default=None,
        help="attenuator transmission for scenario b: 'auto' or a value in [0, 1]",
    )


def _add_source_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--source", choices=sorted(_SOURCE_BY_FLAG), default="two-mode")
    group = sub.add_mutually_exclusive_group()
    group.add_argument(
        "--squeezing",
        type=float,
        default=None,
        help="squeezing fraction in [0, 1); defaults to 0 when --H is absent",
    )
    group.add_argument("--H", type=float, default=None, help=f"pump gain, 1 to {PUMP_GAIN_MAX:g}")


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


def _resolve(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> Generator[str, None, None]:
    """Check the command's values, evaluate them, and return their text.

    Every configuration is built once over its whole grid, which the
    library checks at its ends. The library checks every range, so the
    command line accepts exactly what the library accepts; a value it
    rejects is a usage error, as is a precision the formatter rejects,
    reported through ``parser``, the command's own. Every table is
    evaluated before this returns, so an evaluation failure writes nothing.
    """
    if args.precision < 1:
        parser.error(f"--precision must be >= 1, got {args.precision}")
    try:
        _cell_format(args) % 0.0
        if args.command == "fidelity":
            spec = TeleporterSpec(_SOURCE_BY_FLAG[args.source], 1.0, _pump_gain(args))
        else:
            grid = default_gain_grid(args.gain_min, args.gain_max, args.steps)
            if args.command == "classical-max":
                curves = [(None, ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0))]
            elif args.command == "figure":
                curves = FIGURES[args.name]
            else:
                eta = ETA_AUTO if args.scenario == "b" and args.eta is None else args.eta
                source, pump = _SOURCE_BY_FLAG[args.source], _pump_gain(args)
                curves = [(None, ScenarioConfig(args.scenario, source, 0.0, pump, eta))]
            for _, config in curves:
                replace(config, gain=grid)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "fidelity":
        row = (spec.kind, H_to_squeezing(spec.H), spec.H, coherent_fidelity(spec))
        return _render_line(FIDELITY_HEADER, row, args)
    if args.command == "classical-max":
        table = sweep_gain(curves[0][1], grid)
        best = table.peak()
        peak = (table.gains[best], table.visibility[best])
        return _render_line(("lambda_max", "visibility_max"), peak, args)
    return _render_tables([(label, sweep_gain(config, grid)) for label, config in curves], args)


def _pump_gain(args: argparse.Namespace) -> float:
    if args.squeezing is not None:
        return squeezing_to_H(args.squeezing)
    return 1.0 if args.H is None else args.H


def _cell_format(args: argparse.Namespace) -> str:
    """``%`` format of one cell: ``args.precision`` significant digits, as ``format``'s ``g``."""
    return f"%.{args.precision}g"


def _render_line(
    header: tuple[str, ...], row: tuple, args: argparse.Namespace
) -> Generator[str, None, None]:
    """A header line and one row, as one piece; strings pass through, numbers are formatted."""
    sep = _SEPARATORS[args.format]
    cell = _cell_format(args)
    cells = sep.join(v if isinstance(v, str) else cell % float(v) for v in row)
    yield sep.join(header) + "\n" + cells + "\n"


def _render_tables(
    tables: list[tuple[str | None, SweepTable]], args: argparse.Namespace
) -> Generator[str, None, None]:
    """Sweep tables as text: a figure's curves are labelled, a sweep's one curve is not.

    csv and tsv put every curve under one header, with a leading ``curve``
    column when labelled; gnuplot gives each curve its own commented
    block, separated by blank lines. Rows come in the sweep's blocks of
    :data:`scenarios.SWEEP_BLOCK`, each one ``%``-format call and one write,
    which carries the header or comment lines that precede it.

    When the tables hold more than one block of rows and this process may
    run on more than one CPU, a forked worker formats every other block and
    sends each back through a pipe, in step with this process, which
    formats the others: each process holds at most one block's text. The
    worker is reaped when the text ends or the caller closes it early; one
    that fails raises a ``RuntimeError`` naming it, after the blocks before
    its failure were produced.
    """
    sep = _SEPARATORS[args.format]
    header = sep.join(SWEEP_HEADER) + "\n"
    line = sep.join([_cell_format(args)] * 4) + "\n"
    gnuplot = args.format == "gnuplot"
    # Each block of rows as the (lead, row format, columns, slice) that
    # _format_block formats, where lead is the text that precedes its rows.
    blocks = []
    lead = "" if gnuplot else header if tables[0][0] is None else "curve" + sep + header
    for index, (label, table) in enumerate(tables):
        prefix = ""
        if gnuplot:
            comment = "" if label is None else f"# {label}\n"
            lead = ("\n" if index else "") + comment + "# " + header
        elif label is not None:
            prefix = label.replace("%", "%%") + sep
        columns = (table.gains, table.count_a, table.count_b, table.visibility)
        for start in range(0, len(table.gains), scenarios.SWEEP_BLOCK):
            block = slice(start, start + scenarios.SWEEP_BLOCK)
            blocks.append((lead, prefix + line, columns, block))
            lead = ""
    rows = sum(len(table.gains) for _, table in tables)
    affinity = getattr(os, "sched_getaffinity", None)
    if rows <= scenarios.SWEEP_BLOCK or affinity is None or len(affinity(0)) < 2:
        for block in blocks:
            yield _format_block(*block)
        return
    # numpy's OpenBLAS joins its thread pool in its fork handler, so both processes leave
    # the fork with one thread, none for Python 3.12 to warn of; the worker makes no BLAS call.
    read_end, write_end = os.pipe()
    pid = os.fork()
    if not pid:
        _format_worker(blocks[1::2], read_end, write_end)
    os.close(write_end)
    pipe = open(read_end, "rb")
    try:
        for index, block in enumerate(blocks):
            if not index % 2:
                yield _format_block(*block)
                continue
            size = pipe.read(8)
            length = int.from_bytes(size, "little")
            text = pipe.read(length)
            if len(size) < 8 or len(text) < length:
                raise RuntimeError(f"table formatting worker {pid} sent a short block")
            yield text.decode("utf-8")
    finally:
        pipe.close()
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status:
        raise RuntimeError(f"table formatting worker {pid} exited with status {status}")


def _format_block(lead: str, line: str, columns: tuple[np.ndarray, ...], block: slice) -> str:
    """``lead``, then one block of rows, each ``line`` formatted with its row's four cells."""
    # The block's rows as a flat tuple of Python floats, row by row, for one
    # format of all its lines; a stack of the whole table would hold a
    # second copy of it. lead stays out of the format: a label may hold a %.
    rows = np.column_stack([column[block] for column in columns])
    return lead + line * len(rows) % tuple(rows.ravel().tolist())


def _format_worker(blocks: list, read_end: int, write_end: int) -> NoReturn:
    """A forked worker's whole life: format ``blocks`` and send each, length first.

    It never returns into its caller and flushes nothing it inherited, so no
    cleanup of the parent's (a buffered stdout, a test's teardown) runs twice.
    """
    status = 1
    try:
        os.close(read_end)
        with open(write_end, "wb") as pipe:
            for block in blocks:
                text = _format_block(*block).encode("utf-8")
                pipe.write(len(text).to_bytes(8, "little") + text)
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


if __name__ == "__main__":
    sys.exit(main())
