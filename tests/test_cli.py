"""Command-line behavior: formats, determinism, round-trips, exit codes."""

from __future__ import annotations

import argparse
import hashlib
import io
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzteleport import (
    ETA_AUTO,
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    H_to_squeezing,
    ScenarioConfig,
    SweepTable,
    cli,
    default_gain_grid,
    scenarios,
    squeezing_to_H,
    sweep_gain,
)
from mzteleport.cli import FIGURES, main
from mzteleport.scenarios import MAX_GRID_STEPS
from mzteleport.teleporter import GAIN_MAX, PUMP_GAIN_MAX

SWEEP_HEADER = "lambda,count_a,count_b,visibility"
# The first float above each bound of the admitted domain, as typed.
PAST_GAIN_MAX = repr(math.nextafter(GAIN_MAX, math.inf))
PAST_PUMP_GAIN_MAX = repr(math.nextafter(PUMP_GAIN_MAX, math.inf))


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made while the test runs: the pid of each caller."""
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def on_cpus(patch, count):
    """Let the affinity check that chooses the table's render path see ``count`` CPUs."""
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


class TestSweepCommand:
    def test_default_sweep_shape(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--source", "none"])
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 302

    def test_deterministic_output(self, capsys):
        argv = ["sweep", "--scenario", "b", "--squeezing", "0.5", "--eta", "auto"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_round_trip_at_default_precision(self, capsys):
        argv = ["sweep", "--squeezing", "0.5", "--steps", "11"]
        _, out, _ = run_cli(capsys, argv)
        table = sweep_gain(
            ScenarioConfig("a", KIND_TWO_MODE, 0.0, 1.125),
            default_gain_grid(0.0, 1.5, 11),
        )
        for line, row in zip(out.splitlines()[1:], table.rows):
            values = [float(token) for token in line.split(",")]
            for parsed, source in zip(values, row):
                assert parsed == pytest.approx(source, rel=1e-11)

    def test_round_trip_exact_at_precision_17(self, capsys):
        argv = ["sweep", "--squeezing", "0.5", "--steps", "7", "--precision", "17"]
        _, out, _ = run_cli(capsys, argv)
        table = sweep_gain(
            ScenarioConfig("a", KIND_TWO_MODE, 0.0, 1.125),
            default_gain_grid(0.0, 1.5, 7),
        )
        for line, row in zip(out.splitlines()[1:], table.rows):
            values = [float(token) for token in line.split(",")]
            assert values == list(row)

    def test_balanced_row_with_auto_eta(self, capsys):
        argv = [
            "sweep",
            "--scenario",
            "b",
            "--squeezing",
            "0.5",
            "--gain-min",
            "0.3333333333333333",
            "--gain-max",
            "1.5",
            "--steps",
            "2",
        ]
        _, out, _ = run_cli(capsys, argv)
        first_row = out.splitlines()[1].split(",")
        assert float(first_row[2]) <= 1e-12
        assert float(first_row[3]) == 1.0

    def test_tsv_and_gnuplot_formats(self, capsys):
        _, tsv, _ = run_cli(capsys, ["sweep", "--steps", "3", "--format", "tsv"])
        assert tsv.splitlines()[0] == "lambda\tcount_a\tcount_b\tvisibility"
        _, gp, _ = run_cli(capsys, ["sweep", "--steps", "3", "--format", "gnuplot"])
        lines = gp.splitlines()
        assert lines[0] == "# lambda count_a count_b visibility"
        assert len(lines[1].split()) == 4

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, ["sweep", "--steps", "3", "--out", str(path)])
        assert code == 0
        assert out == ""
        content = path.read_text()
        assert content.splitlines()[0] == SWEEP_HEADER
        assert len(content.splitlines()) == 4

    def test_evaluation_failure_writes_nothing(self, capsys, monkeypatch, tmp_path):
        # The second of fig3's four curves fails after the first completed:
        # every table completes before any text, so nothing is written.
        calls = []

        def failing_sweep(config, grid):
            calls.append(config)
            if len(calls) == 2:
                raise RuntimeError("evaluation failed")
            return sweep_gain(config, grid)

        monkeypatch.setattr(cli, "sweep_gain", failing_sweep)
        path = tmp_path / "fig3.csv"
        code, out, err = run_cli(capsys, ["figure", "fig3", "--steps", "3", "--out", str(path)])
        assert code == 1
        assert out == ""
        assert err == "mzteleport: error: evaluation failed\n"
        assert not path.exists()
        assert len(calls) == 2

    @pytest.mark.parametrize("command", ["sweep", "lock-curve", "figure", "classical-max"])
    def test_gain_past_the_grid_end_writes_nothing(self, capsys, tmp_path, command):
        # Only the last gain leaves the admitted domain: the configuration
        # built at the grid's last gain rejects it before any evaluation.
        path = tmp_path / "table.csv"
        argv = [command, "--gain-max", PAST_GAIN_MAX, "--steps", "2", "--out", str(path)]
        if command == "figure":
            argv.insert(1, "fig5")
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"must be >= 0 and <= {GAIN_MAX!r}" in captured.err
        assert not path.exists()

    def test_output_is_written_in_blocks(self, capsys, monkeypatch, forks):
        class Recorder(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        def written(argv):
            stream = Recorder()
            with redirect_stdout(stream):
                assert main(argv) == 0
            return stream.getvalue(), stream.writes

        # One constant sets the gains per network build and the rows per write:
        # at every block size, on one CPU or two, the bytes are the default run's.
        # Every write is one block, which carries the header or comment lines
        # before it: a sweep makes ceil(5 / block) writes, fig3's four curves
        # four times as many, and a one-line report one write.
        # A worker formats every other block exactly when the rows (5 for the
        # sweep, 20 for the figure) exceed one block and two CPUs are seen.
        sweep = ["sweep", "--steps", "5", "--format"]
        figure = ["figure", "fig3", "--steps", "5", "--format"]
        for fmt in ("csv", "tsv", "gnuplot"):
            with monkeypatch.context() as patch:
                on_cpus(patch, 2)
                expected = [written(argv + [fmt])[0] for argv in (sweep, figure)]
            assert not forks
            for block in (1, 2, 3):
                for cpus in (1, 2):
                    with monkeypatch.context() as patch:
                        patch.setattr(scenarios, "SWEEP_BLOCK", block)
                        on_cpus(patch, cpus)
                        writes = math.ceil(5 / block)
                        assert written(sweep + [fmt]) == (expected[0], writes)
                        assert written(figure + [fmt]) == (expected[1], 4 * writes)
                    assert len(forks) == (2 if cpus == 2 else 0)
                    forks.clear()
            for argv in (["fidelity"], ["classical-max", "--steps", "5"]):
                assert written(argv + ["--format", fmt])[1] == 1
        assert capsys.readouterr() == ("", "")


class TestRenderTables:
    # Values no sweep prints, which a cell must still render as ``format`` does.
    EXTREMES = SweepTable(
        np.array([0.0, 5e-324, 1.0, math.inf]),
        np.array([-0.0, 1e300, 0.1, 2.5]),
        np.array([math.inf, -math.inf, 1 / 3, 0.0]),
        np.array([math.nan, -0.0, -1e-300, 123456789.0]),
    )

    @pytest.mark.parametrize("precision", [1, 12, 17])
    @pytest.mark.parametrize("fmt", ["csv", "tsv", "gnuplot"])
    def test_every_cell_is_format_g(self, monkeypatch, forks, fmt, precision):
        dark = sweep_gain(ScenarioConfig("c", KIND_TWO_MODE, 0.0, 1.0), default_gain_grid(0, 1, 7))
        assert math.isnan(dark.visibility[0])  # layout c at s = 0 and gain 0
        tables = [("two-mode s=0", dark), ("extremes 100%", self.EXTREMES)]
        args = argparse.Namespace(format=fmt, precision=precision)
        # Blocks of 1, 2 and 3 rows: the 7-row curve crosses six, three and two
        # block boundaries, the 4-row one three, one and one. Every size gives
        # one text, formatted in one process or, with two CPUs, in two.
        texts = set()
        for block in (1, 2, 3):
            for cpus in (1, 2):
                monkeypatch.setattr(scenarios, "SWEEP_BLOCK", block)
                on_cpus(monkeypatch, cpus)
                texts.add("".join(cli._render_tables(tables, args)))
        (text,) = texts
        assert len(forks) == 3

        # csv and tsv lead each row with its curve's label; gnuplot puts it in a comment.
        expected = [
            ([] if fmt == "gnuplot" else [label]) + [format(x, f".{precision}g") for x in row]
            for label, table in tables
            for row in table.rows
        ]
        lines = text.splitlines()[1:]  # past the csv or tsv header, or a gnuplot comment
        rows = [line.split(cli._SEPARATORS[fmt]) for line in lines if line and line[0] != "#"]
        assert rows == expected

    def test_worker_failure_and_early_close_reap_the_worker(self, capsys, monkeypatch, forks):
        on_cpus(monkeypatch, 2)
        monkeypatch.setattr(scenarios, "SWEEP_BLOCK", 2)
        argv = ["sweep", "--steps", "5"]
        full = run_cli(capsys, argv)[1]
        assert len(forks) == 1
        # The warnings a fork in a threaded process raises (Python 3.12) are errors here.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(capsys, argv) == (0, full, "")

        # Formatting fails in the worker only: main exits 1 and names it, after
        # the blocks before the worker's first were written.
        format_block, parent = cli._format_block, os.getpid()

        def failing_in_worker(*block):
            if os.getpid() != parent:
                raise RuntimeError("formatting failed")
            return format_block(*block)

        monkeypatch.setattr(cli, "_format_block", failing_in_worker)
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert err.startswith("mzteleport: error: table formatting worker ")
        assert err.endswith(" sent a short block\n")
        assert full.startswith(out) and out.count("\n") == 1 + 2

        # A consumer that stops after the first piece, the header and the first
        # block's rows, closes the text; the worker, still sending its 1000
        # blocks, is reaped all the same.
        grid = default_gain_grid(0.0, 1.5, 4001)
        table = SweepTable(grid, grid, grid, grid)
        pieces = cli._render_tables([(None, table)], argparse.Namespace(format="csv", precision=12))
        rows = "".join(",".join([format(gain, ".12g")] * 4) + "\n" for gain in grid[:2])
        assert next(pieces) == SWEEP_HEADER + "\n" + rows
        pieces.close()
        assert len(forks) == 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "cut, status, message, lines",
        [(1, 0, "sent a short block", 1 + 2), (0, 1, "exited with status 1", 1 + 4)],
    )
    def test_worker_that_fails_quietly_is_named(
        self, capsys, monkeypatch, forks, cut, status, message, lines
    ):
        # The worker formats the second and last of two blocks, and sends it
        # one byte short and exits 0, or sends it whole and exits 1: only the
        # parent's length check sees the first, only its status check the second.
        def worker(blocks, read_end, write_end):
            try:
                (block,) = blocks
                text = cli._format_block(*block).encode("utf-8")
                os.write(write_end, len(text).to_bytes(8, "little") + text[: len(text) - cut])
            finally:
                os._exit(status)

        monkeypatch.setattr(scenarios, "SWEEP_BLOCK", 2)
        argv = ["sweep", "--steps", "4"]
        on_cpus(monkeypatch, 1)
        full = run_cli(capsys, argv)[1]
        on_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_format_worker", worker)
        code, out, err = run_cli(capsys, argv)
        assert len(forks) == 1
        assert code == 1
        assert err.startswith("mzteleport: error: table formatting worker ")
        assert err.endswith(f" {message}\n")
        assert full.startswith(out) and out.count("\n") == lines

    def test_reader_that_stops_early_leaves_no_process(self):
        # A 100001-point sweep on two CPUs, in a session of its own, whose
        # reader closes after its header: it exits quietly with the status of
        # a filter that SIGPIPE stopped, and no member of its process group,
        # such as its formatting worker, is left.
        script = (
            "import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from mzteleport.cli import main; sys.exit(main())"
        )
        argv = [sys.executable, "-c", script, "sweep", "--steps", "100001"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True
        ) as proc:
            assert proc.stdout.readline() == (SWEEP_HEADER + "\n").encode()
            proc.stdout.close()
            proc.wait(timeout=60)
            assert proc.stderr.read() == b""
        assert proc.returncode == 141
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


class TestFigureCommand:
    def test_fig3_curve_labels(self, capsys):
        _, out, _ = run_cli(capsys, ["figure", "fig3", "--steps", "4"])
        lines = out.splitlines()
        assert lines[0] == "curve," + SWEEP_HEADER
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {
            "two-mode s=0",
            "two-mode s=0.5",
            "two-mode s=0.9",
            "single-squeezer s=0.875",
        }
        assert len(lines) == 1 + 4 * 4

    def test_fig5_classical_curve_is_flat(self):
        flat = sweep_gain(dict(FIGURES["fig5"])["two-mode s=0"], default_gain_grid(0.0, 1.5, 16))
        for row in flat.rows[1:]:
            assert row.visibility == pytest.approx(0.2, abs=1e-12)

    def test_fig4_unit_visibility_at_balanced_gain(self):
        config = dict(FIGURES["fig4"])["two-mode s=0.5"]
        balanced = sweep_gain(config, default_gain_grid(1 / 3, 1.5, 2)).rows[0]
        assert balanced.gain == 1 / 3
        assert balanced.visibility == 1.0

    def test_figure_is_pure_composition(self, capsys):
        # The printed preset must equal direct library sweeps, row for row.
        _, out, _ = run_cli(capsys, ["figure", "fig5", "--steps", "16", "--precision", "17"])
        printed = [line.split(",") for line in out.splitlines()[1:]]
        grid = default_gain_grid(0.0, 1.5, 16)
        expected = [
            [f"two-mode s={s:g}", *map(repr, row)]
            for s in (0.0, 0.5, 0.9)
            for config in [ScenarioConfig("c", KIND_TWO_MODE, 0.0, squeezing_to_H(s))]
            for row in sweep_gain(config, grid).rows
        ]
        assert [[label, *map(repr, map(float, row))] for label, *row in printed] == expected

    def test_figure_tables_share_one_grid(self, monkeypatch, capsys):
        tables = []

        def recording_sweep(config, grid):
            tables.append(sweep_gain(config, grid))
            return tables[-1]

        monkeypatch.setattr(cli, "sweep_gain", recording_sweep)
        code, _, _ = run_cli(capsys, ["figure", "fig3", "--steps", "5"])
        assert code == 0
        assert len(tables) == 4
        for table in tables[1:]:
            assert np.shares_memory(table.gains, tables[0].gains)

    def test_gnuplot_blocks(self, capsys):
        _, out, _ = run_cli(capsys, ["figure", "fig5", "--steps", "3", "--format", "gnuplot"])
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 3
        assert blocks[0].splitlines()[0] == "# two-mode s=0"
        assert blocks[1].splitlines()[0] == "# two-mode s=0.5"

    def test_unknown_figure_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure", "fig9"])
        assert excinfo.value.code == 2


class TestFidelityCommand:
    def test_two_mode_half_squeezing_line(self, capsys):
        _, out, _ = run_cli(capsys, ["fidelity", "--source", "two-mode", "--squeezing", "0.5"])
        lines = out.splitlines()
        assert lines[0] == "source,squeezing,H,fidelity"
        assert lines[1] == "two-mode,0.5,1.125,0.666666666667"

    def test_classical_bound(self, capsys):
        _, out, _ = run_cli(capsys, ["fidelity", "--source", "none"])
        assert out.splitlines()[1] == "classical,0,1,0.5"

    def test_single_squeezer(self, capsys):
        _, out, _ = run_cli(capsys, ["fidelity", "--source", "single", "--squeezing", "0.875"])
        fields = out.splitlines()[1].split(",")
        assert fields[0] == "single-squeezer"
        assert float(fields[3]) == pytest.approx(2.0 / math.sqrt(8.5), rel=1e-11)

    def test_prints_the_squeezing_the_pump_gain_holds(self, capsys):
        # squeezing_to_H cannot carry s = 1e-5 to 17 digits; the line reports H_to_squeezing(H).
        _, out, _ = run_cli(capsys, ["fidelity", "--squeezing", "1e-5", "--precision", "17"])
        fields = out.splitlines()[1].split(",")
        H = squeezing_to_H(1e-5)
        assert fields[1:3] == [format(H_to_squeezing(H), ".17g"), format(H, ".17g")]
        assert fields[1] == "9.9999948219853252e-06"


class TestOutputDigests:
    """Guard the CLI's bytes: sha256 of stdout, recorded before the change that added it.

    Regenerate a digest with ``hashlib.sha256(stdout.encode()).hexdigest()``
    of ``cli.main(argv)``'s output. A new digest means new output digits;
    every intended change of digits must be explained in CHANGES.md.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["figure", "fig3", "--format", "csv"],
             "46d5eb8beb4fa5c6925a14a873d86adf2e98af2add27b5f8c2195dbd60c4de3c"),
            (["figure", "fig4", "--format", "csv"],
             "2df728a926577334c466f8d77e1b8aea42c3264c8b7853da0bdeec62162e30cd"),
            (["figure", "fig5", "--format", "csv"],
             "c3aa3a63c174854f13d904bbdbeaa1fc2d78eb4bb58dbab755cfa5cc40a24ac4"),
            (["fidelity", "--source", "two-mode", "--squeezing", "0.5"],
             "226b4cda56b45e3fcb100681b5993ed74f51cc7120581976f0cae334902a8d25"),
            (["fidelity", "--source", "single", "--squeezing", "0.875"],
             "3f85805cca803d960f07ad8f1923fec6a71e91a3542418eb3e326c82104395cd"),
            (["fidelity", "--source", "none"],
             "b0aed4787358d73e1db28087a436161584ef5b4c565148719550d669ee184622"),
            (["sweep"],
             "ce98ef26b947c1fd3e9896328c75e459006ec0e0ba91a40d1afae026fc7402f2"),
            (["sweep", "--scenario", "b", "--eta", "auto", "--source", "single",
              "--squeezing", "0.875"],
             "01b938753fe8579e9d681df1e47466d78d168c65c44f349fc7d29a095badef9c"),
            (["lock-curve", "--squeezing", "0.5"],
             "c4293aebc24cd5b50f5531e083d2a13a71c401a640ed12650ac36d4a93bdbbe1"),
            (["classical-max"],
             "e0ea2c9704e93fbd017391de8e2dac872e8a85d189edf13da374788a483aa93b"),
            (["figure", "fig5", "--format", "gnuplot"],
             "2d3ce2b5950ab19bffb6986c8a6a9312f4e2bd50e736c0ad5977880397e4a388"),
            (["figure", "fig4", "--format", "tsv"],
             "94f832b28d04a29b2f4a3a90c19ddfec205de9e9d27a20013a0e11bb3684f152"),
            (["sweep", "--scenario", "b", "--eta", "0", "--squeezing", "0.5"],
             "a8a23da2e2509e13a3860018991cd54cbf3ee2afd0dc5e46ba7f1658058d53ec"),
            (["sweep", "--scenario", "b", "--eta", "1", "--squeezing", "0.5"],
             "4f7386dd3923ae00d7a8e866efe26b6d1d40ce46e3c6b89846b9d971c5a6e108"),
        ],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOtherCommands:
    def test_classical_max(self, capsys):
        _, out, _ = run_cli(capsys, ["classical-max"])
        lines = out.splitlines()
        assert lines[0] == "lambda_max,visibility_max"
        gain, vis = (float(token) for token in lines[1].split(","))
        assert gain == pytest.approx(1.0 / math.sqrt(5.0), abs=5e-3)
        assert vis == pytest.approx(1.0 / math.sqrt(5.0), abs=5e-4)

    def test_lock_curve_is_scenario_c(self, capsys):
        _, out, _ = run_cli(
            capsys,
            ["lock-curve", "--source", "none", "--gain-min", "0.5", "--gain-max", "1.5",
             "--steps", "3"],
        )
        lines = out.splitlines()
        assert lines[0] == SWEEP_HEADER
        for line in lines[1:]:
            assert float(line.split(",")[3]) == pytest.approx(0.2, abs=1e-12)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--squeezing", "0.5", "--H", "1.125"],
            ["sweep", "--squeezing", "1.0"],
            ["sweep", "--H", "0.5"],
            ["sweep", "--eta", "0.5"],
            ["sweep", "--scenario", "b", "--eta", "1.7"],
            ["sweep", "--scenario", "b", "--eta", "half"],
            ["sweep", "--source", "none", "--squeezing", "0.5"],
            ["sweep", "--gain-min", "1.0", "--gain-max", "0.5"],
            ["sweep", "--steps", "1"],
            ["sweep", "--precision", "0"],
            ["sweep", "--H", "inf"],
            ["sweep", "--H", "nan"],
            ["fidelity", "--H", "nan"],
            ["lock-curve", "--H", "inf"],
            ["sweep", "--gain-max", "inf"],
            ["sweep", "--gain-min", "nan"],
            ["figure", "fig3", "--gain-min", "-inf"],
            ["classical-max", "--gain-max", "nan"],
            ["sweep", "--steps", "2000000"],
            ["sweep", "--scenario", "b", "--eta", "inf"],
            ["sweep", "--scenario", "b", "--eta", "nan"],
            ["sweep", "--H", "1e400"],
            ["sweep", "--gain-min=-1e308", "--gain-max", "1e308"],
            ["sweep", "--gain-min", "1", "--gain-max", "1.000000000000001", "--steps", "100"],
            ["unknown-command"],
            # A negative first gain is rejected by the configuration built at it.
            ["sweep", "--gain-min", "-0.5"],
            ["lock-curve", "--gain-min", "-0.5"],
            ["classical-max", "--gain-min=-1e-9"],
            ["figure", "fig4", "--gain-min", "-0.5"],
            # Above the formatter's limit: rejected before any table is evaluated.
            ["sweep", "--precision", "2147483648"],
            # Negative numbers argparse alone would read as flags.
            ["classical-max", "--gain-min", "-1e-9"],
            ["sweep", "--gain-min", "-inf"],
            ["lock-curve", "--gain-min", "-1E+3", "--gain-max", "-1e-3"],
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        # Every value reaches the library's checks; none is taken for a flag.
        assert "expected one argument" not in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--H", "0.5"],
            ["sweep", "--precision", "0"],
            ["fidelity", "--H", "nan"],
            ["classical-max", "--gain-min", "-1e-9"],
            # Just past the admitted domain, and well past it.
            ["sweep", "--gain-max", PAST_GAIN_MAX, "--steps", "2"],
            ["sweep", "--H", PAST_PUMP_GAIN_MAX],
            ["fidelity", "--H", PAST_PUMP_GAIN_MAX],
            ["sweep", "--gain-max", "1e200", "--steps", "2"],
            ["sweep", "--H", "1e101"],
        ],
    )
    def test_library_rejection_prints_the_command_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: mzteleport {argv[0]} ")

    # None omits the flag; the rest mixes plausible values with any float.
    _values = st.one_of(
        st.none(),
        st.sampled_from((0.0, 0.5, 1.0, 1.5, math.nan, math.inf)),
        st.floats(),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        scenario=st.sampled_from(("a", "b", "c")),
        source=st.sampled_from(("two-mode", "single", "none")),
        pump=st.tuples(st.sampled_from(("--H", "--squeezing")), _values),
        eta=st.one_of(st.none(), st.just(ETA_AUTO), _values),
        gain_min=_values,
        gain_max=_values,
        # Valid step counts first: hypothesis draws early elements more often.
        steps=st.sampled_from((2, 3, 1, MAX_GRID_STEPS + 1)),
    )
    def test_exit_2_exactly_when_library_rejects(
        self, scenario, source, pump, eta, gain_min, gain_max, steps
    ):
        flags = {"--gain-min": gain_min, "--gain-max": gain_max, pump[0]: pump[1], "--eta": eta}
        argv = ["sweep", f"--scenario={scenario}", f"--source={source}", f"--steps={steps}"]
        argv += [f"{flag}={value}" for flag, value in flags.items() if value is not None]
        kind = {"two-mode": KIND_TWO_MODE, "single": KIND_SINGLE_SQUEEZER, "none": KIND_CLASSICAL}
        try:
            grid = default_gain_grid(
                0.0 if gain_min is None else gain_min, 1.5 if gain_max is None else gain_max, steps
            )
            H = 1.0
            if pump[1] is not None:
                H = squeezing_to_H(pump[1]) if pump[0] == "--squeezing" else pump[1]
            if scenario == "b" and eta is None:
                eta = ETA_AUTO
            for end in (grid[0], grid[-1]):
                ScenarioConfig(scenario, kind[source], float(end), H, eta)
            rejected = False
        except ValueError:
            rejected = True
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert (code == 2) == rejected
        if rejected:
            assert out.getvalue() == ""
            assert "usage:" in err.getvalue()
