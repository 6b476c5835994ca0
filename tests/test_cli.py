"""Command-line behavior: formats, determinism, round-trips, exit codes."""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzteleport import (
    ETA_AUTO,
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    ScenarioConfig,
    default_gain_grid,
    squeezing_to_H,
    sweep_gain,
)
from mzteleport.cli import WRITE_BLOCK_LINES, _write_blocks, figure_curves, main
from mzteleport.scenarios import MAX_GRID_STEPS

SWEEP_HEADER = "lambda,count_a,count_b,visibility"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_evaluation_failure_writes_nothing(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        argv = ["sweep", "--gain-max", "1e200", "--steps", "2", "--out", str(path)]
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err == "mzteleport: error: a photon count overflowed at gain 1e+200\n"
        assert not path.exists()

    def test_output_is_written_in_blocks(self):
        class Recorder:
            def __init__(self):
                self.writes = []

            def write(self, text):
                self.writes.append(text)

        lines = [f"{k}\n" for k in range(2 * WRITE_BLOCK_LINES + 1)]
        stream = Recorder()
        _write_blocks(stream, iter(lines))
        assert len(stream.writes) == 3
        assert "".join(stream.writes) == "".join(lines)


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
        curves = dict(figure_curves("fig5", 0.0, 1.5, 16))
        flat = curves["two-mode s=0"]
        for row in flat.rows[1:]:
            assert row.visibility == pytest.approx(0.2, abs=1e-12)

    def test_fig4_unit_visibility_at_balanced_gain(self):
        curves = dict(figure_curves("fig4", 1 / 3, 1.5, 2))
        balanced = curves["two-mode s=0.5"].rows[0]
        assert balanced.gain == 1 / 3
        assert balanced.visibility == 1.0

    def test_figure_is_pure_composition(self):
        # The preset must equal a direct library sweep, row for row.
        curves = dict(figure_curves("fig5", 0.0, 1.5, 16))
        direct = sweep_gain(
            ScenarioConfig("c", KIND_TWO_MODE, 0.0, 1.125),
            default_gain_grid(0.0, 1.5, 16),
        )
        assert curves["two-mode s=0.5"].rows == direct.rows

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
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err

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
            default_gain_grid(
                0.0 if gain_min is None else gain_min, 1.5 if gain_max is None else gain_max, steps
            )
            H = 1.0
            if pump[1] is not None:
                H = squeezing_to_H(pump[1]) if pump[0] == "--squeezing" else pump[1]
            if scenario == "b" and eta is None:
                eta = ETA_AUTO
            ScenarioConfig(scenario, kind[source], 0.0, H, eta)
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
