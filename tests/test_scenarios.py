"""Network layouts against closed forms, attenuation balancing, and sweeps."""

from __future__ import annotations

import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzteleport import (
    ETA_AUTO,
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    QubitInput,
    ScenarioConfig,
    SweepRow,
    SweepTable,
    build_scenario,
    commutator,
    default_gain_grid,
    evaluate_counts,
    optimal_gain,
    optimize_eta,
    port_count,
    reference_counts,
    squeezing_to_H,
    sweep_gain,
    visibility,
)
from mzteleport.scenarios import MAX_GRID_STEPS

GAIN_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
SQUEEZING_GRID = [0.0, 0.5, 0.9]


class TestConfigValidation:
    def test_rejects_unknown_layout_and_source(self):
        with pytest.raises(ValueError, match="layout"):
            ScenarioConfig("d", KIND_TWO_MODE, 1.0, 1.125)
        with pytest.raises(ValueError, match="source"):
            ScenarioConfig("a", "epr", 1.0, 1.125)

    def test_eta_presence_rules(self):
        with pytest.raises(ValueError, match="eta"):
            ScenarioConfig("b", KIND_TWO_MODE, 1.0, 1.125)
        with pytest.raises(ValueError, match="eta must be None"):
            ScenarioConfig("a", KIND_TWO_MODE, 1.0, 1.125, 0.5)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            ScenarioConfig("b", KIND_TWO_MODE, 1.0, 1.125, 1.5)
        ScenarioConfig("b", KIND_TWO_MODE, 1.0, 1.125, ETA_AUTO)

    def test_rejects_nan_gain_and_pump(self):
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioConfig("a", KIND_TWO_MODE, math.nan, 1.125)
        with pytest.raises(ValueError, match=">= 1"):
            ScenarioConfig("a", KIND_TWO_MODE, 1.0, math.nan)
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioConfig("a", KIND_TWO_MODE, math.inf, 1.125)
        with pytest.raises(ValueError, match=">= 1"):
            ScenarioConfig("a", KIND_TWO_MODE, 1.0, math.inf)

    def test_classical_requires_unit_pump(self):
        with pytest.raises(ValueError, match="H = 1"):
            ScenarioConfig("a", KIND_CLASSICAL, 1.0, 1.125)

    def test_resolved_eta(self):
        fixed = ScenarioConfig("b", KIND_TWO_MODE, 0.5, 1.125, 0.7)
        assert fixed.resolved_eta() == 0.7
        auto = ScenarioConfig("b", KIND_TWO_MODE, 0.5, 1.125, ETA_AUTO)
        assert auto.resolved_eta() == optimize_eta(0.5, 1.125)
        assert ScenarioConfig("a", KIND_TWO_MODE, 0.5, 1.125).resolved_eta() is None


class TestNetworkAgainstClosedForms:
    @pytest.mark.parametrize("gain", GAIN_GRID)
    @pytest.mark.parametrize("s", SQUEEZING_GRID)
    @pytest.mark.parametrize("layout", ["a", "c"])
    def test_two_mode_layouts(self, gain, s, layout):
        config = ScenarioConfig(layout, KIND_TWO_MODE, gain, squeezing_to_H(s))
        network = evaluate_counts(config)
        reference = reference_counts(config)
        assert network.count_a == pytest.approx(reference.count_a, abs=1e-9)
        assert network.count_b == pytest.approx(reference.count_b, abs=1e-9)

    @pytest.mark.parametrize("gain", GAIN_GRID)
    @pytest.mark.parametrize("s", SQUEEZING_GRID)
    @pytest.mark.parametrize("eta", [ETA_AUTO, 0.3, 1.0])
    def test_balanced_layout(self, gain, s, eta):
        config = ScenarioConfig("b", KIND_TWO_MODE, gain, squeezing_to_H(s), eta)
        network = evaluate_counts(config)
        reference = reference_counts(config)
        assert network.count_a == pytest.approx(reference.count_a, abs=1e-9)
        assert network.count_b == pytest.approx(reference.count_b, abs=1e-9)

    @pytest.mark.parametrize("gain", GAIN_GRID)
    @pytest.mark.parametrize("s", [0.5, 0.875])
    def test_single_squeezer_layout_a(self, gain, s):
        config = ScenarioConfig("a", KIND_SINGLE_SQUEEZER, gain, squeezing_to_H(s))
        network = evaluate_counts(config)
        reference = reference_counts(config)
        assert network.count_a == pytest.approx(reference.count_a, abs=1e-9)
        assert network.count_b == pytest.approx(reference.count_b, abs=1e-9)

    def test_reference_anchors(self):
        counts = reference_counts(ScenarioConfig("a", KIND_CLASSICAL, 1.0, 1.0))
        assert (counts.count_a, counts.count_b) == (2.0, 1.0)
        counts = reference_counts(ScenarioConfig("c", KIND_CLASSICAL, 1.0, 1.0))
        assert (counts.count_a, counts.count_b) == (3.0, 2.0)
        counts = reference_counts(ScenarioConfig("b", KIND_TWO_MODE, 1 / 3, 1.125, 1 / 9))
        assert counts.count_a == pytest.approx(1 / 9, abs=1e-12)
        assert counts.count_b == pytest.approx(0.0, abs=1e-12)

    def test_no_closed_form_combinations_raise(self):
        config = ScenarioConfig("b", KIND_SINGLE_SQUEEZER, 0.5, 2.0, 0.5)
        with pytest.raises(ValueError, match="no closed form"):
            reference_counts(config)
        config = ScenarioConfig("c", KIND_SINGLE_SQUEEZER, 0.5, 2.0)
        with pytest.raises(ValueError, match="no closed form"):
            reference_counts(config)


class TestNetworkStructure:
    def test_lossless_attenuator_reduces_to_layout_a(self):
        # eta = 1 makes layout b's fields coincide with layout a's,
        # coefficient by coefficient (modes matched by label).
        plain = build_scenario(ScenarioConfig("a", KIND_TWO_MODE, 0.8, 1.125))
        balanced = build_scenario(ScenarioConfig("b", KIND_TWO_MODE, 0.8, 1.125, 1.0))
        for field_a, field_b in zip(plain.all_fields, balanced.all_fields):
            by_label_a = {m.label: field_a.coefficient(m) for m in field_a.support()}
            by_label_b = {m.label: field_b.coefficient(m) for m in field_b.support()}
            assert by_label_a == by_label_b

    def test_dual_teleporter_cancels_signal_at_dark_port(self):
        outputs = build_scenario(ScenarioConfig("c", KIND_TWO_MODE, 0.8, 1.125))
        signal_h, signal_v = outputs.registry.signal_pair()
        for field in outputs.port_b:
            assert field.coefficient(signal_h) == (0.0, 0.0)
            assert field.coefficient(signal_v) == (0.0, 0.0)

    def test_strong_squeezing_visibility_approaches_one(self):
        config = ScenarioConfig("a", KIND_TWO_MODE, 1.0, squeezing_to_H(0.9999))
        assert visibility(evaluate_counts(config)) >= 0.999

    def test_needs_empty_registry(self):
        config = ScenarioConfig("a", KIND_TWO_MODE, 1.0, 1.125)
        registry = build_scenario(config).registry
        with pytest.raises(ValueError, match="empty"):
            build_scenario(config, registry)

    @pytest.mark.parametrize(
        "config",
        [
            ScenarioConfig("a", KIND_TWO_MODE, 0.7, 1.125),
            ScenarioConfig("a", KIND_SINGLE_SQUEEZER, 0.7, 2.53125),
            ScenarioConfig("b", KIND_TWO_MODE, 0.7, 1.125, ETA_AUTO),
            ScenarioConfig("b", KIND_SINGLE_SQUEEZER, 0.7, 2.53125, 0.5),
            ScenarioConfig("c", KIND_TWO_MODE, 0.7, 1.125),
            ScenarioConfig("c", KIND_SINGLE_SQUEEZER, 0.7, 2.53125),
        ],
    )
    def test_outputs_canonical_and_commuting(self, config):
        fields = build_scenario(config).all_fields
        for i, field in enumerate(fields):
            assert commutator(field, field) == pytest.approx(1.0, abs=1e-12)
            for other in fields[i + 1 :]:
                assert commutator(field, other) == pytest.approx(0.0, abs=1e-12)


class TestBalancedOperation:
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_unit_visibility_at_balanced_point(self, s):
        H = squeezing_to_H(s)
        gain = optimal_gain(H)
        config = ScenarioConfig("b", KIND_TWO_MODE, gain, H, gain * gain)
        assert abs(visibility(evaluate_counts(config)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
    def test_dark_port_lock_point(self, s):
        H = squeezing_to_H(s)
        config = ScenarioConfig("c", KIND_TWO_MODE, optimal_gain(H), H)
        counts = evaluate_counts(config)
        assert counts.count_b <= 1e-12
        assert abs(visibility(counts) - 1.0) <= 1e-9

    @pytest.mark.parametrize("gain", [0.1, 0.5, 1.0, 1.5])
    def test_dual_teleporter_classical_visibility(self, gain):
        config = ScenarioConfig("c", KIND_CLASSICAL, gain, 1.0)
        assert visibility(evaluate_counts(config)) == pytest.approx(0.2, abs=1e-12)


class TestOptimizeEta:
    def test_balanced_point_is_exact(self):
        for s in (0.25, 0.5, 0.9):
            H = squeezing_to_H(s)
            gain = optimal_gain(H)
            assert optimize_eta(gain, H) == gain * gain

    def test_closed_form_values(self):
        assert optimize_eta(0.3, 1.0) == pytest.approx(0.45, abs=1e-15)
        assert optimize_eta(1.2, 1.0) == 1.0

    @pytest.mark.parametrize("gain", [0.1, 0.3, 0.6, 1.0])
    @pytest.mark.parametrize("H", [1.0, 1.125, 3.025])
    def test_beats_brute_force_grid(self, gain, H):
        # Validate the closed form against an eta scan at 1e-4 resolution,
        # using the closed-form counts so the scan stays cheap.
        best = -1.0
        for eta in np.arange(1e-4, 1.0 + 1e-9, 1e-4):
            config = ScenarioConfig("b", KIND_TWO_MODE, gain, H, float(eta))
            best = max(best, visibility(reference_counts(config)))
        config = ScenarioConfig("b", KIND_TWO_MODE, gain, H, optimize_eta(gain, H))
        assert visibility(reference_counts(config)) >= best - 1e-10

    @pytest.mark.parametrize("gain", [0.25, 0.75, 1.2])
    def test_single_squeezer_balancing_is_futile(self, gain):
        # Scanning eta never reaches unit visibility for the single-squeezer
        # source, and the source-aware closed form matches the scan optimum.
        H = squeezing_to_H(0.875)
        best = -1.0
        for eta in np.linspace(1e-3, 1.0, 101):
            config = ScenarioConfig("b", KIND_SINGLE_SQUEEZER, gain, H, float(eta))
            best = max(best, visibility(evaluate_counts(config)))
        eta_star = optimize_eta(gain, H, KIND_SINGLE_SQUEEZER)
        config = ScenarioConfig("b", KIND_SINGLE_SQUEEZER, gain, H, eta_star)
        optimum = visibility(evaluate_counts(config))
        assert optimum >= best - 1e-9
        assert optimum < 1.0 - 1e-3

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            optimize_eta(-0.1, 1.125)
        with pytest.raises(ValueError, match=">= 1"):
            optimize_eta(0.5, 0.9)
        with pytest.raises(ValueError, match=">= 0"):
            optimize_eta(math.nan, 1.2)
        with pytest.raises(ValueError, match=">= 1"):
            optimize_eta(0.5, math.nan)
        with pytest.raises(ValueError, match=">= 0"):
            optimize_eta(math.inf, 1.2)
        with pytest.raises(ValueError, match=">= 1"):
            optimize_eta(0.5, math.inf)
        with pytest.raises(ValueError, match="source"):
            optimize_eta(0.5, 1.125, "epr")


class TestSourceComparison:
    def test_two_mode_dominates_single_squeezer(self):
        grid = default_gain_grid()
        two_mode = sweep_gain(
            ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(0.5)), grid
        )
        single = sweep_gain(
            ScenarioConfig("a", KIND_SINGLE_SQUEEZER, 0.0, squeezing_to_H(0.875)), grid
        )
        for row_two, row_one in zip(two_mode.rows[1:], single.rows[1:]):
            assert row_two.visibility > row_one.visibility

    def test_peak_ratio(self):
        grid = default_gain_grid()
        two_mode = sweep_gain(
            ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(0.5)), grid
        ).peak()
        single = sweep_gain(
            ScenarioConfig("a", KIND_SINGLE_SQUEEZER, 0.0, squeezing_to_H(0.875)), grid
        ).peak()
        assert 1.20 <= two_mode.visibility / single.visibility <= 1.35

    def test_peak_visibility_monotone_in_squeezing(self):
        grid = default_gain_grid()
        peaks = []
        for s in (0.0, 0.25, 0.5, 0.75, 0.9):
            table = sweep_gain(
                ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(s)), grid
            )
            peaks.append(table.peak().visibility)
        assert peaks == sorted(peaks)


class TestSweep:
    def test_default_grid_row_count_and_order(self):
        table = sweep_gain(ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), default_gain_grid())
        assert len(table.rows) == 301
        gains = [row.gain for row in table.rows]
        assert gains == sorted(gains)
        assert table.layout == "a"
        assert table.source == KIND_CLASSICAL
        assert table.eta_policy == "none"

    def test_classical_peak(self):
        table = sweep_gain(ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), default_gain_grid())
        peak = table.peak()
        assert peak.visibility == pytest.approx(1.0 / math.sqrt(5.0), abs=5e-4)
        assert peak.gain == pytest.approx(1.0 / math.sqrt(5.0), abs=5e-3)

    def test_half_squeezing_peak(self):
        table = sweep_gain(
            ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(0.5)), default_gain_grid()
        )
        peak = table.peak()
        assert peak.visibility == pytest.approx(0.727, abs=5e-3)
        assert peak.gain == pytest.approx(math.sqrt(3.0 / 11.0), abs=5e-3)

    def test_auto_eta_balanced_row(self):
        config = ScenarioConfig("b", KIND_TWO_MODE, 0.0, 1.125, ETA_AUTO)
        table = sweep_gain(config, [0.2, 1 / 3, 0.9])
        assert table.eta_policy == "auto"
        balanced = table.rows[1]
        assert balanced.count_b <= 1e-12
        assert balanced.visibility == pytest.approx(1.0, abs=1e-9)

    def test_dark_origin_row_records_nan(self):
        table = sweep_gain(ScenarioConfig("c", KIND_CLASSICAL, 0.0, 1.0), [0.0, 0.5])
        assert math.isnan(table.rows[0].visibility)
        assert table.rows[1].visibility == pytest.approx(0.2, abs=1e-12)
        assert table.peak().gain == 0.5

    def test_peak_requires_a_defined_row(self):
        table = sweep_gain(ScenarioConfig("c", KIND_CLASSICAL, 0.0, 1.0), [0.0])
        with pytest.raises(ValueError, match="no row"):
            table.peak()

    def test_grid_validation(self):
        config = ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0)
        with pytest.raises(ValueError, match="empty"):
            sweep_gain(config, [])
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_gain(config, [0.0, 0.0, 0.1])
        with pytest.raises(ValueError, match="at least 2"):
            default_gain_grid(0.0, 1.5, 1)
        with pytest.raises(ValueError, match="start < stop"):
            default_gain_grid(1.5, 1.5, 10)
        for start, stop in ((0.0, math.inf), (-math.inf, 1.5), (math.nan, 1.5)):
            with pytest.raises(ValueError, match="finite start < stop"):
                default_gain_grid(start, stop, 10)
        with pytest.raises(ValueError, match="at most"):
            default_gain_grid(0.0, 1.5, MAX_GRID_STEPS + 1)
        with pytest.raises(ValueError, match="overflows"):
            default_gain_grid(-1e308, 1e308, 3)
        with pytest.raises(ValueError, match="below float resolution"):
            default_gain_grid(1.0, 1.000000000000001, 100)

    @pytest.mark.parametrize(
        "config, gain",
        [
            # A squared magnitude overflows in photon_flux.
            (ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), 1e200),
            # A sum of fluxes overflows to inf.
            (ScenarioConfig("c", KIND_CLASSICAL, 0.0, 1.0), 1e154),
            # An overflowed coefficient turns a flux into nan.
            (ScenarioConfig("a", KIND_TWO_MODE, 0.0, 1e100), 1e300),
        ],
    )
    def test_overflow_names_the_gain(self, config, gain):
        message = re.escape(f"photon count overflowed at gain {gain!r}")
        with pytest.raises(OverflowError, match=message):
            sweep_gain(config, [0.5, gain])

    def test_columns_must_match(self):
        column = array("d", [0.0, 0.5])
        with pytest.raises(ValueError, match="equal lengths"):
            SweepTable("a", KIND_CLASSICAL, 1.0, "none", column, column, column, column[:1])
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepTable("a", KIND_CLASSICAL, 1.0, "none", column[::-1], column, column, column)

    def test_peak_prefers_earliest_tie(self):
        gains = array("d", [0.0, 0.5, 1.0, 1.5])
        fringes = array("d", [math.nan, 0.5, 0.5, 0.25])
        table = SweepTable("a", KIND_CLASSICAL, 1.0, "none", gains, gains, gains, fringes)
        assert table.peak() == SweepRow(0.5, 0.5, 0.5, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(("a", "b", "c")),
        source=st.sampled_from((KIND_TWO_MODE, KIND_SINGLE_SQUEEZER, KIND_CLASSICAL)),
        squeezing=st.sampled_from((0.0, 0.5, 0.9)),
        eta=st.one_of(st.just(ETA_AUTO), st.floats(0.0, 1.0)),
        # Grids from 0 reach the dark origin of layout c without squeezing.
        start=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        width=st.floats(0.01, 1.5),
        steps=st.integers(2, 6),
    )
    def test_columns_match_pointwise_evaluation(
        self, layout, source, squeezing, eta, start, width, steps
    ):
        H = 1.0 if source == KIND_CLASSICAL else squeezing_to_H(squeezing)
        config = ScenarioConfig(layout, source, 0.0, H, eta if layout == "b" else None)
        grid = default_gain_grid(start, start + width, steps)
        table = sweep_gain(config, grid)
        expected = []
        for gain in grid:
            counts = evaluate_counts(ScenarioConfig(layout, source, float(gain), H, config.eta))
            dark = counts.count_a + counts.count_b == 0.0
            fringe = math.nan if dark else visibility(counts)
            expected.append(SweepRow(float(gain), counts.count_a, counts.count_b, fringe))
        rows = table.rows
        assert len(rows) == steps
        for row, want in zip(rows, expected):
            assert row[:3] == want[:3]
            assert row.visibility == want.visibility or (
                math.isnan(row.visibility) and math.isnan(want.visibility)
            )
        defined = [row for row in rows if not math.isnan(row.visibility)]
        if defined:
            # max keeps the first of equal rows: the earliest gain on ties.
            assert table.peak() == max(defined, key=lambda row: row.visibility)
        else:
            with pytest.raises(ValueError, match="no row"):
                table.peak()

    def test_input_state_argument(self):
        config = ScenarioConfig("a", KIND_TWO_MODE, 0.7, 1.125)
        outputs = build_scenario(config)
        diagonal = QubitInput(math.sqrt(0.5), math.sqrt(0.5))
        counts = port_count(outputs.port_a, outputs.port_b, diagonal)
        assert counts.count_a == pytest.approx(evaluate_counts(config).count_a, abs=1e-12)
