"""Network layouts against the closed form, attenuation balancing, and sweeps."""

from __future__ import annotations

import cmath
import math
import sys
import tracemalloc
from array import array
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import commutator, sqrt_in_mpmath, table_rows
from mzteleport import (
    ETA_AUTO,
    HORIZONTAL,
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    PortCounts,
    QubitInput,
    ScenarioConfig,
    SweepTable,
    build_scenario,
    default_gain_grid,
    evaluate_counts,
    optimal_gain,
    optimize_eta,
    oracle_flux,
    port_count,
    reference_counts,
    squeezing_to_H,
    sweep_gain,
    visibility,
)
from mzteleport import scenarios, teleporter
from mzteleport.fock import oracle_expectation
from mzteleport.modes import ModeRegistry, annihilator_field, attenuate, beamsplitter
from mzteleport.scenarios import LAYOUTS, MAX_GRID_STEPS
from mzteleport.teleporter import (
    GAIN_MAX,
    KINDS,
    PUMP_GAIN_MAX,
    check_channel,
    teleport_single_squeezer,
    teleport_two_mode,
)

GAIN_GRID = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
SQUEEZING_GRID = [0.0, 0.5, 0.9]
VERTICAL = QubitInput(0.0, 1.0)
PAIRS = [(layout, source) for layout in LAYOUTS for source in KINDS]


@st.composite
def scenario_configs(draw):
    """Any layout and source; gain in [0, 1.5] (often 0), squeezing in [0, 0.9]."""
    layout = draw(st.sampled_from(LAYOUTS))
    source = draw(st.sampled_from(KINDS))
    gain = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    squeezing = draw(st.floats(0.0, 0.9))
    H = 1.0 if source == KIND_CLASSICAL else squeezing_to_H(squeezing)
    eta = draw(st.one_of(st.just(ETA_AUTO), st.floats(0.0, 1.0))) if layout == "b" else None
    return ScenarioConfig(layout, source, gain, H, eta)


# Each parameter a constructor checks: how to build it, its domain, and the
# name its rejection message carries. The grid is checked as a block of gains.
GAIN_NAME, PUMP_NAME = "feedforward gain", "pump gain"
FLOAT_MAX = sys.float_info.max


def counts_shaped_as(fringe) -> tuple:
    """Two admitted counts: blocks of the fringe's length where it is a 1-D block, else numbers."""
    if isinstance(fringe, np.ndarray) and fringe.ndim == 1 and fringe.size:
        return np.ones(len(fringe)), np.full(len(fringe), 0.5)
    return 1.0, 0.5


DOMAIN_SITES = {
    "channel gain": (lambda x: check_channel(KIND_TWO_MODE, x, 1.125), 0.0, GAIN_MAX, GAIN_NAME),
    "channel H": (lambda x: check_channel(KIND_TWO_MODE, 0.5, x), 1.0, PUMP_GAIN_MAX, PUMP_NAME),
    "config gain": (
        lambda x: ScenarioConfig("a", KIND_TWO_MODE, x, 1.125), 0.0, GAIN_MAX, GAIN_NAME
    ),
    "config H": (
        lambda x: ScenarioConfig("a", KIND_TWO_MODE, 0.5, x), 1.0, PUMP_GAIN_MAX, PUMP_NAME
    ),
    "config eta": (
        lambda x: ScenarioConfig("b", KIND_TWO_MODE, 0.5, 1.125, x), 0.0, 1.0, "transmission"
    ),
    "sweep grid": (
        lambda x: sweep_gain(ScenarioConfig("a", KIND_TWO_MODE, 0.0, 1.125), x),
        0.0,
        GAIN_MAX,
        f"gain grid|{GAIN_NAME}",
    ),
    # Half-open: 1 itself is outside too (test_teleporter.py, test_squeezing_conversions).
    "squeezing": (squeezing_to_H, 0.0, 1.0, "squeezing fraction"),
    # An integer number of points, and a real end above the grid's start.
    "grid steps": (lambda x: default_gain_grid(0.0, 1.5, x), 2, MAX_GRID_STEPS, "steps"),
    "grid stop": (lambda x: default_gain_grid(0.0, x), 0.0, math.inf, "start < stop"),
    "port counts": (lambda x: PortCounts(x, x), 0.0, math.inf, "photon counts"),
    # Any finite number; the counts beside it are shaped as it is, so only it is checked.
    "port fringe": (lambda x: PortCounts(*counts_shaped_as(x), x), -FLOAT_MAX, FLOAT_MAX, "fringe"),
}
# In-range arrays of a dtype other than float64, which no block of gains or counts
# may have; a grid converts every one of them but the complex one, by design.
DTYPE_KINDS = ("int64", "float32", "complex128", "bool")
# In-range numbers of a type that no parameter takes: a Decimal, which does not mix
# with floats, a numpy scalar other than float64, and a bool. A grid rejects each alone.
SCALAR_KINDS = {"Decimal": Decimal, "float32 scalar": np.float32, "bool scalar": bool}
GRID_CONVERTS = ("int64", "float32", "bool")
VALUE_KINDS = ("below", "above", "nan", "inf", "-inf")
OUTSIDE_KINDS = (
    *VALUE_KINDS, "empty", "2-D", "int array", "list", "str", *DTYPE_KINDS, *SCALAR_KINDS
)
# The sites of a physical parameter, whose rejection tells a wrong type from a value
# outside the range; a gain and a count also take a block.
BLOCK_SITES = ("channel gain", "config gain", "port counts", "port fringe")
PHYSICAL_SITES = (*BLOCK_SITES, "channel H", "config H", "config eta", "squeezing")
TYPE_KINDS = ("str", "list", "None", *DTYPE_KINDS, *SCALAR_KINDS)
WRONG_TYPE = "of the wrong type"


def outside_value(kind: str, block: bool, low: float, high: float):
    """A value of ``kind`` that a parameter admitting one number in ``[low, high]``
    rejects: alone, or in block form (a number follows ``low`` in an array).

    Lists and int arrays hold a number below the domain, so that a grid, which
    converts any sequence of real numbers, is outside too. The arrays of
    :data:`DTYPE_KINDS` hold ``low``, then ``low + 1`` in block form. A number of
    :data:`SCALAR_KINDS` is ``low`` in either form: no block holds one. Where ``low`` is
    negative, those two kinds hold 0 in its place, which every one of them can hold.
    """
    inside = max(low, 0.0)
    below = math.nextafter(low, -math.inf)
    numbers = {
        "below": below, "above": high * 1e100, "nan": math.nan, "inf": math.inf, "-inf": -math.inf
    }
    if kind in numbers:
        return np.array([low, numbers[kind]]) if block else numbers[kind]
    if kind in DTYPE_KINDS:
        return np.array([inside, inside + 1] if block else [inside], dtype=kind)
    if kind in SCALAR_KINDS:
        return SCALAR_KINDS[kind](inside)
    return {
        "empty": np.empty(0) if block else [],
        "2-D": np.full((2, 2) if block else (1, 1), low),
        "int array": np.array([int(low), int(low) - 1] if block else [int(low) - 1]),
        "list": [low, below] if block else [below],
        "str": np.array(["half", "half"]) if block else "half",
        "None": np.array([low, None]) if block else None,
    }[kind]


@st.composite
def qubits(draw):
    """Any input qubit, up to a global phase: ``(cos theta, e^{i phi} sin theta)``."""
    theta = draw(st.floats(0.0, math.pi / 2))
    phi = draw(st.floats(0.0, 2 * math.pi))
    return QubitInput(math.cos(theta), cmath.rect(math.sin(theta), phi))


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

    def test_rejects_transmission_out_of_range(self):
        # The attenuator's transmission is checked here, once; the attenuator checks nothing.
        for eta in (1.2, -0.1, math.nan, "Auto"):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                ScenarioConfig("b", KIND_TWO_MODE, 1.0, 1.125, eta)

    def test_rejects_nan_gain_and_pump(self):
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioConfig("a", KIND_TWO_MODE, math.nan, 1.125)
        with pytest.raises(ValueError, match=">= 1"):
            ScenarioConfig("a", KIND_TWO_MODE, 1.0, math.nan)
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioConfig("a", KIND_TWO_MODE, math.inf, 1.125)
        with pytest.raises(ValueError, match=">= 1"):
            ScenarioConfig("a", KIND_TWO_MODE, 1.0, math.inf)
        # Each bound of the admitted domain is admitted; the next float above it is not.
        ScenarioConfig("a", KIND_TWO_MODE, GAIN_MAX, PUMP_GAIN_MAX)
        with pytest.raises(ValueError, match=">= 0"):
            ScenarioConfig("a", KIND_TWO_MODE, math.nextafter(GAIN_MAX, math.inf), 1.125)
        with pytest.raises(ValueError, match=">= 1"):
            ScenarioConfig("a", KIND_TWO_MODE, 1.0, math.nextafter(PUMP_GAIN_MAX, math.inf))

    def test_carries_only_its_five_parameters(self):
        config = ScenarioConfig("b", KIND_TWO_MODE, 0.5, 1.125, ETA_AUTO)
        assert vars(config) == {
            "layout": "b", "source": KIND_TWO_MODE, "gain": 0.5, "H": 1.125, "eta": ETA_AUTO
        }

    def test_classical_requires_unit_pump(self):
        with pytest.raises(ValueError, match="H = 1"):
            ScenarioConfig("a", KIND_CLASSICAL, 1.0, 1.125)

    def test_resolved_eta(self):
        fixed = ScenarioConfig("b", KIND_TWO_MODE, 0.5, 1.125, 0.7)
        assert fixed.resolved_eta() == 0.7
        auto = ScenarioConfig("b", KIND_TWO_MODE, 0.5, 1.125, ETA_AUTO)
        assert auto.resolved_eta() == optimize_eta(0.5, 1.125)
        assert ScenarioConfig("a", KIND_TWO_MODE, 0.5, 1.125).resolved_eta() is None

    # 368 combinations: enough examples that hypothesis exhausts them all.
    @settings(max_examples=400, deadline=None)
    @given(
        site=st.sampled_from(sorted(DOMAIN_SITES)),
        kind=st.sampled_from(OUTSIDE_KINDS),
        block=st.booleans(),
    )
    @example(site="sweep grid", kind="above", block=True)  # the grid [0.0, 1e200]
    # None is not among the kinds: for a transmission it means "no attenuator".
    @example(site="squeezing", kind="None", block=False)
    @example(site="squeezing", kind="None", block=True)
    @example(site="grid steps", kind="None", block=False)
    @example(site="grid stop", kind="None", block=False)
    @example(site="port counts", kind="None", block=False)
    @example(site="port counts", kind="None", block=True)
    def test_rejects_what_lies_outside_the_domain(self, site, kind, block):
        assume(not (site == "sweep grid" and kind in GRID_CONVERTS))
        build, low, high, name = DOMAIN_SITES[site]
        value = outside_value(kind, block, low, high)
        with pytest.raises(ValueError, match=name) as rejection:
            build(value)
        if site in PHYSICAL_SITES:
            array_for_one_number = site not in BLOCK_SITES and isinstance(value, np.ndarray)
            if kind in TYPE_KINDS or array_for_one_number:
                assert WRONG_TYPE in str(rejection.value)
            elif kind in VALUE_KINDS:
                assert WRONG_TYPE not in str(rejection.value)

    # In range, every real number type is admitted: on the check's fast path (int, float,
    # float64) and off it (Fraction).
    @pytest.mark.parametrize("number", [int, float, np.float64, Fraction])
    @pytest.mark.parametrize("site", PHYSICAL_SITES)
    def test_admits_every_real_number_type_in_the_domain(self, site, number):
        build, low, _, _ = DOMAIN_SITES[site]
        build(number(low))
        if site in BLOCK_SITES:
            build(np.array([low, low + 0.5]))

    def test_block_of_gains_is_a_one_dimensional_float64_array(self):
        config = ScenarioConfig("a", KIND_TWO_MODE, np.array([0.0, 0.5]), 1.125)
        assert config.gain.tolist() == [0.0, 0.5]
        for gains in (np.array([0, 1]), np.array([0.5], dtype=np.float32), np.array(0.5)):
            with pytest.raises(ValueError, match="1-D float64"):
                ScenarioConfig("a", KIND_TWO_MODE, gains, 1.125)

    def test_block_configuration_is_not_hashable_or_comparable(self):
        # A frozen dataclass hashes and compares its fields: an array does neither.
        config = ScenarioConfig("c", KIND_TWO_MODE, np.array([0.25, 0.5]), 1.125)
        twin = replace(config, gain=config.gain.copy())
        with pytest.raises(TypeError, match="unhashable"):
            hash(config)
        with pytest.raises(ValueError, match="ambiguous"):
            config == twin

    @pytest.mark.parametrize(
        "layout, eta", [("a", None), ("b", ETA_AUTO), ("b", 0.5), ("c", None)]
    )
    @pytest.mark.parametrize("source", [KIND_TWO_MODE, KIND_SINGLE_SQUEEZER, KIND_CLASSICAL])
    def test_channel_checked_once_per_gain_point(self, monkeypatch, layout, eta, source):
        calls = []

        def counting(kind, gain, H):
            calls.append(gain)
            return check_channel(kind, gain, H)

        monkeypatch.setattr(scenarios, "check_channel", counting)
        H = 1.0 if source == KIND_CLASSICAL else 1.125
        config = ScenarioConfig(layout, source, 0.0, H, eta)
        grid = [0.25, 0.5, 0.75, 1.0, 1.25]
        monkeypatch.setattr(scenarios, "SWEEP_BLOCK", 2)
        sweep_gain(config, grid)
        # The config at its own gain, then each block of the grid as one array.
        assert calls[0] == 0.0
        assert [block.tolist() for block in calls[1:]] == [grid[:2], grid[2:4], grid[4:]]


class TestNetworkAgainstClosedForms:
    @staticmethod
    def _assert_network_matches_reference(config):
        network = evaluate_counts(config)
        reference = reference_counts(config)
        assert abs(network.count_a - reference.count_a) <= 1e-9
        assert abs(network.count_b - reference.count_b) <= 1e-9

    # The layout-b proof in test_proofs.py covers every eta in (0, 1); these
    # columns reach its ends: auto resolves to 0 at gain 0 without squeezing.
    @pytest.mark.parametrize("gain", GAIN_GRID)
    @pytest.mark.parametrize("s", SQUEEZING_GRID)
    @pytest.mark.parametrize("eta", [ETA_AUTO, 1.0])
    def test_balanced_layout(self, gain, s, eta):
        config = ScenarioConfig("b", KIND_TWO_MODE, gain, squeezing_to_H(s), eta)
        self._assert_network_matches_reference(config)

    # One closed form covers every layout and source, for any input qubit.
    # The examples send the v polarization through corners of the gain and
    # squeezing ranges, which neither a random draw nor the grid cases above
    # (horizontal qubit only) is sure to reach.
    @settings(max_examples=300, deadline=None)
    @given(config=scenario_configs(), qubit=qubits())
    @example(ScenarioConfig("b", KIND_TWO_MODE, 1.5, squeezing_to_H(0.9), 1.0), VERTICAL)
    @example(ScenarioConfig("b", KIND_TWO_MODE, 0.25, squeezing_to_H(0.5), 0.3), VERTICAL)
    @example(ScenarioConfig("c", KIND_SINGLE_SQUEEZER, 1.5, squeezing_to_H(0.9)), VERTICAL)
    @example(ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(0.0)), VERTICAL)
    def test_every_configuration(self, config, qubit):
        outputs = build_scenario(config)
        reference = reference_counts(config)
        for counts in (
            evaluate_counts(config),
            port_count(outputs.port_a, outputs.port_b, qubit),
        ):
            assert abs(counts.count_a - reference.count_a) <= 1e-9
            assert abs(counts.count_b - reference.count_b) <= 1e-9

    # The fringe is formed on every route without subtracting the counts, so the
    # routes agree relative to its size, down to the smallest gains where it is
    # tiny against the counts; the largest deviation measured is 1.03e-15.
    @settings(max_examples=300, deadline=None)
    @given(
        config=scenario_configs(),
        gain=st.one_of(st.just(0.0), st.floats(-10.0, 0.2).map(lambda e: 10.0**e)),
        qubit=qubits(),
    )
    @example(ScenarioConfig("c", KIND_TWO_MODE, 0.0, squeezing_to_H(0.9)), 1e-8, HORIZONTAL)
    def test_fringe_agrees_relatively_on_every_route(self, config, gain, qubit):
        config = replace(config, gain=gain)
        outputs = build_scenario(config)
        half_root2 = math.sqrt(2) / 2
        oracle = sum(
            4 * (half_root2 * half_root2) * oracle_expectation(c, d, qubit).real
            for c, d in outputs.arms
        )
        engine = port_count(outputs.port_a, outputs.port_b, qubit, outputs.arms).fringe
        reference = reference_counts(config).fringe
        for fringe in (evaluate_counts(config).fringe, engine, oracle):
            assert fringe == pytest.approx(reference, rel=4e-15, abs=0.0)

    @pytest.mark.parametrize("s", [0.5, 0.9])
    def test_lock_point_is_dark_in_fifty_digits(self, s, monkeypatch):
        # Swapping the package's one square root runs the optimal gain and both
        # routes in 50 digits, so layout c's dark port empties to that precision.
        sqrt_in_mpmath(monkeypatch)
        with mpmath.workdps(50):
            H = squeezing_to_H(mpmath.mpf(s))
            gain = optimal_gain(H)
            assert isinstance(gain, mpmath.mpf)
            config = ScenarioConfig("c", KIND_TWO_MODE, gain, H)
            for counts in (evaluate_counts(config), reference_counts(config)):
                assert counts.count_b < 1e-45

    def test_reference_anchors(self):
        counts = reference_counts(ScenarioConfig("a", KIND_CLASSICAL, 1.0, 1.0))
        assert (counts.count_a, counts.count_b) == (2.0, 1.0)
        counts = reference_counts(ScenarioConfig("c", KIND_CLASSICAL, 1.0, 1.0))
        assert (counts.count_a, counts.count_b) == (3.0, 2.0)
        counts = reference_counts(ScenarioConfig("b", KIND_TWO_MODE, 1 / 3, 1.125, 1 / 9))
        assert counts.count_a == pytest.approx(1 / 9, abs=1e-12)
        assert counts.count_b == pytest.approx(0.0, abs=1e-12)


class TestNetworkStructure:
    def test_lossless_attenuator_reduces_to_layout_a(self):
        # eta = 1 makes layout b's fields coincide with layout a's,
        # coefficient by coefficient in index order, plus a zero term on
        # the attenuator's vacuum mode, the last mode of its arm (it
        # shifts only later indices).
        plain = build_scenario(ScenarioConfig("a", KIND_TWO_MODE, 0.8, 1.125))
        balanced = build_scenario(ScenarioConfig("b", KIND_TWO_MODE, 0.8, 1.125, 1.0))
        for field_a, field_b in zip(plain.all_fields, balanced.all_fields):
            assert list(field_b.terms.values()) == [*field_a.terms.values(), (0.0, 0.0)]

    def test_dual_teleporter_cancels_signal_at_dark_port(self):
        outputs = build_scenario(ScenarioConfig("c", KIND_TWO_MODE, 0.8, 1.125))
        signal_h, signal_v = outputs.port_b[0].registry.signal_pair()
        for field in outputs.port_b:
            assert field.coefficient(signal_h) == (0.0, 0.0)
            assert field.coefficient(signal_v) == (0.0, 0.0)

    # Every layout writes real numbers, so its fields hold Python floats at a
    # point and float64 arrays over a block: one complex zero (a ``0j``) in
    # the algebra would turn every coefficient, and every sweep, complex.
    @pytest.mark.parametrize("layout, source", PAIRS)
    def test_coefficients_stay_real(self, layout, source):
        H = 1.0 if source == KIND_CLASSICAL else 1.125
        eta = ETA_AUTO if layout == "b" else None
        point = build_scenario(ScenarioConfig(layout, source, 0.5, H, eta))
        block = build_scenario(ScenarioConfig(layout, source, np.array([0.0, 0.5]), H, eta))
        for field in point.all_fields:
            for pair in field.terms.values():
                assert [type(c) for c in pair] == [float, float]
        for field in block.all_fields:
            for pair in field.terms.values():
                assert [(type(c), c.dtype) for c in pair] == [(np.ndarray, np.float64)] * 2

    def test_composed_channel_is_complex(self):
        # Its homodyne phase quadrature brings in +/- 1j: a complex number, kept.
        signal, _ = ModeRegistry().signal_pair()
        field = teleporter.teleport_composed(annihilator_field(signal), 0.5, 1.125)
        assert any(type(c) is complex for pair in field.terms.values() for c in pair)

    # Elements draw their own ancillas, so none is shared; this physics
    # check stays: a shared one leaves outputs not canonical or not commuting.
    @settings(max_examples=200, deadline=None)
    @given(config=scenario_configs())
    def test_outputs_canonical_and_commuting_any_config(self, config):
        fields = build_scenario(config).all_fields
        for i, field in enumerate(fields):
            assert commutator(field, field) == pytest.approx(1.0, abs=1e-12)
            for other in fields[i + 1 :]:
                assert commutator(field, other) == pytest.approx(0.0, abs=1e-12)

    # build_scenario runs the elements on the horizontal polarization only and
    # maps its fields onto vertical modes. Built element by element instead,
    # in the order of a network without the map (vacua, then the horizontal
    # elements, then the vertical ones), both polarizations are the same
    # terms in the same order, with the same bits, on the same modes.
    @pytest.mark.parametrize("gain", [0.6, np.array([0.0, 0.6, 1.3])], ids=["point", "block"])
    @pytest.mark.parametrize("source", KINDS)
    @pytest.mark.parametrize("layout, eta", [("a", None), ("b", ETA_AUTO), ("b", 0.37), ("c", None)])
    def test_mapped_polarization_is_the_built_one(self, layout, eta, source, gain):
        config = ScenarioConfig(layout, source, gain, 1.0 if source == KIND_CLASSICAL else 1.7, eta)
        teleport = teleport_single_squeezer if source == KIND_SINGLE_SQUEEZER else teleport_two_mode
        reg = ModeRegistry()
        vacua = (reg.fresh_mode(), reg.fresh_mode())
        built = []  # per polarization: arm c, arm d, port a, port b
        for signal, vacuum in zip(reg.signal_pair(), vacua):
            arm_c, arm_d = beamsplitter(annihilator_field(signal), annihilator_field(vacuum))
            arm_c = teleport(arm_c, gain, config.H)
            if layout == "b":
                arm_d = attenuate(arm_d, config.resolved_eta())
            elif layout == "c":
                arm_d = teleport(arm_d, gain, config.H)
            built.append((arm_c, arm_d, *beamsplitter(arm_c, arm_d)))
        outputs = build_scenario(config)
        mapped = [(*arms, a, b) for arms, a, b in zip(outputs.arms, outputs.port_a, outputs.port_b)]

        def exact(field):  # every term in order, each coefficient as its type and bits
            return [
                (k, [(type(c), np.asarray(c).dtype, np.asarray(c).tobytes()) for c in term])
                for k, term in field.terms.items()
            ]

        for fields, want in zip(mapped, built):
            assert [exact(field) for field in fields] == [exact(field) for field in want]
        assert outputs.port_a[0].registry.fresh_mode().index == reg.fresh_mode().index
        horizontal, vertical = ({k for field in fields for k in field.terms} for fields in mapped)
        assert not horizontal & vertical


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
        assert (two_mode.visibility[1:] > single.visibility[1:]).all()

    def test_peak_ratio(self):
        grid = default_gain_grid()
        two_mode = sweep_gain(
            ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(0.5)), grid
        )
        single = sweep_gain(
            ScenarioConfig("a", KIND_SINGLE_SQUEEZER, 0.0, squeezing_to_H(0.875)), grid
        )
        ratio = two_mode.visibility[two_mode.peak()] / single.visibility[single.peak()]
        assert 1.20 <= ratio <= 1.35

    def test_peak_visibility_monotone_in_squeezing(self):
        grid = default_gain_grid()
        peaks = []
        for s in (0.0, 0.25, 0.5, 0.75, 0.9):
            table = sweep_gain(
                ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(s)), grid
            )
            peaks.append(table.visibility[table.peak()])
        assert peaks == sorted(peaks)


class TestSweep:
    def test_default_grid_row_count_and_order(self):
        table = sweep_gain(ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), default_gain_grid())
        assert len(table.gains) == 301
        gains = table.gains.tolist()
        assert gains == sorted(gains)

    def test_classical_peak(self):
        table = sweep_gain(ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), default_gain_grid())
        best = table.peak()
        assert table.visibility[best] == pytest.approx(1.0 / math.sqrt(5.0), abs=5e-4)
        assert table.gains[best] == pytest.approx(1.0 / math.sqrt(5.0), abs=5e-3)

    def test_half_squeezing_peak(self):
        table = sweep_gain(
            ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(0.5)), default_gain_grid()
        )
        best = table.peak()
        assert table.visibility[best] == pytest.approx(0.727, abs=5e-3)
        assert table.gains[best] == pytest.approx(math.sqrt(3.0 / 11.0), abs=5e-3)

    def test_auto_eta_balanced_row(self):
        config = ScenarioConfig("b", KIND_TWO_MODE, 0.0, 1.125, ETA_AUTO)
        table = sweep_gain(config, [0.2, 1 / 3, 0.9])
        assert table.count_b[1] <= 1e-12
        assert table.visibility[1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("layout, eta", [("a", None), ("b", ETA_AUTO), ("c", None)])
    def test_low_gain_visibility_against_fifty_digits(self, layout, eta, monkeypatch):
        # The closed form at the same binary gain and H, in 50 digits: the column
        # holds every digit, where a difference of two nearly equal counts holds few.
        config = ScenarioConfig(layout, KIND_TWO_MODE, 0.0, squeezing_to_H(0.9), eta)
        table = sweep_gain(config, [1e-8, 1e-5, 1e-3])
        sqrt_in_mpmath(monkeypatch)
        with mpmath.workdps(50):
            for gain, value in zip(table.gains.tolist(), table.visibility.tolist()):
                exact = visibility(reference_counts(replace(config, gain=mpmath.mpf(gain))))
                assert abs(value - exact) <= 2e-15 * exact

    def test_dark_origin_row_records_nan(self):
        table = sweep_gain(ScenarioConfig("c", KIND_CLASSICAL, 0.0, 1.0), [0.0, 0.5])
        assert math.isnan(table.visibility[0])
        assert table.visibility[1] == pytest.approx(0.2, abs=1e-12)
        assert table.gains[table.peak()] == 0.5

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
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep_gain(config, [1.0, math.nan, 0.5])
        for grid in (0.5, [[0.0, 0.5], [1.0, 1.5]]):
            with pytest.raises(ValueError, match="one-dimensional"):
                sweep_gain(config, grid)
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
        # A number of steps that is not an integer, or an end that is not a
        # real number, is named; a numpy integer is an integer.
        for steps in (2.5, "5", None, np.float64(5.0)):
            with pytest.raises(ValueError, match="integer number of steps"):
                default_gain_grid(0, 1.5, steps)
        for start, stop in (("0", 1.5), (0, None)):
            with pytest.raises(ValueError, match="real, finite start < stop"):
                default_gain_grid(start, stop)
        assert default_gain_grid(0, 1.5, np.int64(3)).tolist() == [0.0, 0.75, 1.5]

    def test_grid_ends_are_numbers_a_parameter_takes(self):
        # A bool or a numpy scalar other than float64 is refused by name, as a gain is;
        # every admitted end gives a float64 grid, which a configuration takes as a block.
        for start, stop in ((False, True), (np.float32(0.0), np.float32(1.5))):
            with pytest.raises(ValueError, match=f"of the wrong type {type(start).__name__}"):
                default_gain_grid(start, stop, 3)
        for start, stop in ((0, 1), (np.float64(0.0), 1.5), (Fraction(0), Fraction(3, 2))):
            grid = default_gain_grid(start, stop, 3)
            assert grid.dtype == np.float64
            replace(ScenarioConfig("a", KIND_TWO_MODE, 0.0, 1.125), gain=grid)

    # Every route stays finite on the whole admitted domain: a log-uniform
    # draw of gain and H - 1, and the domain's four corners. A numpy
    # overflow fails the suite, which turns its warnings into errors.
    @pytest.mark.parametrize("layout, source", PAIRS)
    @settings(max_examples=25, deadline=None)
    @given(
        gain=st.one_of(st.just(0.0), st.floats(-16.0, 100.0).map(lambda e: 10.0**e)),
        H=st.one_of(st.just(1.0), st.floats(-16.0, 100.0).map(lambda e: 1.0 + 10.0**e)),
        eta=st.one_of(st.just(ETA_AUTO), st.floats(0.0, 1.0)),
    )
    @example(gain=0.0, H=1.0, eta=ETA_AUTO)
    @example(gain=0.0, H=PUMP_GAIN_MAX, eta=ETA_AUTO)
    @example(gain=GAIN_MAX, H=1.0, eta=ETA_AUTO)
    @example(gain=GAIN_MAX, H=PUMP_GAIN_MAX, eta=ETA_AUTO)
    def test_admitted_domain_is_finite_on_every_route(self, layout, source, gain, H, eta):
        H = 1.0 if source == KIND_CLASSICAL else min(H, PUMP_GAIN_MAX)
        config = ScenarioConfig(layout, source, gain, H, eta if layout == "b" else None)
        for counts in (evaluate_counts(config), reference_counts(config)):
            assert math.isfinite(counts.count_a) and math.isfinite(counts.count_b)
        table = sweep_gain(config, sorted({0.0, gain}))
        assert np.isfinite([table.count_a, table.count_b]).all()
        lit = table.count_a + table.count_b > 0.0
        assert np.isfinite(table.visibility[lit]).all()
        for field in build_scenario(config).all_fields:
            for qubit in (HORIZONTAL, VERTICAL):
                assert math.isfinite(oracle_flux(field, qubit))

    def test_memory_stays_flat_in_the_grid_length(self):
        # One block's fields are alive at a time: this sweep peaks near 9 MiB,
        # where one network over the whole grid peaks near 99 MiB.
        grid = default_gain_grid(0.0, 1.5, 100_001)
        config = ScenarioConfig("c", KIND_SINGLE_SQUEEZER, 0.0, squeezing_to_H(0.5))
        tracemalloc.start()
        try:
            sweep_gain(config, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20

    def test_complex_grid_is_rejected_not_cast(self):
        config = ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0)
        with pytest.raises(ValueError, match="gain grid must be a sequence of real numbers"):
            sweep_gain(config, np.array([0.5 + 1j, 1.0 + 0j]))
        # Integers, in an array or a list, convert.
        for grid in (np.array([0, 1]), [0, 1]):
            assert sweep_gain(config, grid).gains.tolist() == [0.0, 1.0]

    def test_gains_are_a_read_only_view_of_the_grid(self):
        grid = default_gain_grid(0.0, 1.5, 5)
        table = sweep_gain(ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), grid)
        assert np.shares_memory(table.gains, grid)
        assert not table.gains.flags.writeable
        assert grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table.gains[0] = 1.0

    def test_columns_must_match(self):
        column = array("d", [0.0, 0.5])
        with pytest.raises(ValueError, match="equal lengths"):
            SweepTable(column, column, column, column[:1])
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepTable(column[::-1], column, column, column)
        gains = array("d", [1.0, math.nan, 0.5])
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepTable(gains, gains, gains, gains)
        # A count or visibility column that is not 1-D would render as a list.
        for name in ("count_a", "count_b", "visibility"):
            for bad in ([[1, 2], [3, 4]], 1.0):
                columns = dict(gains=[0.0, 1.0], count_a=[1, 2], count_b=[1, 2], visibility=[0, 0])
                columns[name] = bad
                with pytest.raises(ValueError, match=f"{name} must be one-dimensional"):
                    SweepTable(**columns)

    def test_complex_column_is_rejected_not_cast(self):
        for name in ("count_a", "count_b", "visibility"):
            columns = dict(gains=[0.0, 1.0], count_a=[1, 2], count_b=[1, 2], visibility=[0, 0])
            columns[name] = np.array([1 + 1j, 2 + 0j])
            with pytest.raises(ValueError, match=f"{name} must be a sequence of real numbers"):
                SweepTable(**columns)

    def test_peak_prefers_earliest_tie(self):
        gains = array("d", [0.0, 0.5, 1.0, 1.5])
        fringes = array("d", [math.nan, 0.5, 0.5, 0.25])
        table = SweepTable(gains, gains, gains, fringes)
        assert table.peak() == 1

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(("a", "b", "c")),
        source=st.sampled_from((KIND_TWO_MODE, KIND_SINGLE_SQUEEZER, KIND_CLASSICAL)),
        squeezing=st.sampled_from((0.0, 0.5, 0.9)),
        eta=st.one_of(st.just(ETA_AUTO), st.floats(0.0, 1.0)),
        # Grids from 0 reach the dark origin of layout c without squeezing.
        start=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        width=st.floats(0.01, 1.5),
        steps=st.integers(2, 12),
        # Blocks this small put block edges, and a short last block, inside the grid.
        block=st.integers(1, 5),
    )
    def test_columns_match_pointwise_evaluation(
        self, layout, source, squeezing, eta, start, width, steps, block
    ):
        H = 1.0 if source == KIND_CLASSICAL else squeezing_to_H(squeezing)
        config = ScenarioConfig(layout, source, 0.0, H, eta if layout == "b" else None)
        grid = default_gain_grid(start, start + width, steps)
        with patch.object(scenarios, "SWEEP_BLOCK", block):
            table = sweep_gain(config, grid)
        # The closed form and the oracle take the whole grid as one block too.
        block_config = replace(config, gain=grid)
        block_reference = reference_counts(block_config)
        block_outputs = build_scenario(block_config)
        block_oracle = [
            sum(oracle_flux(field, HORIZONTAL) for field in port)
            for port in (block_outputs.port_a, block_outputs.port_b)
        ]
        expected = []
        for k, gain in enumerate(grid):
            point = ScenarioConfig(layout, source, float(gain), H, config.eta)
            counts = evaluate_counts(point)
            dark = counts.count_a + counts.count_b == 0.0
            fringe = math.nan if dark else visibility(counts)
            expected.append((float(gain), counts.count_a, counts.count_b, fringe))
            reference = reference_counts(point)
            assert block_reference.count_a[k] == reference.count_a
            assert block_reference.count_b[k] == reference.count_b
            outputs = build_scenario(point)
            for port, column in zip((outputs.port_a, outputs.port_b), block_oracle):
                assert column[k] == sum(oracle_flux(field, HORIZONTAL) for field in port)
        rows = table_rows(table)
        assert len(rows) == steps
        for row, want in zip(rows, expected):
            assert row[:3] == want[:3]
            assert row[3] == want[3] or (math.isnan(row[3]) and math.isnan(want[3]))
        defined = [k for k, row in enumerate(rows) if not math.isnan(row[3])]
        if defined:
            # max keeps the first of equal rows: the earliest gain on ties.
            assert table.peak() == max(defined, key=lambda k: rows[k][3])
        else:
            with pytest.raises(ValueError, match="no row"):
                table.peak()

    def test_input_state_argument(self):
        config = ScenarioConfig("a", KIND_TWO_MODE, 0.7, 1.125)
        outputs = build_scenario(config)
        diagonal = QubitInput(math.sqrt(0.5), math.sqrt(0.5))
        counts = port_count(outputs.port_a, outputs.port_b, diagonal)
        assert counts.count_a == pytest.approx(evaluate_counts(config).count_a, abs=1e-12)
