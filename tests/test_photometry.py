"""Photon-count expectations and fringe visibility."""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from conftest import field_from_terms, random_canonical_field, random_qubit
from mzteleport import (
    KIND_CLASSICAL,
    KIND_TWO_MODE,
    PortCounts,
    QubitInput,
    ScenarioConfig,
    build_scenario,
    photon_flux,
    port_count,
    squeezing_to_H,
    visibility,
)
from mzteleport.modes import ModeRegistry, annihilator_field, dagger


class TestQubitInput:
    def test_accepts_normalized(self):
        QubitInput(1.0, 0.0)
        QubitInput(math.sqrt(0.5), 1j * math.sqrt(0.5))
        QubitInput(np.float64(1.0), np.int64(0))
        QubitInput(1, Fraction(0))
        QubitInput(np.complex128(1.0), complex(0.0))

    def test_refuses_wrong_types_by_name(self):
        # A Decimal is no complex number, a float32 would round the counts to single
        # precision, and True is not an amplitude of 1.
        for bad in (Decimal(1), np.float32(1), np.complex64(1), True, np.bool_(True)):
            for x, y in ((bad, 0.0), (0.0, bad)):
                rule = f"one number each, got .* of the wrong type {type(bad).__name__}$"
                with pytest.raises(ValueError, match=rule):
                    QubitInput(x, y)

    def test_takes_one_number_per_amplitude(self):
        # An array, even of one element, a str or None is rejected by name, at either amplitude.
        for bad in (np.array([1.0]), np.array([1.0, 0.0]), "1", None):
            for x, y in ((bad, 0.0), (0.0, bad)):
                with pytest.raises(ValueError, match="qubit amplitudes must be one number each"):
                    QubitInput(x, y)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            QubitInput(1.0, 0.5)
        with pytest.raises(ValueError, match="not normalized"):
            QubitInput(0.0, 0.0)
        # NaN fails every comparison, so only a check that the norm is within tol rejects it;
        # a squared magnitude past the float range is inf, even where abs() would overflow.
        for x, y in (
            (math.nan, 0.0),
            (1.0, complex(0.0, math.nan)),
            (1e200, 0.0),
            (complex(1.5e308, 1.5e308), 0.0),
        ):
            with pytest.raises(ValueError, match="not normalized"):
                QubitInput(x, y)


class TestPhotonFlux:
    def test_signal_photon_detected(self):
        a_h, _ = ModeRegistry().signal_pair()
        assert photon_flux(annihilator_field(a_h), QubitInput(1.0, 0.0)) == 1.0
        assert photon_flux(annihilator_field(a_h), QubitInput(0.0, 1.0)) == 0.0

    def test_creation_on_vacuum_mode(self):
        f = ModeRegistry().fresh_mode()
        assert photon_flux(dagger(annihilator_field(f)), QubitInput(1.0, 0.0)) == 1.0

    def test_nonnegative_on_random_fields(self, rng, signal_registry, signal_modes):
        for _ in range(30):
            field = random_canonical_field(signal_registry, signal_modes[:6], rng)
            assert photon_flux(field, random_qubit(rng)) >= 0.0


class TestPortCount:
    def test_no_entanglement_unity_gain_anchor(self):
        outputs = build_scenario(ScenarioConfig("a", KIND_CLASSICAL, 1.0, 1.0))
        counts = port_count(outputs.port_a, outputs.port_b, QubitInput(1.0, 0.0))
        assert counts.count_a == pytest.approx(2.0, abs=1e-12)
        assert counts.count_b == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.9])
    def test_zero_gain_counts(self, s):
        H = squeezing_to_H(s)
        outputs = build_scenario(ScenarioConfig("a", KIND_TWO_MODE, 0.0, H))
        counts = port_count(outputs.port_a, outputs.port_b, QubitInput(1.0, 0.0))
        expected = 0.25 + (H - 1.0)
        assert counts.count_a == pytest.approx(expected, abs=1e-12)
        assert counts.count_b == pytest.approx(expected, abs=1e-12)

    def test_counts_validate_sign(self):
        # Each count alone, and as the last of a block of counts over gains.
        for bad in (-0.1, math.nan, math.inf):
            for count in (bad, np.array([0.5, bad])):
                with pytest.raises(ValueError, match="finite and non-negative"):
                    PortCounts(count, 1.0)
                with pytest.raises(ValueError, match="finite and non-negative"):
                    PortCounts(1.0, count)
        # Two blocks of counts over one block of gains have one length.
        with pytest.raises(ValueError, match="photon counts"):
            PortCounts(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        # One number beside a block would broadcast in visibility; it is rejected.
        for pair in ((0.5, np.array([1.0, 2.0])), (np.array([1.0, 2.0]), 0.5)):
            with pytest.raises(ValueError, match="photon counts and a fringe must be numbers or"):
                PortCounts(*pair)
        PortCounts(np.array([0.0, 0.5]), np.array([1.0, 0.0]))

    def test_fringe_is_one_finite_number_shaped_as_the_counts(self):
        assert PortCounts(1.0, 0.25).fringe == 0.75
        assert PortCounts(0.0, 1.0, -math.nextafter(math.inf, 0.0)).fringe < 0.0
        # The value itself is checked, so a bool, a complex number and a str are
        # refused as wrong types, and NaN and either infinity as not finite.
        for bad in (True, 0.5j, "x", Decimal("0.5")):
            with pytest.raises(ValueError, match="a fringe must be finite, got .* wrong type"):
                PortCounts(1.0, 0.5, bad)
        with pytest.raises(ValueError, match="a fringe must be finite, .* wrong type"):
            PortCounts(np.ones(2), np.ones(2), np.array([0.5j, 0.0]))
        for bad in (math.nan, math.inf, -math.inf):
            for count, fringe in ((1.0, bad), (np.ones(2), np.array([0.5, bad]))):
                with pytest.raises(ValueError, match="a fringe must be finite, got"):
                    PortCounts(count, count, fringe)
        for counts, fringe in (
            ((1.0, 0.5), np.array([0.5])),
            ((np.ones(2), np.ones(2)), 0.0),
            ((np.ones(2), np.ones(2)), np.zeros(3)),
        ):
            with pytest.raises(ValueError, match="must be numbers or blocks of one length"):
                PortCounts(*counts, fringe)
        assert PortCounts(np.ones(2), np.ones(2), np.zeros(2)).fringe.tolist() == [0.0, 0.0]

    def test_arms_are_read_once(self):
        # An empty iterator of arms is no arms, as () is, and an iterator of the
        # arms gives the fringe of the arms themselves.
        outputs = build_scenario(ScenarioConfig("a", KIND_TWO_MODE, 0.5, 1.125))
        ports, state = (outputs.port_a, outputs.port_b), QubitInput(1.0, 0.0)
        without_arms = port_count(*ports, state, ())
        assert without_arms.fringe == without_arms.count_a - without_arms.count_b
        assert port_count(*ports, state, iter(())) == without_arms
        with_arms = port_count(*ports, state, outputs.arms)
        assert port_count(*ports, state, iter(outputs.arms)) == with_arms

    def test_non_finite_count_rejected_once(self):
        # A 1e200 creation coefficient squares past the float range; the
        # count is inf, and PortCounts is the one check that rejects it.
        reg = ModeRegistry()
        field = field_from_terms(reg, {reg.fresh_mode(): (0.0, 1e200)})
        with pytest.raises(ValueError, match="finite"):
            port_count([field], [], QubitInput(1.0, 0.0))


class TestVisibility:
    def test_extremes(self):
        assert visibility(PortCounts(1.0, 0.0)) == 1.0
        assert visibility(PortCounts(0.7, 0.7)) == 0.0
        assert visibility(PortCounts(0.0, 1.0)) == -1.0

    def test_zero_flux_is_an_error(self):
        with pytest.raises(ValueError, match="undefined"):
            visibility(PortCounts(0.0, 0.0))

    def test_block_of_counts(self):
        outputs = build_scenario(ScenarioConfig("a", KIND_TWO_MODE, np.array([0.25, 0.5]), 1.125))
        counts = port_count(outputs.port_a, outputs.port_b, QubitInput(1.0, 0.0))
        rows = zip(counts.count_a.tolist(), counts.count_b.tolist())
        assert visibility(counts).tolist() == [visibility(PortCounts(a, b)) for a, b in rows]
        # One dark row leaves the whole block undefined.
        with pytest.raises(ValueError, match="undefined"):
            visibility(PortCounts(np.array([1.0, 0.0]), np.array([0.5, 0.0])))

    def test_classical_peak_point(self):
        # The entanglement-free channel peaks at gain 1/sqrt(5) where the
        # visibility also equals 1/sqrt(5).
        gain = 1.0 / math.sqrt(5.0)
        outputs = build_scenario(ScenarioConfig("a", KIND_CLASSICAL, gain, 1.0))
        counts = port_count(outputs.port_a, outputs.port_b, QubitInput(1.0, 0.0))
        assert visibility(counts) == pytest.approx(gain, abs=1e-12)
