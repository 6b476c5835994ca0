"""Teleporter channels, gain conversions, and coherent-state fidelity."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzteleport import (
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    TeleporterSpec,
    coherent_fidelity,
    H_to_squeezing,
    optimal_gain,
    squeezing_to_H,
    teleport_composed,
)
from mzteleport.modes import (
    ModeRegistry,
    annihilator_field,
    combine,
    quadrature_variances,
)
from mzteleport.teleporter import (
    GAIN_MAX,
    PUMP_GAIN_MAX,
    noise_amplitudes,
    teleport_single_squeezer,
    teleport_two_mode,
)

# The first float above each bound of the admitted domain.
PAST_GAIN_MAX = math.nextafter(GAIN_MAX, math.inf)
PAST_PUMP_GAIN_MAX = math.nextafter(PUMP_GAIN_MAX, math.inf)


def channel_fixture():
    """One input field and one fresh ancilla pair on a new registry."""
    reg = ModeRegistry()
    c = annihilator_field(reg.fresh_mode("c"))
    f1 = reg.fresh_mode("f1")
    f2 = reg.fresh_mode("f2")
    return c, f1, f2


class TestSpec:
    def test_classical_pins_pump_gain(self):
        TeleporterSpec(KIND_CLASSICAL, 0.5, 1.0)
        with pytest.raises(ValueError, match="exactly 1"):
            TeleporterSpec(KIND_CLASSICAL, 0.5, 1.125)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="kind"):
            TeleporterSpec("entangled", 1.0, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            TeleporterSpec(KIND_TWO_MODE, -0.1, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            TeleporterSpec(KIND_TWO_MODE, 1.0, 0.9)
        with pytest.raises(ValueError, match=">= 0"):
            TeleporterSpec(KIND_TWO_MODE, math.nan, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            TeleporterSpec(KIND_TWO_MODE, 1.0, math.nan)
        with pytest.raises(ValueError, match=">= 0"):
            TeleporterSpec(KIND_TWO_MODE, math.inf, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            TeleporterSpec(KIND_TWO_MODE, 1.0, math.inf)
        with pytest.raises(ValueError, match=">= 0"):
            TeleporterSpec(KIND_TWO_MODE, PAST_GAIN_MAX, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            TeleporterSpec(KIND_TWO_MODE, 1.0, PAST_PUMP_GAIN_MAX)
        TeleporterSpec(KIND_TWO_MODE, GAIN_MAX, PUMP_GAIN_MAX)

    def test_rejects_bad_pump_gain(self):
        # The squeezer's pump gain is checked here, once; the squeezer itself checks nothing.
        for kind in (KIND_TWO_MODE, KIND_SINGLE_SQUEEZER):
            for H in (0.5, math.nan, math.inf, PAST_PUMP_GAIN_MAX):
                with pytest.raises(ValueError, match=">= 1"):
                    TeleporterSpec(kind, 1.0, H)

    def test_kind_routing_enforced(self):
        c, f1, f2 = channel_fixture()
        single = TeleporterSpec(KIND_SINGLE_SQUEEZER, 1.0, 2.0)
        with pytest.raises(ValueError, match="two-mode channel"):
            teleport_two_mode(c, single, f1, f2)
        two_mode = TeleporterSpec(KIND_TWO_MODE, 1.0, 2.0)
        with pytest.raises(ValueError, match="single-squeezer channel"):
            teleport_single_squeezer(c, two_mode, f1, f2)
        classical = TeleporterSpec(KIND_CLASSICAL, 1.0, 1.0)
        with pytest.raises(ValueError, match="composed channel"):
            teleport_composed(c, classical, f1, f2)

    @pytest.mark.parametrize(
        "teleport, kind, H",
        [
            (teleport_two_mode, KIND_TWO_MODE, 2.0),
            (teleport_two_mode, KIND_CLASSICAL, 1.0),
            (teleport_single_squeezer, KIND_SINGLE_SQUEEZER, 2.0),
        ],
    )
    def test_foreign_ancillas_rejected(self, teleport, kind, H):
        # Ancillas of another network must not land on this network's modes.
        c, _, _ = channel_fixture()
        _, f1, f2 = channel_fixture()
        with pytest.raises(ValueError, match="different registries"):
            teleport(c, TeleporterSpec(kind, 0.5, H), f1, f2)


class TestTwoModeChannel:
    def test_unity_gain_no_entanglement(self):
        c, f1, f2 = channel_fixture()
        spec = TeleporterSpec(KIND_CLASSICAL, 1.0, 1.0)
        out = teleport_two_mode(c, spec, f1, f2)
        assert out.coefficient(c.support()[0]) == (1.0, 0.0)
        assert out.coefficient(f1) == (0.0, 1.0)
        assert out.coefficient(f2) == (1.0, 0.0)

    def test_pure_attenuation_point(self):
        # At the optimal gain the creation-side amplitude vanishes and the
        # channel is an attenuator of transmission gain^2 on a relabeled
        # vacuum mode.
        c, f1, f2 = channel_fixture()
        gain = optimal_gain(1.125)
        assert gain == 1 / 3
        out = teleport_two_mode(c, TeleporterSpec(KIND_TWO_MODE, gain, 1.125), f1, f2)
        assert abs(out.coefficient(f1)[1]) <= 1e-15
        assert out.coefficient(f2)[0] == pytest.approx(
            math.sqrt(1.0 - gain * gain), abs=1e-15
        )

    def test_classical_kind_equals_two_mode_at_unit_pump(self):
        c1, f1a, f2a = channel_fixture()
        c2, f1b, f2b = channel_fixture()
        classical = teleport_two_mode(c1, TeleporterSpec(KIND_CLASSICAL, 0.7, 1.0), f1a, f2a)
        two_mode = teleport_two_mode(c2, TeleporterSpec(KIND_TWO_MODE, 0.7, 1.0), f1b, f2b)
        assert classical.terms == two_mode.terms

    def test_strong_squeezing_noise_shrinks(self):
        # At unity gain both noise amplitudes equal 1/(sqrt(H)+sqrt(H-1)),
        # so the total weight is bounded by 1/sqrt(H-1) and ~ 1/sqrt(H).
        weights = []
        for H in (10.0, 100.0, 1e4):
            c, f1, f2 = channel_fixture()
            out = teleport_two_mode(c, TeleporterSpec(KIND_TWO_MODE, 1.0, H), f1, f2)
            weight = abs(out.coefficient(f1)[1]) + abs(out.coefficient(f2)[0])
            assert weight <= 1.0 / math.sqrt(H - 1.0)
            weights.append(weight)
        assert weights == sorted(weights, reverse=True)


class TestSingleSqueezerChannel:
    def test_zero_gain_form(self):
        c, f1, f2 = channel_fixture()
        H = 2.0
        out = teleport_single_squeezer(c, TeleporterSpec(KIND_SINGLE_SQUEEZER, 0.0, H), f1, f2)
        r = math.sqrt(0.5)
        assert out.coefficient(c.support()[0]) == (0.0, 0.0)
        u1, v1 = out.coefficient(f1)
        assert u1 == pytest.approx(math.sqrt(H) * r, abs=1e-15)
        assert v1 == pytest.approx(-math.sqrt(H - 1.0) * r, abs=1e-15)
        assert out.coefficient(f2) == (r, 0.0)

    def test_unity_gain_noise_is_single_quadrature(self):
        # With 87.5% squeezing all added noise sits in one quadrature:
        # variances (2.25, 0).
        c, f1, f2 = channel_fixture()
        spec = TeleporterSpec(KIND_SINGLE_SQUEEZER, 1.0, squeezing_to_H(0.875))
        out = teleport_single_squeezer(c, spec, f1, f2)
        noise = combine(1.0, out, -1.0, c)
        v_x, v_p = quadrature_variances(noise)
        assert v_x == pytest.approx(2.25, abs=1e-12)
        assert v_p == 0.0


class TestComposedChannel:
    def test_strong_squeezing_limit(self):
        c, f1, f2 = channel_fixture()
        out = teleport_composed(c, TeleporterSpec(KIND_TWO_MODE, 1.0, 1e4), f1, f2)
        assert abs(out.coefficient(c.support()[0])[0]) == pytest.approx(1.0, abs=1e-12)
        creation_weight = abs(out.coefficient(f1)[1]) + abs(out.coefficient(f2)[1])
        assert creation_weight <= 0.006

    def test_no_entanglement_noise_variances(self):
        c, f1, f2 = channel_fixture()
        out = teleport_composed(c, TeleporterSpec(KIND_TWO_MODE, 1.0, 1.0), f1, f2)
        noise = combine(1.0, out, -1.0, c)
        v_x, v_p = quadrature_variances(noise)
        assert v_x == pytest.approx(2.0, abs=1e-12)
        assert v_p == pytest.approx(2.0, abs=1e-12)


class TestOperatingPoints:
    def test_optimal_gain_values(self):
        assert optimal_gain(1.0) == 0.0
        assert optimal_gain(1.125) == 1 / 3
        for H in (0.9, math.nan, math.inf, PAST_PUMP_GAIN_MAX):
            with pytest.raises(ValueError, match=">= 1"):
                optimal_gain(H)

    @pytest.mark.parametrize("H", [1.0, 1.125, 2.53125, 3.025, 10.0])
    def test_optimal_gain_zeroes_creation_amplitude(self, H):
        spec = TeleporterSpec(KIND_TWO_MODE, optimal_gain(H), H)
        creation_amp, _ = noise_amplitudes(spec.gain, spec.H)
        assert abs(creation_amp) <= 1e-15

    def test_squeezing_conversions(self):
        assert squeezing_to_H(0.0) == 1.0
        assert squeezing_to_H(0.5) == 1.125
        assert squeezing_to_H(0.875) == 2.53125
        assert squeezing_to_H(0.9) == pytest.approx(3.025, abs=1e-12)
        # The plain formula rounds to 0.9999999999999999 here, an invalid pump gain.
        assert squeezing_to_H(2.806881719332319e-16) == 1.0
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            squeezing_to_H(1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            squeezing_to_H(-0.25)
        for H in (0.9, math.nan, math.inf, PAST_PUMP_GAIN_MAX):
            with pytest.raises(ValueError, match=">= 1"):
                H_to_squeezing(H)

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 0.75, 0.875, 0.9, 0.9999])
    def test_conversion_roundtrip(self, s):
        assert H_to_squeezing(squeezing_to_H(s)) == pytest.approx(s, abs=1e-12)

    @given(st.floats(1.0, PUMP_GAIN_MAX))
    @example(PUMP_GAIN_MAX)
    def test_squeezing_of_any_pump_gain_is_a_fraction(self, H):
        assert 0.0 <= H_to_squeezing(H) <= 1.0


class TestCoherentFidelity:
    def test_classical_bound(self):
        assert coherent_fidelity(TeleporterSpec(KIND_CLASSICAL, 1.0, 1.0)) == 0.5

    def test_two_mode_half_squeezing(self):
        spec = TeleporterSpec(KIND_TWO_MODE, 1.0, squeezing_to_H(0.5))
        assert coherent_fidelity(spec) == pytest.approx(2 / 3, abs=1e-12)

    def test_single_squeezer_matched_point(self):
        spec = TeleporterSpec(KIND_SINGLE_SQUEEZER, 1.0, squeezing_to_H(0.875))
        value = coherent_fidelity(spec)
        assert value == pytest.approx(2.0 / math.sqrt(8.5), abs=1e-12)
        assert value == pytest.approx(0.686, abs=5e-4)

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    def test_closed_forms(self, s):
        # The closed forms `bench/checks.py` checks the CLI's fidelity rows
        # against, at the squeezing the pump gain holds: H - 1 ~ s^2/4 is
        # held to only ~1e-16 absolute, so a small s is not carried exactly.
        H = squeezing_to_H(s)
        two_mode = coherent_fidelity(TeleporterSpec(KIND_TWO_MODE, 1.0, H))
        single = coherent_fidelity(TeleporterSpec(KIND_SINGLE_SQUEEZER, 1.0, H))
        s = H_to_squeezing(H)
        assert two_mode == pytest.approx(1.0 / (2.0 - s), abs=1e-12)
        assert single == pytest.approx(1.0 / math.sqrt(3.0 - s), abs=1e-12)

    def test_requires_unity_gain(self):
        with pytest.raises(ValueError, match="unity gain"):
            coherent_fidelity(TeleporterSpec(KIND_TWO_MODE, 0.9, 1.125))
