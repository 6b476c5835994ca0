"""Teleporter channels, gain conversions, and coherent-state fidelity."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import field_from_terms
from mzteleport import (
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    ScenarioConfig,
    coherent_fidelity,
    H_to_squeezing,
    optimal_gain,
    squeezing_to_H,
    teleport_composed,
)
from mzteleport.modes import (
    ModeId,
    ModeRegistry,
    annihilator_field,
    attenuate,
    combine,
    quadrature_variances,
    two_mode_squeezer,
)
from mzteleport.scenarios import _teleport_arm
from mzteleport.teleporter import (
    GAIN_MAX,
    PUMP_GAIN_MAX,
    _channel_noise,
    check_channel,
    noise_amplitudes,
    teleport_single_squeezer,
    teleport_two_mode,
)

# The first float above each bound of the admitted domain.
PAST_GAIN_MAX = math.nextafter(GAIN_MAX, math.inf)
PAST_PUMP_GAIN_MAX = math.nextafter(PUMP_GAIN_MAX, math.inf)


def channel_input():
    """The horizontal signal mode of a new registry, as a channel's input field."""
    return annihilator_field(ModeRegistry().signal_pair()[0])


def drawn_pair(c):
    """The ancilla pair the first channel call on :func:`channel_input` draws."""
    return ModeId(2, c.registry), ModeId(3, c.registry)


class TestChannelCheck:
    def test_classical_pins_pump_gain(self):
        check_channel(KIND_CLASSICAL, 0.5, 1.0)
        with pytest.raises(ValueError, match="exactly 1"):
            check_channel(KIND_CLASSICAL, 0.5, 1.125)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="kind"):
            check_channel("entangled", 1.0, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            check_channel(KIND_TWO_MODE, -0.1, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            check_channel(KIND_TWO_MODE, 1.0, 0.9)
        with pytest.raises(ValueError, match=">= 0"):
            check_channel(KIND_TWO_MODE, math.nan, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            check_channel(KIND_TWO_MODE, 1.0, math.nan)
        with pytest.raises(ValueError, match=">= 0"):
            check_channel(KIND_TWO_MODE, math.inf, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            check_channel(KIND_TWO_MODE, 1.0, math.inf)
        with pytest.raises(ValueError, match=">= 0"):
            check_channel(KIND_TWO_MODE, PAST_GAIN_MAX, 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            check_channel(KIND_TWO_MODE, 1.0, PAST_PUMP_GAIN_MAX)
        check_channel(KIND_TWO_MODE, GAIN_MAX, PUMP_GAIN_MAX)

    def test_rejects_bad_pump_gain(self):
        # The squeezer's pump gain is checked here, once; the squeezer itself checks nothing.
        for kind in (KIND_TWO_MODE, KIND_SINGLE_SQUEEZER):
            for H in (0.5, math.nan, math.inf, PAST_PUMP_GAIN_MAX):
                with pytest.raises(ValueError, match=">= 1"):
                    check_channel(kind, 1.0, H)


# Each element and the number of vacuum modes it draws from its input's registry.
DRAWING_ELEMENTS = {
    "attenuate": (lambda c: [attenuate(c, 0.5)], 1),
    "two_mode_squeezer": (lambda c: two_mode_squeezer(c.registry, 2.0), 2),
    "two_mode_noise": (lambda c: [_channel_noise(KIND_TWO_MODE, 0.5, 2.0, c.registry)], 2),
    "single_squeezer_noise": (
        lambda c: [_channel_noise(KIND_SINGLE_SQUEEZER, 0.5, 2.0, c.registry)],
        2,
    ),
    "teleport_two_mode": (lambda c: [teleport_two_mode(c, 0.5, 2.0)], 2),
    "teleport_single_squeezer": (lambda c: [teleport_single_squeezer(c, 0.5, 2.0)], 2),
    "teleport_composed": (lambda c: [teleport_composed(c, 0.5, 2.0)], 2),
}
# The elements whose outputs hold only the modes they draw, not their input's.
REGISTRY_ONLY = {"two_mode_squeezer", "two_mode_noise", "single_squeezer_noise"}


@pytest.mark.parametrize("name", DRAWING_ELEMENTS)
def test_element_draws_exactly_its_own_modes(name):
    # The input sits on a signal mode and one vacuum mode; a probe mode drawn
    # before the call stands for another element's ancilla, which the
    # element's output must not touch. Each output writes its terms in index order.
    element, drawn = DRAWING_ELEMENTS[name]
    reg = ModeRegistry()
    a_h, _ = reg.signal_pair()
    c = field_from_terms(reg, {a_h: (0.8, 0.0), reg.fresh_mode(): (0.6, 0.0)})
    probe = reg.fresh_mode().index
    outputs = element(c)
    new = set(range(probe + 1, reg.fresh_mode().index))
    assert len(new) == drawn
    support = set().union(*(out.terms.keys() for out in outputs))
    input_support = set() if name in REGISTRY_ONLY else c.terms.keys()
    assert support == input_support | new
    for out in outputs:
        indices = list(out.terms)
        assert all(low < high for low, high in zip(indices, indices[1:]))


class TestTwoModeChannel:
    def test_unity_gain_no_entanglement(self):
        c = channel_input()
        out = teleport_two_mode(c, 1.0, 1.0)
        f1, f2 = drawn_pair(c)
        assert out.terms[sorted(c.terms)[0]] == (1.0, 0.0)
        assert out.coefficient(f1) == (0.0, 1.0)
        assert out.coefficient(f2) == (1.0, 0.0)

    def test_pure_attenuation_point(self):
        # At the optimal gain the creation-side amplitude vanishes and the
        # channel is an attenuator of transmission gain^2 on a relabeled
        # vacuum mode.
        c = channel_input()
        gain = optimal_gain(1.125)
        assert gain == 1 / 3
        out = teleport_two_mode(c, gain, 1.125)
        f1, f2 = drawn_pair(c)
        assert abs(out.coefficient(f1)[1]) <= 1e-15
        assert out.coefficient(f2)[0] == pytest.approx(
            math.sqrt(1.0 - gain * gain), abs=1e-15
        )

    def test_classical_kind_equals_two_mode_at_unit_pump(self):
        # The maps a teleported arm runs for the two kinds, at H = 1.
        classical, two_mode = (
            _teleport_arm(channel_input(), ScenarioConfig("a", kind, 0.7, 1.0))
            for kind in (KIND_CLASSICAL, KIND_TWO_MODE)
        )
        assert classical.terms == two_mode.terms

    def test_strong_squeezing_noise_shrinks(self):
        # At unity gain both noise amplitudes equal 1/(sqrt(H)+sqrt(H-1)),
        # so the total weight is bounded by 1/sqrt(H-1) and ~ 1/sqrt(H).
        weights = []
        for H in (10.0, 100.0, 1e4):
            c = channel_input()
            out = teleport_two_mode(c, 1.0, H)
            f1, f2 = drawn_pair(c)
            weight = abs(out.coefficient(f1)[1]) + abs(out.coefficient(f2)[0])
            assert weight <= 1.0 / math.sqrt(H - 1.0)
            weights.append(weight)
        assert weights == sorted(weights, reverse=True)


class TestSingleSqueezerChannel:
    def test_zero_gain_form(self):
        c = channel_input()
        H = 2.0
        out = teleport_single_squeezer(c, 0.0, H)
        f1, f2 = drawn_pair(c)
        r = math.sqrt(0.5)
        assert out.terms[sorted(c.terms)[0]] == (0.0, 0.0)
        u1, v1 = out.coefficient(f1)
        assert u1 == pytest.approx(math.sqrt(H) * r, abs=1e-15)
        assert v1 == pytest.approx(-math.sqrt(H - 1.0) * r, abs=1e-15)
        assert out.coefficient(f2) == (r, 0.0)

    def test_unity_gain_noise_is_single_quadrature(self):
        # With 87.5% squeezing all added noise sits in one quadrature:
        # variances (2.25, 0).
        c = channel_input()
        out = teleport_single_squeezer(c, 1.0, squeezing_to_H(0.875))
        noise = combine(1.0, out, -1.0, c)
        v_x, v_p = quadrature_variances(noise)
        assert v_x == pytest.approx(2.25, abs=1e-12)
        assert v_p == 0.0


class TestComposedChannel:
    def test_strong_squeezing_limit(self):
        c = channel_input()
        out = teleport_composed(c, 1.0, 1e4)
        f1, f2 = drawn_pair(c)
        assert abs(out.terms[sorted(c.terms)[0]][0]) == pytest.approx(1.0, abs=1e-12)
        creation_weight = abs(out.coefficient(f1)[1]) + abs(out.coefficient(f2)[1])
        assert creation_weight <= 0.006

    def test_no_entanglement_noise_variances(self):
        c = channel_input()
        out = teleport_composed(c, 1.0, 1.0)
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
        creation_amp, _ = noise_amplitudes(optimal_gain(H), H)
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
        assert coherent_fidelity(KIND_CLASSICAL, 1.0) == 0.5

    def test_two_mode_half_squeezing(self):
        fidelity = coherent_fidelity(KIND_TWO_MODE, squeezing_to_H(0.5))
        assert fidelity == pytest.approx(2 / 3, abs=1e-12)

    def test_single_squeezer_matched_point(self):
        value = coherent_fidelity(KIND_SINGLE_SQUEEZER, squeezing_to_H(0.875))
        assert value == pytest.approx(2.0 / math.sqrt(8.5), abs=1e-12)
        assert value == pytest.approx(0.686, abs=5e-4)

    @settings(deadline=None)
    @given(st.floats(0.0, 1.0, exclude_max=True))
    def test_closed_forms(self, s):
        # The closed forms `bench/checks.py` checks the CLI's fidelity rows
        # against, at the squeezing the pump gain holds: H - 1 ~ s^2/4 is
        # held to only ~1e-16 absolute, so a small s is not carried exactly.
        H = squeezing_to_H(s)
        two_mode = coherent_fidelity(KIND_TWO_MODE, H)
        single = coherent_fidelity(KIND_SINGLE_SQUEEZER, H)
        s = H_to_squeezing(H)
        assert two_mode == pytest.approx(1.0 / (2.0 - s), abs=1e-12)
        assert single == pytest.approx(1.0 / math.sqrt(3.0 - s), abs=1e-12)

    def test_fidelity_and_composed_route_check_their_channel(self):
        # Free functions that take raw values check them; the channel maps take checked ones.
        with pytest.raises(ValueError, match="exactly 1"):
            coherent_fidelity(KIND_CLASSICAL, 1.125)
        with pytest.raises(ValueError, match=">= 0"):
            teleport_composed(channel_input(), -0.5, 1.125)
        block = np.array([1.125, 2.0])
        with pytest.raises(ValueError, match="pump gain.* of the wrong type ndarray"):
            coherent_fidelity(KIND_TWO_MODE, block)
        with pytest.raises(ValueError, match="pump gain.* of the wrong type ndarray"):
            teleport_composed(channel_input(), 1.0, block)
