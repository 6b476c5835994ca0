"""Mode registry and linear field algebra."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import commutator, field_from_terms, random_canonical_field
from mzteleport.modes import (
    ModeId,
    ModeRegistry,
    annihilator_field,
    attenuate,
    beamsplitter,
    combine,
    dagger,
    quadrature_variances,
    two_mode_squeezer,
)

INV_SQRT2 = math.sqrt(0.5)


def fresh_registry():
    return ModeRegistry()


class TestRegistry:
    def test_sequential_allocation(self):
        reg = fresh_registry()
        a_h, a_v = reg.signal_pair()
        assert a_h.index == 0
        assert a_v.index == 1
        assert (ModeId(0, reg), ModeId(1, reg)) == (a_h, a_v)
        assert [reg.fresh_mode().index for _ in range(3)] == [2, 3, 4]
        assert reg.signal_pair() == (a_h, a_v)


class TestFieldBasics:
    def test_mode_of_another_registry_rejected(self):
        # A foreign mode would read this registry's mode of the same index,
        # a shared vacuum.
        a, b = fresh_registry(), fresh_registry()
        m, n = a.fresh_mode(), b.fresh_mode()
        assert m.index == n.index and m != n
        with pytest.raises(ValueError, match="different registry"):
            annihilator_field(m).coefficient(n)

    def test_annihilator_field(self):
        reg = fresh_registry()
        a_h, _ = reg.signal_pair()
        field = annihilator_field(a_h)
        assert field.coefficient(a_h) == (1.0, 0.0)
        assert sorted(field.terms) == [a_h.index]
        assert commutator(field, field) == 1.0

    def test_dagger_swaps_and_conjugates(self):
        reg = fresh_registry()
        m = reg.fresh_mode()
        field = annihilator_field(m)
        assert dagger(field).coefficient(m) == (0.0, 1.0)
        scaled = combine(1j, field, 0.0, field)
        assert dagger(scaled).coefficient(m) == (0.0, -1j)

    def test_dagger_is_involution(self):
        reg = fresh_registry()
        m1 = reg.fresh_mode()
        m2 = reg.fresh_mode()
        field = field_from_terms(reg, {m1: (0.3 + 1j, -0.7), m2: (0.0, 2.5j)})
        assert dagger(dagger(field)) == field

    def test_dagger_is_antilinear(self, rng, signal_registry, signal_modes):
        modes = signal_modes[:4]
        field = random_canonical_field(signal_registry, modes, rng)
        alpha = 0.8 - 0.6j
        left = dagger(combine(alpha, field, 0.0, field))
        right = combine(alpha.conjugate(), dagger(field), 0.0, dagger(field))
        assert left == right


class TestCombine:
    def test_additivity(self):
        reg = fresh_registry()
        a_h, _ = reg.signal_pair()
        field = annihilator_field(a_h)
        doubled = combine(1.0, field, 1.0, field)
        assert doubled.coefficient(a_h) == (2.0, 0.0)

    def test_cancellation_keeps_a_zero_term(self):
        reg = fresh_registry()
        a_h, _ = reg.signal_pair()
        field = annihilator_field(a_h)
        zero = combine(1.0, field, -1.0, field)
        assert zero.terms == {0: (0j, 0j)}
        assert sorted(zero.terms) == [a_h.index]

    def test_balanced_mix_coefficients(self):
        reg = fresh_registry()
        a_h, _ = reg.signal_pair()
        b_h = reg.fresh_mode()
        mixed = combine(INV_SQRT2, annihilator_field(a_h), INV_SQRT2, annihilator_field(b_h))
        assert mixed.coefficient(a_h)[0] == pytest.approx(0.7071067811865476, abs=0)
        assert mixed.coefficient(b_h)[0] == pytest.approx(0.7071067811865476, abs=0)

    def test_registry_mismatch_rejected(self):
        field_a = annihilator_field(fresh_registry().fresh_mode())
        field_b = annihilator_field(fresh_registry().fresh_mode())
        with pytest.raises(ValueError, match="different registries"):
            combine(1.0, field_a, 1.0, field_b)

    def test_bilinearity_on_random_fields(self, rng, signal_registry, signal_modes):
        for _ in range(20):
            f = random_canonical_field(signal_registry, signal_modes[:5], rng)
            g = random_canonical_field(signal_registry, signal_modes[2:], rng)
            alpha = complex(*rng.standard_normal(2))
            beta = complex(*rng.standard_normal(2))
            left = combine(alpha, f, beta, g)
            right = combine(1.0, combine(alpha, f, 0.0, g), 1.0, combine(0.0, f, beta, g))
            for mode in signal_modes:
                lu, lv = left.coefficient(mode)
                ru, rv = right.coefficient(mode)
                assert lu == pytest.approx(ru, abs=1e-12)
                assert lv == pytest.approx(rv, abs=1e-12)


class TestCommutator:
    def test_canonical_single_mode(self):
        reg = fresh_registry()
        a_h, a_v = reg.signal_pair()
        assert commutator(annihilator_field(a_h), annihilator_field(a_h)) == 1.0
        assert commutator(annihilator_field(a_h), annihilator_field(a_v)) == 0.0

    def test_random_canonical_fields(self, rng, signal_registry, signal_modes):
        for _ in range(25):
            field = random_canonical_field(signal_registry, signal_modes[:6], rng)
            assert commutator(field, field) == pytest.approx(1.0, abs=1e-12)


class TestBeamsplitter:
    def test_coefficients(self):
        reg = fresh_registry()
        a_h, _ = reg.signal_pair()
        b_h = reg.fresh_mode()
        out_sum, out_diff = beamsplitter(annihilator_field(a_h), annihilator_field(b_h))
        assert out_sum.coefficient(a_h)[0] == pytest.approx(INV_SQRT2, abs=0)
        assert out_sum.coefficient(b_h)[0] == pytest.approx(INV_SQRT2, abs=0)
        assert out_diff.coefficient(a_h)[0] == pytest.approx(INV_SQRT2, abs=0)
        assert out_diff.coefficient(b_h)[0] == pytest.approx(-INV_SQRT2, abs=0)

    def test_outputs_commute(self):
        reg = fresh_registry()
        a_h, _ = reg.signal_pair()
        b_h = reg.fresh_mode()
        out_sum, out_diff = beamsplitter(annihilator_field(a_h), annihilator_field(b_h))
        assert commutator(out_sum, out_diff) == pytest.approx(0.0, abs=1e-15)
        assert commutator(out_sum, out_sum) == pytest.approx(1.0, abs=1e-15)

    def test_involution_recovers_inputs(self, rng, signal_registry, signal_modes):
        f = random_canonical_field(signal_registry, signal_modes[:3], rng)
        g = random_canonical_field(signal_registry, signal_modes[3:6], rng)
        recovered_f, recovered_g = beamsplitter(*beamsplitter(f, g))
        for mode in signal_modes:
            for got, want in zip(recovered_f.coefficient(mode), f.coefficient(mode)):
                assert got == pytest.approx(want, abs=1e-15)
            for got, want in zip(recovered_g.coefficient(mode), g.coefficient(mode)):
                assert got == pytest.approx(want, abs=1e-15)


class TestSqueezers:
    def test_two_mode_identity_at_unit_pump(self):
        reg = fresh_registry()
        e1, e2 = two_mode_squeezer(reg, 1.0)
        # Each output keeps its zero creation term on the other mode.
        assert e1.terms == {2: (1.0, 0.0), 3: (0.0, 0.0)}
        assert e2.terms == {2: (0.0, 0.0), 3: (1.0, 0.0)}

    def test_two_mode_creation_coefficient(self):
        reg = fresh_registry()
        e1, _ = two_mode_squeezer(reg, 1.125)
        f2 = ModeId(3, reg)
        assert e1.coefficient(f2)[1] == pytest.approx(math.sqrt(0.125), abs=0)
        assert e1.coefficient(f2)[1] == pytest.approx(0.35355, abs=5e-6)


class TestAttenuator:
    def test_lossless_is_identity(self):
        reg = fresh_registry()
        d = annihilator_field(reg.fresh_mode())
        # D's term, and a zero on the vacuum mode the attenuator drew.
        assert attenuate(d, 1.0).terms == {2: (1.0, 0.0), 3: (0.0, 0.0)}

    def test_full_block_is_vacuum(self):
        reg = fresh_registry()
        blocked = attenuate(annihilator_field(reg.fresh_mode()), 0.0)
        # The drawn vacuum, and a zero on the blocked input.
        assert blocked.terms == {2: (0.0, 0.0), 3: (1.0, 0.0)}

    @pytest.mark.parametrize("eta", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_stays_canonical(self, eta, rng, signal_registry, signal_modes):
        modes = signal_modes[:4]
        field = random_canonical_field(signal_registry, modes, rng)
        assert commutator(field, field) == pytest.approx(1.0, abs=1e-12)
        attenuated = attenuate(field, eta)
        assert commutator(attenuated, attenuated) == pytest.approx(1.0, abs=1e-12)


class TestQuadratureVariances:
    def test_vacuum(self):
        reg = fresh_registry()
        field = annihilator_field(reg.fresh_mode())
        assert quadrature_variances(field) == (1.0, 1.0)

    def test_classical_channel_noise(self):
        # f1^dag + f2: the added noise of the entanglement-free channel
        # at unity gain contributes one extra vacuum unit per quadrature.
        reg = fresh_registry()
        f1 = reg.fresh_mode()
        f2 = reg.fresh_mode()
        noise = combine(1.0, dagger(annihilator_field(f1)), 1.0, annihilator_field(f2))
        assert quadrature_variances(noise) == (2.0, 2.0)

    def test_empty_field(self):
        reg = fresh_registry()
        m = reg.fresh_mode()
        empty = combine(1.0, annihilator_field(m), -1.0, annihilator_field(m))
        assert quadrature_variances(empty) == (0.0, 0.0)

    # X and P trade places under a = i a': iu + conj(iv) = i(u - conj v).
    # Every channel's coefficients are real, so only complex ones see a
    # dropped conjugate here.
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
                st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_phase_i_swaps_the_quadratures(self, coefficients):
        reg = fresh_registry()
        modes = [reg.fresh_mode() for _ in coefficients]
        field = field_from_terms(reg, dict(zip(modes, coefficients)))
        v_x, v_p = quadrature_variances(field)
        rotated = quadrature_variances(combine(1j, field, 0.0, field))
        assert rotated == pytest.approx((v_p, v_x), rel=1e-12)
