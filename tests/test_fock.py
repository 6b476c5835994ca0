"""Truncated-Fock oracle against the closed-form flux formula."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import commutator, field_from_terms, random_canonical_field, random_qubit
from fock_reference import ladder_matrix, operator_matrix, uniform_oracle_flux
from mzteleport import (
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    QubitInput,
    ScenarioConfig,
    build_scenario,
    optimal_gain,
    oracle_flux,
    photon_flux,
    squeezing_to_H,
)
from mzteleport.photometry import expectation
from mzteleport.fock import oracle_expectation
from mzteleport.modes import (
    ModeRegistry,
    annihilator_field,
    combine,
    dagger,
    quadrature_variances,
)
from mzteleport.scenarios import LAYOUTS


def dense_flux(field, state, cutoff):
    """``<psi| M^dag M |psi>`` with ``M`` from :func:`operator_matrix`.

    ``M`` acts on the field's support only. A signal mode outside the
    support keeps its photon there, so the two polarization components
    stay orthogonal and only add in intensity; when both signal modes are
    inside, they superpose.
    """
    matrix = operator_matrix(field, cutoff)
    support = sorted(field.terms)
    sig_h, sig_v = field.registry.signal_pair()
    images = []
    for mode, amplitude in ((sig_h, state.x), (sig_v, state.y)):
        ket = np.zeros((cutoff + 1,) * len(support), dtype=complex)
        occupation = [0] * len(support)
        if mode.index in support:
            occupation[support.index(mode.index)] = 1
        ket[tuple(occupation)] = amplitude
        images.append(matrix @ ket.reshape(-1))
    if sig_h.index in support and sig_v.index in support:
        images = [images[0] + images[1]]
    return sum(float(np.vdot(image, image).real) for image in images)


def _layout_configs():
    H = squeezing_to_H(0.6)
    for layout in LAYOUTS:
        eta = 0.7 if layout == "b" else None
        yield ScenarioConfig(layout, KIND_TWO_MODE, 0.8, H, eta)
        yield ScenarioConfig(layout, KIND_SINGLE_SQUEEZER, 0.8, H, eta)
        yield ScenarioConfig(layout, KIND_CLASSICAL, 0.8, 1.0, eta)


class TestLadderMatrix:
    def test_smallest_case(self):
        expected = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        assert np.array_equal(ladder_matrix(1), expected)

    def test_lowers_one_photon(self):
        lower = ladder_matrix(3)
        one = np.zeros(4, dtype=complex)
        one[1] = 1.0
        lowered = lower @ one
        assert lowered[0] == 1.0
        assert np.all(lowered[1:] == 0.0)

    @pytest.mark.parametrize("cutoff", [1, 2, 3, 5])
    def test_commutator_below_cutoff(self, cutoff):
        lower = ladder_matrix(cutoff)
        raiser = lower.conj().T
        comm = lower @ raiser - raiser @ lower
        assert np.allclose(np.diag(comm)[:-1], 1.0)
        assert np.allclose(comm - np.diag(np.diag(comm)), 0.0)

    def test_rejects_zero_cutoff(self):
        with pytest.raises(ValueError, match=">= 1"):
            ladder_matrix(0)


class TestOperatorMatrix:
    def test_single_annihilator_embeds_ladder(self):
        mode = ModeRegistry().fresh_mode()
        assert np.array_equal(operator_matrix(annihilator_field(mode), 3), ladder_matrix(3))

    def test_two_mode_mix_against_direct_tensor(self):
        reg = ModeRegistry()
        m_a = reg.fresh_mode()
        m_b = reg.fresh_mode()
        r = math.sqrt(0.5)
        mixed = combine(r, annihilator_field(m_a), r, annihilator_field(m_b))
        matrix = operator_matrix(mixed, 2)
        lower = ladder_matrix(2)
        eye = np.eye(3, dtype=complex)
        direct = r * np.kron(lower, eye) + r * np.kron(eye, lower)
        assert np.allclose(matrix, direct, atol=1e-15)

    def test_dagger_is_conjugate_transpose(self, rng, signal_registry, signal_modes):
        modes = signal_modes[:3]
        for _ in range(10):
            field = random_canonical_field(signal_registry, modes, rng)
            matrix = operator_matrix(field, 3)
            matrix_dag = operator_matrix(dagger(field), 3)
            assert np.allclose(matrix_dag, matrix.conj().T, atol=1e-15)

    def test_resource_guard(self):
        reg = ModeRegistry()
        modes = [reg.fresh_mode() for _ in range(7)]
        wide = field_from_terms(reg, {m: (1.0, 0.0) for m in modes})
        with pytest.raises(ValueError, match="dense operator"):
            operator_matrix(wide, 3)


class TestOracleFlux:
    def test_bare_signal_mode(self):
        sig_h, _ = ModeRegistry().signal_pair()
        assert oracle_flux(annihilator_field(sig_h), QubitInput(1.0, 0.0)) == 1.0

    def test_dark_port_is_exactly_empty(self):
        H = squeezing_to_H(0.5)
        config = ScenarioConfig("c", KIND_TWO_MODE, optimal_gain(H), H)
        outputs = build_scenario(config)
        state = QubitInput(0.6, 0.8)
        for field in outputs.port_b:
            assert oracle_flux(field, state) <= 1e-12
            assert photon_flux(field, state) <= 1e-12

    def test_random_fields_match_formula_and_cutoff(self, rng, signal_registry, signal_modes):
        for _ in range(25):
            size = int(rng.integers(1, 7))
            chosen = [
                signal_modes[i] for i in rng.choice(len(signal_modes), size=size, replace=False)
            ]
            field = random_canonical_field(signal_registry, chosen, rng)
            state = random_qubit(rng)
            formula = photon_flux(field, state)
            exact_3 = oracle_flux(field, state, cutoff=3)
            uniform_4 = uniform_oracle_flux(field, state, cutoff=4)
            assert exact_3 == pytest.approx(formula, abs=1e-10)
            assert exact_3 == pytest.approx(uniform_4, abs=1e-12)

    def test_random_fields_match_dense_operator(self, rng, signal_registry, signal_modes):
        for size in range(1, 7):
            # A six-mode dense matrix at cutoff 3 is 4096^2 complex entries
            # (about 270 MB); cutoff 2 already holds the image of a
            # one-photon-per-mode input exactly.
            dense_cutoff = 3 if size < 6 else 2
            for _ in range(6):
                chosen = [
                    signal_modes[i] for i in rng.choice(len(signal_modes), size=size, replace=False)
                ]
                field = random_canonical_field(signal_registry, chosen, rng)
                state = random_qubit(rng)
                assert oracle_flux(field, state, cutoff=3) == pytest.approx(
                    dense_flux(field, state, dense_cutoff), rel=1e-12, abs=1e-12
                )

    @pytest.mark.parametrize(
        "config", list(_layout_configs()), ids=lambda c: f"{c.layout}-{c.source}"
    )
    def test_every_layout_field_matches_formula(self, config):
        outputs = build_scenario(config)
        state = QubitInput(0.6, 0.8j)
        for field in outputs.all_fields:
            formula = photon_flux(field, state)
            assert oracle_flux(field, state, 3) == pytest.approx(formula, abs=1e-10)
            for cutoff in (4, 5):
                assert uniform_oracle_flux(field, state, cutoff) == pytest.approx(
                    formula, abs=1e-10
                )

    @settings(max_examples=60, deadline=None)
    @given(
        coefficients=st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=6,
        ),
        order=st.permutations(range(8)),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_property_matches_formula(self, coefficients, order, theta, phi):
        reg = ModeRegistry()
        drawn = [*reg.signal_pair(), *(reg.fresh_mode() for _ in range(6))]
        modes = [drawn[i] for i in order]
        field = field_from_terms(reg, dict(zip(modes, coefficients)))
        state = QubitInput(math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
        # The flux is at most sum |u|^2 + 2 sum |v|^2; both routes round relative to it.
        scale = sum(abs(u) ** 2 + 2.0 * abs(v) ** 2 for u, v in field.terms.values())
        assert abs(oracle_flux(field, state) - photon_flux(field, state)) <= 1e-10 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        signals=st.sampled_from([(), (0,), (1,), (0, 1)]),
        spares=st.sets(st.integers(2, 5), max_size=4),
        coefficients=st.lists(
            st.tuples(
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
            ),
            min_size=6,
            max_size=6,
        ),
        cutoff=st.integers(3, 5),
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_property_matches_uniform_cutoff(
        self, signals, spares, coefficients, cutoff, theta, phi
    ):
        # The support holds neither, one or both signal modes; a signal mode
        # outside it still carries the input photon.
        reg = ModeRegistry()
        modes = [*reg.signal_pair(), *(reg.fresh_mode() for _ in range(4))]
        chosen = (*signals, *spares)
        field = field_from_terms(reg, {modes[i]: coefficients[i] for i in chosen})
        state = QubitInput(math.cos(theta), math.sin(theta) * complex(math.cos(phi), math.sin(phi)))
        scale = sum(abs(u) ** 2 + 2.0 * abs(v) ** 2 for u, v in field.terms.values())
        uniform = uniform_oracle_flux(field, state, cutoff)
        assert abs(oracle_flux(field, state, 3) - uniform) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "terms",
        [
            # An overflowed coefficient meets the zero vertical amplitude: nan.
            {1: (math.inf, 0.0), 2: (0.0, 1.0)},
            # Finite coefficients whose squares overflow: inf.
            {0: (1e200, 0.0), 2: (0.0, 1e200)},
        ],
        ids=["nan", "inf"],
    )
    def test_overflow_raises(self, terms):
        # No network in the admitted domain overflows, but the oracle takes
        # any field. It reports an overflow, and without a numpy warning
        # (the suite turns those into errors).
        reg = ModeRegistry()
        modes = [*reg.signal_pair(), reg.fresh_mode()]
        field = field_from_terms(reg, {modes[index]: pair for index, pair in terms.items()})
        with pytest.raises(OverflowError, match="overflowed"):
            oracle_flux(field, QubitInput(1.0, 0.0))
        # The same field as the last gain of a block, after a finite one; here
        # numpy warns of the overflow as well.
        block = {
            modes[index]: (np.array([0.0, u]), np.array([0.0, v]))
            for index, (u, v) in terms.items()
        }
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(OverflowError, match="overflowed"):
                oracle_flux(field_from_terms(reg, block), QubitInput(1.0, 0.0))

    def test_sixteen_modes_fit(self, rng):
        # 14 vacuum modes beside both signal modes, where a uniform cutoff
        # of 3 would need 4**16 cells.
        reg = ModeRegistry()
        modes = [*reg.signal_pair(), *(reg.fresh_mode() for _ in range(14))]
        field = random_canonical_field(reg, modes, rng)
        state = random_qubit(rng)
        scale = sum(abs(u) ** 2 + 2.0 * abs(v) ** 2 for u, v in field.terms.values())
        assert abs(oracle_flux(field, state) - photon_flux(field, state)) <= 1e-10 * scale

    def test_cutoff_floor(self):
        sig_h, _ = ModeRegistry().signal_pair()
        field, state = annihilator_field(sig_h), QubitInput(1.0, 0.0)
        with pytest.raises(ValueError, match=">= 3"):
            oracle_flux(field, state, cutoff=2)
        # Only an integer is a cutoff: a float, even a whole one, a bool, NaN and
        # a string are refused as values, not compared.
        for bad in (3.0, 3.5, math.nan, True, "3", np.float64(4.0)):
            with pytest.raises(ValueError, match="an integer >= 3"):
                oracle_flux(field, state, cutoff=bad)
        assert oracle_flux(field, state, cutoff=np.int64(3)) == oracle_flux(field, state)

    def test_twenty_one_modes_fit(self, rng):
        # Both signal modes and 19 vacuum modes: the image holds a few basis
        # states per term, where a state vector would need 3**2 * 2**19 cells.
        reg = ModeRegistry()
        modes = [*reg.signal_pair(), *(reg.fresh_mode() for _ in range(19))]
        field = random_canonical_field(reg, modes, rng)
        state = random_qubit(rng)
        scale = sum(abs(u) ** 2 + 2.0 * abs(v) ** 2 for u, v in field.terms.values())
        exact = oracle_flux(field, state, cutoff=4)
        assert abs(exact - photon_flux(field, state)) <= 1e-10 * scale


class TestOracleExpectation:
    def test_cross_term_matches_formula(self, rng, signal_registry, signal_modes):
        # Two fields sharing the signal modes and some ancillas, each holding modes the
        # other lacks: the whole complex bilinear, not only the real part a count reads.
        for _ in range(30):
            field_f = random_canonical_field(signal_registry, signal_modes[:5], rng)
            modes_g = signal_modes[:2] + signal_modes[3:]
            field_g = random_canonical_field(signal_registry, modes_g, rng)
            state = random_qubit(rng)
            exact = oracle_expectation(field_f, field_g, state)
            assert abs(exact - expectation(field_f, field_g, state)) <= 1e-12 * max(1.0, abs(exact))

    def test_fields_of_two_registries_refused(self):
        field_f, field_g = (annihilator_field(ModeRegistry().signal_pair()[0]) for _ in range(2))
        for bilinear in (expectation, oracle_expectation):
            with pytest.raises(ValueError, match="cannot pair fields from different registries"):
                bilinear(field_f, field_g, QubitInput(1.0, 0.0))


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    roles=st.lists(st.sampled_from(["term", "zero", "none"]), min_size=7, max_size=7),
    zero=st.sampled_from([(0.0, 0.0), (0j, 0j)]),
)
def test_stored_zeros_change_no_route(seed, roles, zero):
    # A field keeps a (0, 0) term where one cancels, on a signal mode too.
    # Every route adds zero for it; the oracle may sum the vacuum basis
    # state in another place, so it agrees to rounding.
    assume("term" in roles and "zero" in roles)
    rng = np.random.default_rng(seed)
    reg = ModeRegistry()
    modes = [*reg.signal_pair(), *(reg.fresh_mode() for _ in range(5))]
    bare = random_canonical_field(reg, [m for m, r in zip(modes, roles) if r == "term"], rng)
    padded = field_from_terms(
        reg,
        {
            **{modes[index]: pair for index, pair in bare.terms.items()},
            **{m: zero for m, r in zip(modes, roles) if r == "zero"},
        },
    )
    assert len(padded.terms) == roles.count("term") + roles.count("zero")
    other = random_canonical_field(reg, modes, rng)
    state = random_qubit(rng)
    assert photon_flux(padded, state) == photon_flux(bare, state)
    assert commutator(padded, padded) == commutator(bare, bare)
    assert commutator(padded, other) == commutator(bare, other)
    assert quadrature_variances(padded) == quadrature_variances(bare)
    oracle = oracle_flux(bare, state)
    assert abs(oracle_flux(padded, state) - oracle) <= 1e-15 * oracle
