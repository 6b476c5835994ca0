"""Exact identities of the engine, proved with sympy's ``sqrt`` in ``modes.math``.

The engine computes with ``+ - * /``, ``abs``, ``conjugate``, ``modes._sqrt`` and a
real part (``photometry._real``) only, so with sympy's ``sqrt`` and ``re``
standing in for them every network evaluates to exact expressions in the gain
``g``, the pump gain ``H = 1 + K``, the transmission ``eta = t^2 / (1 + t^2)`` and
the qubit ``(x, y) = (cos(theta), exp(i phi) sin(theta))``. Each test reduces an
identity to exactly zero on one layout/source pair: the network's counts equal the
closed form for every qubit, which is the paper's claim that the counts do not
depend on the input state, the arms' cross term is the closed form's fringe
``t_c t_d`` and ``photon_flux`` the bilinear's real diagonal, and the outputs are
canonical and commute. Four prove the elements' laws for every ``g >= 0`` and
``H = 1 + K``: the teleporter map each kind runs in an arm (``teleport_two_mode`` for
the two-mode and classical kinds, ``teleport_single_squeezer`` for the
single-squeezer kind) keeps a bare annihilator canonical, and the two outputs of
``two_mode_squeezer`` are canonical and commute. Two more state the
attenuator's and the optimal gain's laws: ``attenuate`` maps a general two-mode
field ``D`` to one with ``[A, A^dag] = eta [D, D^dag] + 1 - eta``, so a canonical
field stays canonical for every ``eta`` in (0, 1), and ``optimal_gain(H)`` zeroes
the teleporter's creation amplitude for every ``H = 1 + K``. Three more reduce the
closed forms the package prints or optimizes with: the balanced transmission
is the stationary point of layout-b visibility, the two-mode and classical
fidelity is ``1/(2 - s)``, and the teleporter built from its parts is the
direct map up to one ancilla phase.
Three more prove the paper's operating points for every pump gain: the
dark ports of layouts c and b at the optimal gain, and the classical
visibility of 1/5 in layout c at every gain. The last proves Bob's read-out
for the two-mode and classical kinds: at unity gain in layout c, the
visibility ``V`` fixes the fidelity as ``F = 4V / (1 + 3V)``.
The float properties in the other files test what a proof does not:
rounding and overflow.
"""

from __future__ import annotations

import types

import pytest
import sympy as sp

from conftest import commutator, field_from_terms
from mzteleport import (
    H_to_squeezing,
    build_scenario,
    coherent_fidelity,
    modes,
    optimal_gain,
    photometry,
    photon_flux,
    port_count,
    reference_counts,
    teleport_composed,
    teleporter,
    visibility,
)
from mzteleport.modes import (
    ModeRegistry,
    annihilator_field,
    attenuate,
    two_mode_squeezer,
)
from mzteleport.scenarios import LAYOUTS, ScenarioConfig, _port_noise, _teleport_arm
from mzteleport.teleporter import (
    KIND_CLASSICAL,
    KIND_TWO_MODE,
    KINDS,
    noise_amplitudes,
    teleport_two_mode,
)

GAIN, K = sp.symbols("g K", nonnegative=True)
# Positive t puts eta strictly inside (0, 1), where sympy can place it.
T = sp.Symbol("t", positive=True)
THETA, PHI = sp.symbols("theta phi", real=True)

# QubitInput checks its norm in floats; photon_flux reads only x and y.
QUBIT = types.SimpleNamespace(x=sp.cos(THETA), y=sp.exp(sp.I * PHI) * sp.sin(THETA))

PAIRS = [(layout, kind) for layout in LAYOUTS for kind in KINDS]


@pytest.fixture(autouse=True)
def exact_math(monkeypatch):
    """Run the package's square root (``modes._sqrt``) and real part in sympy, and bound
    the domain by ``oo``.

    Swapping ``modes.math`` alone runs every square root of the engine and the
    closed form in sympy. A float bound cannot be compared with a symbolic gain,
    so the admitted domain's bounds become ``oo``, which every nonnegative
    symbol lies below.
    """
    monkeypatch.setattr(modes, "math", types.SimpleNamespace(sqrt=sp.sqrt))
    monkeypatch.setattr(photometry, "_real", sp.re)
    for bound in ("GAIN_MAX", "PUMP_GAIN_MAX"):
        monkeypatch.setattr(teleporter, bound, sp.oo)
    monkeypatch.setattr(photometry, "_FINITE_MAX", sp.oo)


def pump_gain(kind: str) -> sp.Expr:
    return 1 if kind == KIND_CLASSICAL else 1 + K


def symbolic_config(layout: str, kind: str) -> ScenarioConfig:
    eta = T**2 / (1 + T**2) if layout == "b" else None
    return ScenarioConfig(layout, kind, GAIN, pump_gain(kind), eta)


def reduce(expr) -> sp.Expr:
    """Write ``|z|^2`` as ``z conj(z)``, expand, and use ``sin^2 = 1 - cos^2``."""
    expr = expr.replace(
        lambda e: e.is_Pow and isinstance(e.base, sp.Abs) and e.exp == 2,
        lambda e: e.base.args[0] * sp.conjugate(e.base.args[0]),
    )
    return sp.expand(sp.expand(expr).subs(sp.sin(THETA) ** 2, 1 - sp.cos(THETA) ** 2))


def assert_canonical_and_commuting(fields) -> None:
    """``[O_i, O_j^dag]`` is exactly 1 for ``i == j`` and 0 otherwise."""
    for i, field_a in enumerate(fields):
        for j, field_b in enumerate(fields):
            assert sp.expand(commutator(field_a, field_b) - int(i == j)).is_zero


def test_symbolic_qubit_is_normalized():
    assert reduce(abs(QUBIT.x) ** 2 + abs(QUBIT.y) ** 2) == 1


@pytest.mark.parametrize("layout, kind", PAIRS)
def test_network_equals_closed_form_for_every_qubit(layout, kind):
    config = symbolic_config(layout, kind)
    outputs = build_scenario(config)
    reference = reference_counts(config)
    for port, count in ((outputs.port_a, reference.count_a), (outputs.port_b, reference.count_b)):
        network = sum(photon_flux(field, QUBIT) for field in port)
        assert reduce(network - count).is_zero


@pytest.mark.parametrize("layout, kind", PAIRS)
def test_fringe_is_cross_term_of_arms_for_every_qubit(layout, kind):
    # The arms' cross term equals the closed form's t_c t_d, which is its own
    # count_a - count_b; the network's counts equal the closed form's above.
    config = symbolic_config(layout, kind)
    reference = reference_counts(config)
    outputs = build_scenario(config)
    fringe = port_count(outputs.port_a, outputs.port_b, QUBIT, outputs.arms).fringe
    assert reduce(fringe - reference.fringe).is_zero
    assert reduce(reference.count_a - reference.count_b - reference.fringe).is_zero


@pytest.mark.parametrize("layout, kind", PAIRS)
def test_photon_flux_is_diagonal_of_the_bilinear(layout, kind):
    # The diagonal is real, so taking its real part drops nothing.
    for field in build_scenario(symbolic_config(layout, kind)).all_fields:
        assert reduce(photometry.expectation(field, field, QUBIT) - photon_flux(field, QUBIT)) == 0


@pytest.mark.parametrize("layout, kind", PAIRS)
def test_outputs_canonical_and_commuting(layout, kind):
    assert_canonical_and_commuting(build_scenario(symbolic_config(layout, kind)).all_fields)


@pytest.mark.parametrize("kind", KINDS)
def test_teleported_annihilator_is_canonical(kind):
    # The channel build_scenario runs in a teleported arm, on a bare input.
    signal = annihilator_field(ModeRegistry().fresh_mode())
    assert_canonical_and_commuting([_teleport_arm(signal, symbolic_config("a", kind))])


def test_two_mode_squeezer_outputs_canonical_and_commuting():
    assert_canonical_and_commuting(two_mode_squeezer(ModeRegistry(), 1 + K))


def test_attenuator_keeps_a_canonical_field_canonical():
    # [A, A^dag] = eta [D, D^dag] + 1 - eta for a general two-mode D, so a
    # canonical D stays canonical at every transmission in (0, 1).
    registry = ModeRegistry()
    d1, d2 = registry.fresh_mode(), registry.fresh_mode()
    u1, v1, u2, v2 = sp.symbols("u1 v1 u2 v2")
    field_d = field_from_terms(registry, {d1: (u1, v1), d2: (u2, v2)})
    eta = T**2 / (1 + T**2)
    attenuated = attenuate(field_d, eta)
    law = eta * commutator(field_d, field_d) + 1 - eta
    assert sp.expand(commutator(attenuated, attenuated) - law) == 0


def test_optimal_gain_zeroes_creation_amplitude():
    H = 1 + K
    creation, _ = noise_amplitudes(optimal_gain(H), H)
    assert sp.expand(creation) == 0


@pytest.mark.parametrize("kind", KINDS)
def test_balanced_eta_is_stationary_point_of_visibility(kind):
    # eta = 1 / (1 + t) runs over (0, 1) as t > 0, monotonically, so the
    # visibility is stationary in eta where its slope in t vanishes.
    H = pump_gain(kind)
    fringe = visibility(reference_counts(ScenarioConfig("b", kind, GAIN, H, 1 / (1 + T))))
    assert fringe.has(T)
    balanced = GAIN**2 + 4 * _port_noise(kind, GAIN, H)
    slope = sp.diff(fringe, T).subs(T, 1 / balanced - 1)
    assert sp.cancel(sp.together(slope)) == 0


@pytest.mark.parametrize("kind", [KIND_TWO_MODE, KIND_CLASSICAL])
def test_fidelity_closed_form(kind):
    H = pump_gain(kind)
    fidelity = coherent_fidelity(kind, H)
    assert sp.cancel(sp.together(fidelity - 1 / (2 - H_to_squeezing(H)))) == 0


def test_composed_teleporter_is_direct_map_up_to_ancilla_phase():
    # Homodyne detection and feed-forward give the direct two-mode map,
    # except that f1's creation coefficient changes sign: the relabelling
    # f1 -> -f1 of a private ancilla, which no count sees.
    # On its own registry, each call draws the ancilla pair (f1, f2) at indices 2 and 3.
    composed, direct = (
        channel(annihilator_field(ModeRegistry().signal_pair()[0]), GAIN, 1 + K).terms
        for channel in (teleport_composed, teleport_two_mode)
    )
    assert composed.keys() == direct.keys()
    for index, (u, v) in direct.items():
        sign = -1 if index == 2 else 1
        assert sp.expand(composed[index][0] - u) == 0
        assert sp.expand(composed[index][1] - sign * v) == 0


def network_counts(config: ScenarioConfig) -> tuple[sp.Expr, sp.Expr]:
    """The counts at ports a and b for the symbolic qubit."""
    outputs = build_scenario(config)
    return tuple(
        sum(photon_flux(field, QUBIT) for field in port)
        for port in (outputs.port_a, outputs.port_b)
    )


def test_dual_teleporter_dark_port_at_optimal_gain():
    H = 1 + K
    _, dark = network_counts(ScenarioConfig("c", KIND_TWO_MODE, optimal_gain(H), H))
    assert reduce(dark) == 0


def test_balanced_attenuator_dark_port_at_optimal_gain():
    # eta = g^2 is what eta = "auto" resolves to at the optimal gain.
    H = 1 + K
    gain = optimal_gain(H)
    _, dark = network_counts(ScenarioConfig("b", KIND_TWO_MODE, gain, H, gain**2))
    assert reduce(dark) == 0


def test_dual_teleporter_classical_visibility_is_one_fifth():
    # 5 (a - b) = a + b is V = 1/5 wherever a + b > 0, i.e. for every g > 0.
    bright, dark = network_counts(ScenarioConfig("c", KIND_CLASSICAL, GAIN, 1))
    assert reduce(5 * (bright - dark) - (bright + dark)) == 0


@pytest.mark.parametrize("kind", [KIND_TWO_MODE, KIND_CLASSICAL])
def test_unity_gain_visibility_fixes_fidelity(kind):
    # Bob's read-out: at unity gain in layout c, F = 4V / (1 + 3V), written
    # over the total count as F (4a - 2b) = 4 (a - b). The single-squeezer
    # identity, F^2 = V / (1 - V), fails until that kind's fidelity is fixed
    # (ROADMAP item 15), which also moves its closed form in bench/checks.py.
    H = pump_gain(kind)
    bright, dark = network_counts(ScenarioConfig("c", kind, 1, H))
    fidelity = coherent_fidelity(kind, H)
    identity = fidelity * (4 * bright - 2 * dark) - 4 * (bright - dark)
    assert sp.cancel(sp.together(reduce(identity))) == 0
