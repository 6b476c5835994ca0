"""Exact identities of the engine, proved with sympy in place of ``math``.

The engine computes with ``+ - * /``, ``abs``, ``conjugate`` and ``math.sqrt``
only, so with sympy's ``sqrt`` standing in for ``math`` every network evaluates to
exact expressions in the gain ``g``, the pump gain ``H = 1 + K``, the
transmission ``eta = t^2 / (1 + t^2)`` and the qubit
``(x, y) = (cos(theta), exp(i phi) sin(theta))``. Each test reduces an
identity to exactly zero on one layout/source pair: the network's counts
equal the closed form for every qubit, which is the paper's claim that the
counts do not depend on the input state, and the outputs are canonical and
commute. The float properties in the other files test what a proof does
not: rounding and overflow.
"""

from __future__ import annotations

import types

import pytest
import sympy as sp

from mzteleport import build_scenario, modes, photon_flux, reference_counts, scenarios, teleporter
from mzteleport.modes import commutator
from mzteleport.scenarios import LAYOUTS, ScenarioConfig
from mzteleport.teleporter import KIND_CLASSICAL, KINDS

GAIN, K = sp.symbols("g K", nonnegative=True)
# Positive t puts eta strictly inside (0, 1), where sympy can place it.
T = sp.Symbol("t", positive=True)
THETA, PHI = sp.symbols("theta phi", real=True)

# QubitInput checks its norm in floats; photon_flux reads only x and y.
QUBIT = types.SimpleNamespace(x=sp.cos(THETA), y=sp.exp(sp.I * PHI) * sp.sin(THETA))

PAIRS = [(layout, kind) for layout in LAYOUTS for kind in KINDS]


@pytest.fixture(autouse=True)
def exact_math(monkeypatch):
    """Run the engine's ``math`` calls in sympy: ``sqrt`` exact, ``inf`` as ``oo``."""
    exact = types.SimpleNamespace(sqrt=sp.sqrt, inf=sp.oo, isfinite=lambda value: value.is_finite)
    for module in (modes, teleporter, scenarios):
        monkeypatch.setattr(module, "math", exact)


def symbolic_config(layout: str, kind: str) -> ScenarioConfig:
    H = 1 if kind == KIND_CLASSICAL else 1 + K
    eta = T**2 / (1 + T**2) if layout == "b" else None
    return ScenarioConfig(layout, kind, GAIN, H, eta)


def reduce(expr) -> sp.Expr:
    """Write ``|z|^2`` as ``z conj(z)``, expand, and use ``sin^2 = 1 - cos^2``."""
    expr = expr.replace(
        lambda e: e.is_Pow and isinstance(e.base, sp.Abs) and e.exp == 2,
        lambda e: e.base.args[0] * sp.conjugate(e.base.args[0]),
    )
    return sp.expand(sp.expand(expr).subs(sp.sin(THETA) ** 2, 1 - sp.cos(THETA) ** 2))


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
def test_outputs_canonical_and_commuting(layout, kind):
    fields = build_scenario(symbolic_config(layout, kind)).all_fields
    for i, field_a in enumerate(fields):
        for j, field_b in enumerate(fields):
            assert sp.expand(commutator(field_a, field_b) - int(i == j)).is_zero
