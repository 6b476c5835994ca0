"""Shared helpers: seeded RNG, fields from per-mode terms, random canonical fields, the
commutator, a sweep's rows and the package's square root in mpmath."""

from __future__ import annotations

import types
from typing import Mapping

import mpmath
import numpy as np
import pytest

from mzteleport import QubitInput, modes
from mzteleport.modes import LinearField, ModeId, ModeRegistry


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260811)


@pytest.fixture
def signal_modes() -> list[ModeId]:
    """The two signal modes plus six spare ancillas, on one fresh registry."""
    registry = ModeRegistry()
    return [*registry.signal_pair(), *(registry.fresh_mode() for _ in range(6))]


@pytest.fixture
def signal_registry(signal_modes) -> ModeRegistry:
    """The registry that holds :func:`signal_modes`."""
    return signal_modes[0].registry


def field_from_terms(
    registry: ModeRegistry, terms: Mapping[ModeId, tuple[complex, complex]]
) -> LinearField:
    """Build a field directly from per-mode coefficient pairs."""
    ordered = sorted(terms.items(), key=lambda item: item[0].index)
    if any(mode.registry is not registry for mode, _ in ordered):
        raise ValueError("mode belongs to a different registry")
    return LinearField(registry, {mode.index: (u, v) for mode, (u, v) in ordered})


def random_canonical_field(registry, modes, rng) -> "LinearField":
    """A random field over ``modes`` with self-commutator exactly 1.

    Draws complex (u, v) coefficients and rescales the annihilator part so
    that sum |u|^2 - sum |v|^2 = 1.
    """
    n = len(modes)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    u *= np.sqrt((1.0 + np.sum(np.abs(v) ** 2)) / np.sum(np.abs(u) ** 2))
    return field_from_terms(
        registry, {mode: (u[i], v[i]) for i, mode in enumerate(modes)}
    )


def commutator(field_a: "LinearField", field_b: "LinearField") -> complex:
    """The scalar ``[A, B^dag] = sum_k (u_Ak conj(u_Bk) - v_Ak conj(v_Bk))``.

    A field built by any element chain from fresh inputs is canonical,
    i.e. ``commutator(O, O) == 1``; distinct outputs of one network
    commute, i.e. the cross value is 0.
    """
    if field_a.registry is not field_b.registry:
        raise ValueError("cannot compare fields from different registries")
    total = 0j
    for index in field_a.terms.keys() & field_b.terms.keys():
        ua, va = field_a.terms[index]
        ub, vb = field_b.terms[index]
        total += ua * ub.conjugate() - va * vb.conjugate()
    return total


def table_rows(table) -> list[tuple[float, float, float, float]]:
    """A sweep table's rows as ``(gain, count_a, count_b, visibility)`` tuples of floats."""
    columns = (table.gains, table.count_a, table.count_b, table.visibility)
    return list(zip(*(column.tolist() for column in columns)))


def random_qubit(rng) -> QubitInput:
    amplitudes = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amplitudes /= np.linalg.norm(amplitudes)
    return QubitInput(complex(amplitudes[0]), complex(amplitudes[1]))


def sqrt_in_mpmath(monkeypatch) -> None:
    """Run every square root of the engine and the closed form (``modes._sqrt``) in
    mpmath, at the precision the caller sets."""
    monkeypatch.setattr(modes, "math", types.SimpleNamespace(sqrt=mpmath.sqrt))
