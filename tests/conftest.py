"""Shared helpers: seeded RNG and random canonical field construction."""

from __future__ import annotations

import numpy as np
import pytest

from mzteleport import QubitInput
from mzteleport.modes import ModeId, ModeRegistry, field_from_terms


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


def random_qubit(rng) -> QubitInput:
    amplitudes = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    amplitudes /= np.linalg.norm(amplitudes)
    return QubitInput(complex(amplitudes[0]), complex(amplitudes[1]))
