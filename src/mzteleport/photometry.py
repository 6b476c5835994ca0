"""Photon-count expectations for a single-photon polarization input.

The detector model is polarization-insensitive intensity detection: a
port's count is the sum of the per-polarization fluxes at that port.
Under this model the counts, and hence fringe visibility, are identical
for every normalized input polarization, which is what makes the whole
arrangement a state-blind test.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .modes import LinearField
from .teleporter import _check_range

__all__ = ["QubitInput", "PortCounts", "photon_flux", "port_count", "visibility"]

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class QubitInput:
    """Polarization amplitudes: ``x`` on the horizontal signal mode, ``y`` on
    the vertical one; everything else is vacuum. One number each, normalized."""

    x: complex
    y: complex

    def __post_init__(self) -> None:
        x, y = self.x, self.y
        if not (isinstance(x, numbers.Number) and isinstance(y, numbers.Number)):
            raise ValueError(f"qubit amplitudes must be one number each, got {x!r} and {y!r}")
        # Squared parts, not abs(): a modulus past the float range is then inf, not OverflowError.
        norm = x.real * x.real + x.imag * x.imag + y.real * y.real + y.imag * y.imag
        if not abs(norm - 1.0) <= _NORMALIZATION_TOL:
            raise ValueError(f"qubit amplitudes are not normalized: |x|^2+|y|^2 = {norm!r}")


HORIZONTAL = QubitInput(1.0, 0.0)


@dataclass(frozen=True)
class PortCounts:
    """Expected photons per trial at the two interferometer outputs: finite, non-negative
    numbers, or blocks of them of one length over a block of gains, as
    :func:`teleporter._check_range` decides."""

    count_a: float | np.ndarray
    count_b: float | np.ndarray

    def __post_init__(self) -> None:
        a, b = self.count_a, self.count_b
        for count in (a, b):
            _check_range(count, 0.0, math.inf, "photon counts must be finite and non-negative")
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and len(a) != len(b):
            raise ValueError(f"photon counts must be blocks of one length: {len(a)} != {len(b)}")


def photon_flux(field: LinearField, state: QubitInput) -> float:
    """Expectation of ``O^dag O`` on the one-photon polarization state.

    With amplitude vector ``c`` (``x`` on the horizontal signal mode,
    ``y`` on the vertical one, zero elsewhere) the value is

        ``|sum_k u_k c_k|^2 + sum_k |v_k|^2 + |sum_k v_k conj(c_k)|^2``

    i.e. absorbed signal, spontaneous creation, and the stimulated
    signal-creation cross term. ``c`` vanishes off the two signal modes, so
    the first and last sums run over those two alone.
    """
    sig_h, sig_v = field.registry.signal_pair()
    u_h, v_h = field.coefficient(sig_h)
    u_v, v_v = field.coefficient(sig_v)
    absorbed = abs(u_h * state.x + u_v * state.y)
    stimulated = abs(v_h * state.x.conjugate() + v_v * state.y.conjugate())
    spontaneous = 0.0
    for _, v in field.terms.values():
        magnitude = abs(v)
        spontaneous += magnitude * magnitude
    return absorbed * absorbed + spontaneous + stimulated * stimulated


def port_count(
    port_a: Iterable[LinearField],
    port_b: Iterable[LinearField],
    state: QubitInput,
) -> PortCounts:
    """Counts at both ports: per-polarization fluxes summed per port."""
    count_a = sum(photon_flux(field, state) for field in port_a)
    count_b = sum(photon_flux(field, state) for field in port_b)
    return PortCounts(count_a, count_b)


def visibility(counts: PortCounts) -> float | np.ndarray:
    """Fringe contrast ``(count_a - count_b) / (count_a + count_b)``, or its array over
    a block of counts; undefined where both ports are dark, at any row of a block."""
    total = counts.count_a + counts.count_b
    if (total.min() if isinstance(total, np.ndarray) else total) <= 0.0:
        raise ValueError("visibility undefined: no photon flux at either port")
    return (counts.count_a - counts.count_b) / total
