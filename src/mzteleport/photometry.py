"""Photon-count expectations for a single-photon polarization input.

The detector model is polarization-insensitive intensity detection: a
port's count is the sum of the per-polarization fluxes at that port.
Under this model the counts, and hence fringe visibility, are identical
for every normalized input polarization, which is what makes the whole
arrangement a state-blind test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .modes import LinearField

__all__ = ["QubitInput", "PortCounts", "photon_flux", "port_count", "visibility"]

_NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class QubitInput:
    """Polarization amplitudes: ``x`` on the horizontal signal mode, ``y`` on
    the vertical one; everything else is vacuum. Must be normalized."""

    x: complex
    y: complex

    def __post_init__(self) -> None:
        norm = abs(self.x) ** 2 + abs(self.y) ** 2
        if abs(norm - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(f"qubit amplitudes are not normalized: |x|^2+|y|^2 = {norm!r}")


HORIZONTAL = QubitInput(1.0, 0.0)


@dataclass(frozen=True)
class PortCounts:
    """Expected photons per trial at the two interferometer outputs."""

    count_a: float
    count_b: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.count_a < math.inf and 0.0 <= self.count_b < math.inf):
            raise ValueError(
                "photon counts must be finite and non-negative, "
                f"got {self.count_a!r} and {self.count_b!r}"
            )


def photon_flux(field: LinearField, state: QubitInput) -> float:
    """Expectation of ``O^dag O`` on the one-photon polarization state.

    With amplitude vector ``c`` (``x`` on the horizontal signal mode,
    ``y`` on the vertical one, zero elsewhere) the value is

        ``|sum_k u_k c_k|^2 + sum_k |v_k|^2 + |sum_k v_k conj(c_k)|^2``

    i.e. absorbed signal, spontaneous creation, and the stimulated
    signal-creation cross term.
    """
    sig_h, sig_v = field.registry.signal_pair()
    amplitudes = {sig_h.index: complex(state.x), sig_v.index: complex(state.y)}
    absorbed = 0j
    stimulated = 0j
    spontaneous = 0.0
    for index, (u, v) in field.terms.items():
        c = amplitudes.get(index, 0j)
        absorbed += u * c
        spontaneous += abs(v) ** 2
        stimulated += v * c.conjugate()
    return abs(absorbed) ** 2 + spontaneous + abs(stimulated) ** 2


def port_count(
    port_a: Iterable[LinearField],
    port_b: Iterable[LinearField],
    state: QubitInput,
) -> PortCounts:
    """Counts at both ports: per-polarization fluxes summed per port.

    Every flux is a sum of squared magnitudes, so a count that is not
    finite (inf, or nan once an overflowed coefficient meets a zero
    amplitude) can only come from overflow. It raises ``OverflowError``,
    as an overflowing ``** 2`` in :func:`photon_flux` does.
    """
    count_a = sum(photon_flux(field, state) for field in port_a)
    count_b = sum(photon_flux(field, state) for field in port_b)
    if not (math.isfinite(count_a) and math.isfinite(count_b)):
        raise OverflowError(f"photon counts overflowed to {count_a!r} and {count_b!r}")
    return PortCounts(count_a, count_b)


def visibility(counts: PortCounts) -> float:
    """Fringe contrast ``(count_a - count_b) / (count_a + count_b)``."""
    total = counts.count_a + counts.count_b
    if total <= 0.0:
        raise ValueError("visibility undefined: no photon flux at either port")
    return (counts.count_a - counts.count_b) / total
