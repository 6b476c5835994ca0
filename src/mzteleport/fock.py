"""Exact truncated-Fock verification of photon-count expectations.

This module recomputes ``<O^dag O>`` by applying the ladder rules to
explicit Fock basis states, providing a check on the closed-form flux
formula that shares nothing with it beyond the field's coefficients.

The input state holds one photon, on the two signal modes, and vacuum
elsewhere; the evaluated operator is linear in ladder operators, so its
image reaches at most two photons on a signal mode and one on any other
mode. A cutoff of 3 or more therefore truncates nothing, and the result
is the mathematically exact value, not an approximation.

:func:`oracle_flux` holds ``|psi>`` and its image as dicts from basis
states (photon numbers on the field's modes plus both signal modes) to
amplitudes. ``|psi>`` has two entries, and each term ``u a + v a^dag``
sends each of them to at most two basis states, so the image holds at
most four new basis states per term.
"""

from __future__ import annotations

import math

from .modes import LinearField
from .photometry import QubitInput

__all__ = ["oracle_flux"]


def oracle_flux(field: LinearField, state: QubitInput, cutoff: int = 3) -> float:
    """Recompute ``photon_flux`` as ``<psi| M^dag M |psi>`` in Fock space.

    ``|psi>`` has amplitude ``x`` on the one-photon horizontal basis state
    and ``y`` on the vertical one, over the field's modes plus both signal
    modes. Each term ``u a + v a^dag`` sends a basis state with ``n``
    photons on its mode to ``n - 1`` photons with amplitude ``u sqrt(n)``
    and to ``n + 1`` with ``v sqrt(n + 1)``, added into one image. No
    state exceeds two photons on a mode, so every ``cutoff >= 3`` gives
    the same, exact value. A non-finite (overflowed) flux raises
    ``OverflowError``.
    """
    if cutoff < 3:
        raise ValueError(
            f"cutoff must be >= 3 to hold the two-photon image exactly, got {cutoff!r}"
        )
    sig_h, sig_v = field.registry.signal_pair()
    indices = sorted(set(field.terms) | {sig_h.index, sig_v.index})
    axis_of = {index: axis for axis, index in enumerate(indices)}
    psi = {}
    for mode, amplitude in ((sig_h, state.x), (sig_v, state.y)):
        photons = [0] * len(indices)
        photons[axis_of[mode.index]] = 1
        psi[tuple(photons)] = amplitude

    image: dict[tuple[int, ...], complex] = {}
    for index, (u, v) in field.terms.items():
        axis = axis_of[index]
        for photons, amplitude in psi.items():
            n = photons[axis]
            if n:
                _add(image, photons, axis, n - 1, u * math.sqrt(n) * amplitude)
            _add(image, photons, axis, n + 1, v * math.sqrt(n + 1) * amplitude)
    flux = sum((z.real * z.real + z.imag * z.imag for z in image.values()), 0.0)
    if not math.isfinite(flux):
        raise OverflowError(f"photon flux overflowed to {flux!r}")
    return flux


def _add(image: dict, photons: tuple[int, ...], axis: int, n: int, amplitude: complex) -> None:
    """Add ``amplitude`` to the basis state ``photons`` with ``n`` photons on ``axis``."""
    key = (*photons[:axis], n, *photons[axis + 1 :])
    image[key] = image.get(key, 0.0) + amplitude
