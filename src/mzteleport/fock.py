"""Exact truncated-Fock verification of photon-count expectations.

This module recomputes ``<psi|F^dag G|psi>`` by applying the ladder rules to
explicit Fock basis states, providing a check on the closed-form bilinear
that shares nothing with it beyond the fields' coefficients.

The input state holds one photon, on the two signal modes, and vacuum
elsewhere; the evaluated operator is linear in ladder operators, so its
image reaches at most two photons on a signal mode and one on any other
mode. A cutoff of 3 or more therefore truncates nothing, and the result
is the mathematically exact value, not an approximation.

:func:`oracle_expectation` holds ``|psi>`` and its images as dicts from basis
states to amplitudes. A basis state is one ``int`` with two bits of photon
number (0 to 3, past the two-photon reach) per mode, at bit ``2 * index``
for the mode's registry index. ``|psi>`` has two entries, and each term
``u a + v a^dag`` sends each to at most two basis states, so the image
holds at most four new basis states per term.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import LinearField
from .photometry import QubitInput

__all__ = ["oracle_expectation", "oracle_flux"]

_ROOTS = tuple(math.sqrt(n) for n in range(5))  # sqrt(n) of every photon number the image reaches


def oracle_flux(field: LinearField, state: QubitInput, cutoff: int = 3) -> float:
    """Recompute ``photon_flux``: the diagonal of :func:`oracle_expectation`, exact at every
    ``cutoff >= 3``. A non-finite (overflowed) flux raises ``OverflowError``."""
    if cutoff < 3:
        raise ValueError(f"cutoff must be >= 3 to hold the two-photon image, got {cutoff!r}")
    flux = oracle_expectation(field, field, state).real
    if not (np.isfinite(flux).all() if isinstance(flux, np.ndarray) else math.isfinite(flux)):
        raise OverflowError(f"photon flux overflowed to {flux!r}")
    return flux


def oracle_expectation(field_f: LinearField, field_g: LinearField, state: QubitInput) -> complex:
    """Recompute ``expectation`` as ``sum_k conj((F psi)_k) (G psi)_k`` in Fock space.

    ``|psi>`` has amplitude ``x`` on the one-photon horizontal basis state
    and ``y`` on the vertical one. Each term ``u a + v a^dag`` sends a
    basis state with ``n`` photons on its mode to ``n - 1`` photons with
    amplitude ``u sqrt(n)`` and to ``n + 1`` with ``v sqrt(n + 1)``, added
    into one image. No state exceeds two photons on a mode, so the value is
    exact. Fields over a block of gains give the block of values."""
    if field_g.registry is not field_f.registry:
        raise ValueError("cannot pair fields from different registries")
    sig_h, sig_v = field_f.registry.signal_pair()
    psi = {1 << 2 * sig_h.index: state.x, 1 << 2 * sig_v.index: state.y}
    image_f = _image(field_f, psi)
    image_g = image_f if field_g is field_f else _image(field_g, psi)  # a flux builds one
    return sum((z.conjugate() * image_g.get(k, 0.0) for k, z in image_f.items()), 0.0)


def _image(field: LinearField, psi: dict[int, complex]) -> dict[int, complex]:
    """``M|psi>`` for the field ``M = sum_k u_k a_k + v_k a_k^dag``, basis state to amplitude."""
    image: dict[int, complex] = {}
    for index, (u, v) in field.terms.items():
        shift = 2 * index
        one = 1 << shift
        for basis, amplitude in psi.items():
            n = basis >> shift & 3
            if n:
                image[basis - one] = image.get(basis - one, 0.0) + u * _ROOTS[n] * amplitude
            image[basis + one] = image.get(basis + one, 0.0) + v * _ROOTS[n + 1] * amplitude
    return image
