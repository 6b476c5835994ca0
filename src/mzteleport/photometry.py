"""Photon-count expectations for a single-photon polarization input.

The detector model is polarization-insensitive intensity detection: a
port's count is the sum of the per-polarization fluxes at that port.
Under this model the counts, and hence fringe visibility, are identical
for every normalized input polarization, which is what makes the whole
arrangement a state-blind test. One bilinear, ``<psi|F^dag G|psi>``, gives a
flux as its diagonal and the fringe ``count_a - count_b`` as the arms' cross term.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Complex
from typing import Iterable

import numpy as np

from .modes import _ZERO_TERM, LinearField, _sqrt
from .teleporter import _check_range

__all__ = ["QubitInput", "PortCounts", "expectation", "photon_flux", "port_count", "visibility"]

_NORMALIZATION_TOL = 1e-12
_real = operator.attrgetter("real")  # looked up per call: a sympy expression has no .real
_FINITE_MAX = math.nextafter(math.inf, 0.0)  # the largest float; a fringe lies within +/- it


@dataclass(frozen=True)
class QubitInput:
    """Polarization amplitudes: ``x`` on the horizontal signal mode, ``y`` on
    the vertical one; everything else is vacuum. One number each, normalized."""

    x: complex
    y: complex

    def __post_init__(self) -> None:
        x, y = self.x, self.y
        for z in (x, y):  # a bool, or a numpy scalar that would narrow the counts, is not one
            wide = type(z) in (complex, float, int, np.float64, np.complex128, np.int64)
            if not wide and (isinstance(z, (bool, np.generic)) or not isinstance(z, Complex)):
                rule = "qubit amplitudes must be one number each"
                raise ValueError(f"{rule}, got {z!r} of the wrong type {type(z).__name__}")
        # Squared parts, not abs(): a modulus past the float range is then inf, not OverflowError.
        norm = x.real * x.real + x.imag * x.imag + y.real * y.real + y.imag * y.imag
        if not abs(norm - 1.0) <= _NORMALIZATION_TOL:
            raise ValueError(f"qubit amplitudes are not normalized: |x|^2+|y|^2 = {norm!r}")


HORIZONTAL = QubitInput(1.0, 0.0)


@dataclass(frozen=True)
class PortCounts:
    """Expected photons per trial at the two interferometer outputs: finite, non-negative
    numbers, or blocks of them of one length over a block of gains, as
    :func:`teleporter._check_range` decides, and ``count_a - count_b`` (``fringe``)."""

    count_a: float | np.ndarray
    count_b: float | np.ndarray
    fringe: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        a, b, fringe = self.count_a, self.count_b, self.fringe
        for count in (a, b):
            _check_range(count, 0.0, math.inf, "photon counts must be finite and non-negative")
        if fringe is not None:
            _check_range(fringe, -_FINITE_MAX, _FINITE_MAX, "a fringe must be finite")
        shape = getattr(a, "shape", ())
        fringe_shape = shape if fringe is None else getattr(fringe, "shape", ())
        if getattr(b, "shape", ()) != shape or fringe_shape != shape:
            raise ValueError("photon counts and a fringe must be numbers or blocks of one length")
        object.__setattr__(self, "fringe", a - b if fringe is None else fringe)


def expectation(field_f: LinearField, field_g: LinearField, state: QubitInput) -> complex:
    """``<psi|F^dag G|psi>`` on the one-photon state ``c`` (``x``, ``y`` on the signal modes):
    ``conj(A_F) A_G + sum_k conj(v_Fk) v_Gk + conj(S_F) S_G`` over the fields' terms
    ``(u_k, v_k)``, i.e. absorbed signal ``A = sum_k u_k c_k``, spontaneous creation, and
    stimulated creation ``S = sum_k v_k conj(c_k)``."""
    if field_g.registry is not field_f.registry:
        raise ValueError("cannot pair fields from different registries")
    sig_h, sig_v = (mode.index for mode in field_f.registry.signal_pair())
    f_terms, g_terms = field_f.terms, field_g.terms
    x, y, x_bar, y_bar = state.x, state.y, state.x.conjugate(), state.y.conjugate()
    (u_fh, v_fh), (u_fv, v_fv) = f_terms.get(sig_h, _ZERO_TERM), f_terms.get(sig_v, _ZERO_TERM)
    (u_gh, v_gh), (u_gv, v_gv) = g_terms.get(sig_h, _ZERO_TERM), g_terms.get(sig_v, _ZERO_TERM)
    absorbed = (u_fh * x + u_fv * y).conjugate() * (u_gh * x + u_gv * y)
    stimulated = (v_fh * x_bar + v_fv * y_bar).conjugate() * (v_gh * x_bar + v_gv * y_bar)
    spontaneous = 0.0
    for index, (_, v) in f_terms.items():
        spontaneous += v.conjugate() * g_terms.get(index, _ZERO_TERM)[1]
    return absorbed + spontaneous + stimulated


def photon_flux(field: LinearField, state: QubitInput) -> float:
    """``<O^dag O>``, the diagonal of :func:`expectation`: real, or real over a block."""
    return _real(expectation(field, field, state))


def port_count(
    port_a: Iterable[LinearField],
    port_b: Iterable[LinearField],
    state: QubitInput,
    arms: Iterable[tuple[LinearField, LinearField]] = (),
) -> PortCounts:
    """Counts at both ports: per-polarization fluxes summed per port, and their difference,
    unsubtracted if given ``arms``, each polarization's ``c, d`` before the last beamsplitter:
    ports ``h (c +/- d)`` differ by ``4 h^2 Re<c^dag d>``, with ``h`` rounded as they carry it."""
    arms = tuple(arms)  # read once: an empty iterator gives no arms, as () does
    count_a = sum(photon_flux(field, state) for field in port_a)
    count_b = sum(photon_flux(field, state) for field in port_b)
    h = _sqrt(2) / 2
    fringe = sum(4 * (h * h) * _real(expectation(c, d, state)) for c, d in arms) if arms else None
    return PortCounts(count_a, count_b, fringe)


def visibility(counts: PortCounts) -> float | np.ndarray:
    """Fringe contrast ``fringe / (count_a + count_b)``, or its array over a block of
    counts; undefined where both ports are dark, at any row of a block."""
    total = counts.count_a + counts.count_b
    if (total.min() if isinstance(total, np.ndarray) else total) <= 0.0:
        raise ValueError("visibility undefined: no photon flux at either port")
    return _contrast(counts)


def _contrast(counts: PortCounts) -> float | np.ndarray:
    """``fringe / (count_a + count_b)`` unchecked, so a dark row of a block is NaN."""
    return counts.fringe / (counts.count_a + counts.count_b)
