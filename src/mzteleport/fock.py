"""Exact truncated-Fock verification of photon-count expectations.

This module recomputes ``<O^dag O>`` by explicit matrix arithmetic on a
truncated Fock space, providing a check on the closed-form flux formula
that shares nothing with it beyond the field's coefficients.

The input state holds one photon, on the two signal modes, and vacuum
elsewhere; the evaluated operator is linear in ladder operators, so its
image reaches at most two photons on a signal mode and one on any other
mode. Each axis of the state vector holds up to ``cutoff`` photons, but
never more than the input can reach there. Every cutoff of 3 or more
therefore computes the same cells, and the result is the mathematically
exact value, not an approximation.

:func:`oracle_flux` holds the state vector over the field's modes plus
both signal modes: ``3`` levels on each signal axis and ``2`` on every
other axis, so ``9 * 2**(modes - 2)`` cells (288 for a seven-mode field).
Each term's factor ``u a + v a^dag`` is a square matrix on its own axis,
contracted against that axis of the vector, so a call costs at most
``modes x cells`` of arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .modes import LinearField
from .photometry import QubitInput

__all__ = ["ladder_matrix", "oracle_flux"]

# State vectors are linear in the cell count; this admits both signal
# modes plus 18 others (9 * 2**18 cells) and rejects a 19th.
_VECTOR_CELL_LIMIT = 4_000_000


def ladder_matrix(cutoff: int) -> np.ndarray:
    """Annihilation matrix on span{|0>, ..., |cutoff>}: entries a[n-1, n] = sqrt(n)."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff!r}")
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(complex)


def oracle_flux(field: LinearField, state: QubitInput, cutoff: int = 3) -> float:
    """Recompute ``photon_flux`` as ``<psi| M^dag M |psi>`` in Fock space.

    ``|psi>`` is the explicit state vector with amplitude ``x`` on the
    one-photon horizontal component and ``y`` on the vertical one, over
    the field's modes plus both signal modes. Each axis holds up to
    ``cutoff`` photons, but never more than the input can reach there:
    two on a signal mode, one elsewhere. Every ``cutoff >= 3`` thus
    computes the same cells. Each term's single-mode factor acts on its
    own axis and is added into one image; no operator is materialized at
    full tensor dimension. A non-finite (overflowed) flux raises ``OverflowError``.
    """
    if cutoff < 3:
        raise ValueError(
            f"cutoff must be >= 3 to hold the two-photon image exactly, got {cutoff!r}"
        )
    sig_h, sig_v = field.registry.signal_pair()
    signal = (sig_h.index, sig_v.index)
    indices = sorted(set(field.terms) | set(signal))
    dims = [min(cutoff, 2 if index in signal else 1) + 1 for index in indices]
    cells = math.prod(dims)
    if cells > _VECTOR_CELL_LIMIT:
        raise ValueError(
            f"state vector with {len(indices)} modes at cutoff {cutoff} exceeds "
            f"{_VECTOR_CELL_LIMIT} cells"
        )
    axis_of = {index: axis for axis, index in enumerate(indices)}

    psi = np.zeros(dims, dtype=complex)
    component = [0] * len(indices)
    component[axis_of[sig_h.index]] = 1
    psi[tuple(component)] = state.x
    component[axis_of[sig_h.index]] = 0
    component[axis_of[sig_v.index]] = 1
    psi[tuple(component)] = state.y

    image = np.zeros(cells, dtype=complex)
    # One scratch vector serves every term: a fresh full-size array per
    # term costs as much in allocation and page faults as the product.
    term = np.empty(cells, dtype=complex)
    for index, (u, v) in field.terms.items():
        axis = axis_of[index]
        dim = dims[axis]
        lower, raiser = _ladder_pair(dim - 1)
        outer = math.prod(dims[:axis])
        shape = (outer, dim, cells // (outer * dim))
        _apply_on_axis(u * lower + v * raiser, psi.reshape(shape), term.reshape(shape))
        image += term
    flux = float(np.vdot(image, image).real)
    if not math.isfinite(flux):
        raise OverflowError(f"photon flux overflowed to {flux!r}")
    return flux


@lru_cache(maxsize=8)
def _ladder_pair(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(a, a^dag)`` at this cutoff, shared by every oracle call."""
    lower = ladder_matrix(cutoff)
    raiser = lower.conj().T.copy()
    lower.flags.writeable = False
    raiser.flags.writeable = False
    return lower, raiser


def _apply_on_axis(factor: np.ndarray, psi: np.ndarray, out: np.ndarray) -> None:
    """Write ``factor`` applied to the middle axis of ``psi`` into ``out``.

    Both are ``(outer, dim, inner)`` views. A stacked matmul runs one small
    product per leading index, so the stack runs over the shorter of
    ``outer`` and ``inner``.
    """
    if psi.shape[0] <= psi.shape[2]:
        np.matmul(factor, psi, out=out)
    else:
        np.matmul(psi.transpose(2, 0, 1), factor.T, out=out.transpose(2, 0, 1))
