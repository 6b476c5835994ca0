"""Exact truncated-Fock verification of photon-count expectations.

This module recomputes ``<O^dag O>`` by explicit matrix arithmetic on a
truncated Fock space, providing a check on the closed-form flux formula
that shares nothing with it beyond the field's coefficients.

The input state holds at most one photon per mode and the evaluated
operator is linear in ladder operators, so its image reaches at most two
photons per mode. Any cutoff of 3 or more therefore yields the
mathematically exact value, not an approximation; raising the cutoff
must not change the result.

:func:`oracle_flux` holds the full state vector, ``(cutoff+1)**modes``
cells over the field's modes plus both signal modes. Each term's factor
``u a + v a^dag`` is a ``(cutoff+1)``-square matrix contracted against
its own axis of that vector, so a call costs at most
``modes x (cutoff+1)**modes`` cells of arithmetic.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from .modes import LinearField
from .photometry import QubitInput

__all__ = ["ladder_matrix", "operator_matrix", "oracle_flux"]

# Dense operator matrices are quadratic in the tensor dimension; cap them
# at cutoff 3 x six modes. The flux path below never materializes one.
_DENSE_DIM_LIMIT = 4096
# State vectors are linear in the dimension; this admits cutoff 4 on
# eight modes with room to spare.
_VECTOR_CELL_LIMIT = 4_000_000


def ladder_matrix(cutoff: int) -> np.ndarray:
    """Annihilation matrix on span{|0>, ..., |cutoff>}: entries a[n-1, n] = sqrt(n)."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff!r}")
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(complex)


def operator_matrix(field: LinearField, cutoff: int) -> np.ndarray:
    """Realize ``sum_k (u_k a_k + v_k a_k^dag)`` as a dense matrix.

    The tensor factors are the field's support modes in index order;
    each term acts as the ladder matrix on its own factor and as the
    identity elsewhere. This is the reference the tests hold
    :func:`oracle_flux` to.
    """
    lower = ladder_matrix(cutoff)
    support = field.support()
    dim = (cutoff + 1) ** len(support)
    if dim > _DENSE_DIM_LIMIT:
        raise ValueError(
            f"dense operator would need a {dim}x{dim} matrix "
            f"(limit {_DENSE_DIM_LIMIT}); reduce the support or the cutoff"
        )
    raiser = lower.conj().T
    eye = np.eye(cutoff + 1, dtype=complex)
    total = np.zeros((dim, dim), dtype=complex)
    for position, mode in enumerate(support):
        u, v = field.terms[mode.index]
        factors = [eye] * len(support)
        factors[position] = u * lower + v * raiser
        total += reduce(np.kron, factors, np.eye(1, dtype=complex))
    return total


def oracle_flux(field: LinearField, state: QubitInput, cutoff: int = 3) -> float:
    """Recompute ``photon_flux`` as ``<psi| M^dag M |psi>`` in Fock space.

    ``|psi>`` is the explicit state vector with amplitude ``x`` on the
    one-photon horizontal component and ``y`` on the vertical one, over
    the field's modes plus both signal modes. Each term's single-mode
    factor acts on its own axis of that vector and is added into one
    image; no operator is materialized at full tensor dimension.
    """
    if cutoff < 3:
        raise ValueError(
            f"cutoff must be >= 3 to hold the two-photon image exactly, got {cutoff!r}"
        )
    sig_h, sig_v = field.registry.signal_pair()
    indices = sorted(set(field.terms) | {sig_h.index, sig_v.index})
    dim = cutoff + 1
    cells = dim ** len(indices)
    if cells > _VECTOR_CELL_LIMIT:
        raise ValueError(
            f"state vector with {len(indices)} modes at cutoff {cutoff} exceeds "
            f"{_VECTOR_CELL_LIMIT} cells"
        )
    axis_of = {index: axis for axis, index in enumerate(indices)}

    psi = np.zeros((dim,) * len(indices), dtype=complex)
    component = [0] * len(indices)
    component[axis_of[sig_h.index]] = 1
    psi[tuple(component)] = state.x
    component[axis_of[sig_h.index]] = 0
    component[axis_of[sig_v.index]] = 1
    psi[tuple(component)] = state.y

    lower, raiser = _ladder_pair(cutoff)
    coefficients = np.array(list(field.terms.values()), dtype=complex).reshape(-1, 2)
    factors = coefficients[:, :1, None] * lower + coefficients[:, 1:, None] * raiser
    image = np.zeros(cells, dtype=complex)
    # One scratch vector serves every term: a fresh full-size array per
    # term costs as much in allocation and page faults as the product.
    term = np.empty(cells, dtype=complex)
    for index, factor in zip(field.terms, factors):
        outer = dim ** axis_of[index]
        shape = (outer, dim, cells // (outer * dim))
        _apply_on_axis(factor, psi.reshape(shape), term.reshape(shape))
        image += term
    return float(np.vdot(image, image).real)


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
