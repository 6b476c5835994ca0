"""Reference routes that the tests hold :mod:`mzteleport.fock` to.

``ladder_matrix`` is the annihilation operator as a matrix, and
``operator_matrix`` realizes a field as a dense matrix from it.
``uniform_oracle_flux`` is the uniform-cutoff oracle: every mode holds
``|0..cutoff>``, so raising the cutoff really enlarges the space, and
agreement across cutoffs shows that the truncation is exact.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# Dense operator matrices are quadratic in the tensor dimension; cap them
# at cutoff 3 x six modes.
DENSE_DIM_LIMIT = 4096
# A uniform state vector at cutoff 5 on eight modes has 6**8 = 1.7 M cells.
VECTOR_CELL_LIMIT = 2_000_000


def ladder_matrix(cutoff: int) -> np.ndarray:
    """Annihilation matrix on span{|0>, ..., |cutoff>}: entries a[n-1, n] = sqrt(n)."""
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff!r}")
    return np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1).astype(complex)


def operator_matrix(field, cutoff: int) -> np.ndarray:
    """Realize ``sum_k (u_k a_k + v_k a_k^dag)`` as a dense matrix.

    The tensor factors are the field's support modes in index order;
    each term acts as the ladder matrix on its own factor and as the
    identity elsewhere.
    """
    lower = ladder_matrix(cutoff)
    support = sorted(field.terms)
    dim = (cutoff + 1) ** len(support)
    if dim > DENSE_DIM_LIMIT:
        raise ValueError(
            f"dense operator would need a {dim}x{dim} matrix "
            f"(limit {DENSE_DIM_LIMIT}); reduce the support or the cutoff"
        )
    raiser = lower.conj().T
    eye = np.eye(cutoff + 1, dtype=complex)
    total = np.zeros((dim, dim), dtype=complex)
    for position, index in enumerate(support):
        u, v = field.terms[index]
        factors = [eye] * len(support)
        factors[position] = u * lower + v * raiser
        total += reduce(np.kron, factors, np.eye(1, dtype=complex))
    return total


def uniform_oracle_flux(field, state, cutoff: int) -> float:
    """``<psi| M^dag M |psi>`` on ``(cutoff+1)**modes`` cells.

    The modes are the field's support plus both signal modes, every one
    truncated at ``cutoff``. Each term's factor is contracted against its
    own axis of ``|psi>`` and the results are summed into one image.
    """
    sig_h, sig_v = field.registry.signal_pair()
    indices = sorted(set(field.terms) | {sig_h.index, sig_v.index})
    cells = (cutoff + 1) ** len(indices)
    if cells > VECTOR_CELL_LIMIT:
        raise ValueError(f"state vector of {cells} cells exceeds {VECTOR_CELL_LIMIT}")
    axis_of = {index: axis for axis, index in enumerate(indices)}
    psi = np.zeros((cutoff + 1,) * len(indices), dtype=complex)
    for mode, amplitude in ((sig_h, state.x), (sig_v, state.y)):
        occupation = [0] * len(indices)
        occupation[axis_of[mode.index]] = 1
        psi[tuple(occupation)] = amplitude
    lower = ladder_matrix(cutoff)
    raiser = lower.conj().T
    image = np.zeros_like(psi)
    for index, (u, v) in field.terms.items():
        axis = axis_of[index]
        moved = np.tensordot(u * lower + v * raiser, psi, axes=(1, axis))
        image += np.moveaxis(moved, 0, axis)
    return float(np.vdot(image, image).real)
