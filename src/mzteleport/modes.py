"""Bosonic input modes and the linear ladder-operator algebra.

A field is a finite sum ``sum_k (u_k a_k + v_k a_k^dag)`` over registered
modes, with real or complex coefficients, or arrays of them over a block of
gains: a coefficient is complex only where an element writes a complex number.
It keeps every term its elements write: where a term cancels (layout c's
dark-port signal) or is scaled by zero (an attenuator's vacuum at
``eta = 1``) it holds ``(0, 0)``. Every optical element
used by the interferometer networks (beamsplitters, squeezers, attenuators,
teleporters) maps such fields to such fields, so an entire network evaluates
to one closed-form field per output port. A registry holds the two signal
modes from the start; an element that needs vacuum inputs draws fresh ones
from its input field's registry, so no two elements can share one.

The algebra checks no physical range (``TeleporterSpec`` and ``ScenarioConfig``
check them once, on construction) and casts no number, so it runs on floats,
arrays and exact sympy expressions alike. It squares by multiplying, never with ``**``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Mapping

import numpy as np

__all__ = [
    "ModeId",
    "ModeRegistry",
    "LinearField",
    "annihilator_field",
    "field_from_terms",
    "combine",
    "dagger",
    "commutator",
    "beamsplitter",
    "two_mode_squeezer",
    "attenuate",
    "quadrature_variances",
]

_ZERO_TERM = (0.0, 0.0)


@dataclass(frozen=True)
class ModeId:
    """Handle for one registered bosonic input mode."""

    index: int
    registry: "ModeRegistry" = dataclass_field(repr=False)


class ModeRegistry:
    """Allocates the input modes of one network.

    Modes 0 and 1 are the (horizontal, vertical) signal modes, where the
    photon state lives, and exist from construction; every mode drawn
    after them enters in vacuum. It is the only mutable object in this
    module; mode handles and fields are immutable values.
    """

    def __init__(self) -> None:
        self._modes = [ModeId(0, self), ModeId(1, self)]

    def fresh_mode(self) -> ModeId:
        """Register a new vacuum mode."""
        mode = ModeId(len(self._modes), self)
        self._modes.append(mode)
        return mode

    def mode(self, index: int) -> ModeId:
        return self._modes[index]

    def signal_pair(self) -> tuple[ModeId, ModeId]:
        """The (horizontal, vertical) signal modes."""
        return self._modes[0], self._modes[1]


@dataclass(frozen=True)
class LinearField:
    """``sum_k (u_k a_k + v_k a_k^dag)`` with sparse real or complex coefficients.

    ``terms`` maps mode index to the pair ``(u, v)``, in index order; a term
    that cancels, or that an element scales by zero, stays as ``(0, 0)``.
    A coefficient may be an array over a block of gains, carried elementwise.
    Instances are immutable values -- all operations return new fields.
    """

    registry: ModeRegistry
    terms: dict[int, tuple[complex, complex]]

    def coefficient(self, mode: ModeId) -> tuple[complex, complex]:
        """The (annihilator, creator) coefficient pair carried on ``mode``."""
        if mode.registry is not self.registry:
            raise ValueError("mode belongs to a different registry")
        return self.terms.get(mode.index, _ZERO_TERM)

    def support(self) -> tuple[ModeId, ...]:
        """The modes the field holds a term on, ordered by index."""
        return tuple(self.registry.mode(i) for i in sorted(self.terms))


def field_from_terms(
    registry: ModeRegistry, terms: Mapping[ModeId, tuple[complex, complex]]
) -> LinearField:
    """Build a field directly from per-mode coefficient pairs."""
    ordered = sorted(terms.items(), key=lambda item: item[0].index)
    if any(mode.registry is not registry for mode, _ in ordered):
        raise ValueError("mode belongs to a different registry")
    return LinearField(registry, {mode.index: (u, v) for mode, (u, v) in ordered})


def annihilator_field(mode: ModeId) -> LinearField:
    """The bare input operator of ``mode`` as a field."""
    return LinearField(mode.registry, {mode.index: (1.0, 0.0)})


def combine(
    coeff_a: complex, field_a: LinearField, coeff_b: complex, field_b: LinearField
) -> LinearField:
    """Termwise linear combination ``coeff_a * field_a + coeff_b * field_b``."""
    if field_a.registry is not field_b.registry:
        raise ValueError("cannot combine fields from different registries")
    terms: dict[int, tuple[complex, complex]] = {}
    for index in sorted(field_a.terms.keys() | field_b.terms.keys()):
        ua, va = field_a.terms.get(index, _ZERO_TERM)
        ub, vb = field_b.terms.get(index, _ZERO_TERM)
        terms[index] = (coeff_a * ua + coeff_b * ub, coeff_a * va + coeff_b * vb)
    return LinearField(field_a.registry, terms)


def dagger(field: LinearField) -> LinearField:
    """Hermitian conjugate: per mode, (u, v) -> (conj(v), conj(u))."""
    terms = {index: (v.conjugate(), u.conjugate()) for index, (u, v) in field.terms.items()}
    return LinearField(field.registry, terms)


def commutator(field_a: LinearField, field_b: LinearField) -> complex:
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


def beamsplitter(
    field_a: LinearField, field_b: LinearField
) -> tuple[LinearField, LinearField]:
    """50:50 beamsplitter: returns ``((A + B)/sqrt2, (A - B)/sqrt2)``."""
    half_root2 = math.sqrt(2) / 2
    out_sum = combine(half_root2, field_a, half_root2, field_b)
    out_diff = combine(half_root2, field_a, -half_root2, field_b)
    return out_sum, out_diff


def two_mode_squeezer(registry: ModeRegistry, H: float) -> tuple[LinearField, LinearField]:
    """Entangled pair at a finite pump gain ``H >= 1`` from two vacuum modes
    ``(f1, f2)`` drawn fresh from ``registry``.

    Returns ``(sqrt(H) f1 + sqrt(H-1) f2^dag, sqrt(H) f2 + sqrt(H-1) f1^dag)``.
    ``H = 1`` is the identity (no entanglement). The caller checks ``H``.
    """
    f1, f2 = registry.fresh_mode(), registry.fresh_mode()
    cosh = math.sqrt(H)
    sinh = math.sqrt(H - 1.0)
    e1 = field_from_terms(registry, {f1: (cosh, 0.0), f2: (0.0, sinh)})
    e2 = field_from_terms(registry, {f2: (cosh, 0.0), f1: (0.0, sinh)})
    return e1, e2


def attenuate(field_d: LinearField, eta: float) -> LinearField:
    """Beam attenuation ``sqrt(eta) D + sqrt(1 - eta) g``, with ``g`` a vacuum mode
    drawn fresh from D's registry, for a transmission ``eta`` in [0, 1] that the
    caller has checked."""
    g = field_d.registry.fresh_mode()
    return combine(_sqrt(eta), field_d, _sqrt(1.0 - eta), annihilator_field(g))


def _sqrt(x):
    """``np.sqrt`` of an array, else ``math.sqrt``, looked up per call so a test can swap it."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def quadrature_variances(field: LinearField) -> tuple[float, float]:
    """Variances of X = a + a^dag and P = -i(a - a^dag) over vacuum inputs.

    ``V_X = sum_k |u_k + conj(v_k)|^2`` and ``V_P = sum_k |u_k - conj(v_k)|^2``;
    a bare annihilator gives (1, 1), the vacuum variance of this convention.
    """
    v_x = 0.0
    v_p = 0.0
    for u, v in field.terms.values():
        x, p = abs(u + v.conjugate()), abs(u - v.conjugate())
        v_x += x * x
        v_p += p * p
    return v_x, v_p
