"""Continuous-variable teleporter channels and their operating points.

Three channel families share one parameterization: a feedforward gain
and the pump gain ``H`` of the squeezer supplying the entanglement.
``H = 1`` means no squeezing, which is the classical (entanglement-free)
channel. The squeezing fraction ``s`` is the noise-variance reduction
``(sqrt(H) - sqrt(H-1))^2 = 1 - s``; conversions both ways are provided.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .modes import (
    LinearField,
    ModeRegistry,
    _sqrt,
    beamsplitter,
    combine,
    dagger,
    quadrature_variances,
    two_mode_squeezer,
)

__all__ = [
    "KIND_TWO_MODE",
    "KIND_SINGLE_SQUEEZER",
    "KIND_CLASSICAL",
    "KINDS",
    "GAIN_MAX",
    "PUMP_GAIN_MAX",
    "check_pump_gain",
    "check_channel",
    "noise_amplitudes",
    "teleport_two_mode",
    "teleport_single_squeezer",
    "teleport_composed",
    "optimal_gain",
    "squeezing_to_H",
    "H_to_squeezing",
    "coherent_fidelity",
]

KIND_TWO_MODE = "two-mode"
KIND_SINGLE_SQUEEZER = "single-squeezer"
KIND_CLASSICAL = "classical"
KINDS = (KIND_TWO_MODE, KIND_SINGLE_SQUEEZER, KIND_CLASSICAL)

# The admitted domain's bounds: within them no count of any route passes about 2e300.
GAIN_MAX = PUMP_GAIN_MAX = 1e100
_GAIN_RULE = f"feedforward gain must be >= 0 and <= {GAIN_MAX!r}"
_PUMP_GAIN_RULE = f"pump gain must be >= 1 and <= {PUMP_GAIN_MAX!r}"


def check_pump_gain(H: float) -> None:
    """Reject a squeezer pump gain that is not one number in ``[1, PUMP_GAIN_MAX]``."""
    _check_number(H, 1.0, PUMP_GAIN_MAX, _PUMP_GAIN_RULE)


def check_channel(kind: str, gain: float | np.ndarray, H: float) -> None:
    """Reject a channel operating point outside the admitted domain.

    ``kind`` must be one of :data:`KINDS`, ``gain`` one number or a block of gains
    in ``[0, GAIN_MAX]`` (:func:`_check_range`), and ``H`` a valid pump gain,
    exactly 1 for the classical kind.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown source kind {kind!r}; expected one of {KINDS}")
    _check_range(gain, 0.0, GAIN_MAX, _GAIN_RULE)
    check_pump_gain(H)
    if kind == KIND_CLASSICAL and H != 1.0:
        raise ValueError(
            f"H must be exactly 1 for a classical source (H = 1 means no squeezing), got {H!r}"
        )


def _check_number(value, low: float, high: float, rule: str) -> None:
    """Reject ``value`` unless it is one finite number in ``[low, high]``, the rule of every
    physical parameter; ``rule`` opens the message. An int, float or float64 passes at once,
    with no numpy call. A value of a type that no parameter takes (a bool, an array, another
    numpy scalar, a ``Decimal``, a ``complex``, anything that does not compare with a float)
    is refused as the wrong type, by name."""
    wrong_type = type(value) not in (float, int, np.float64) and (  # the common types pass
        isinstance(value, (bool, np.ndarray, np.generic))
        or isinstance(value, numbers.Number) and not isinstance(value, numbers.Real)
    )
    try:
        inside = not wrong_type and low <= value <= high and value < math.inf
    except TypeError:
        wrong_type = True
    if wrong_type:
        raise ValueError(f"{rule}, got {value!r} of the wrong type {type(value).__name__}")
    if not inside:
        raise ValueError(f"{rule}, got {value!r}")


def _check_range(value, low: float, high: float, rule: str) -> None:
    """Reject ``value`` unless it is one number that :func:`_check_number` admits, or a
    non-empty 1-D float64 block whose minimum and maximum it admits, which a NaN fails:
    the rule of a gain and of a photon count. ``rule`` opens the message."""
    ends = (value,)
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim != 1 or not value.size:
            kind = f"an array of the wrong type or shape, {value.dtype} of shape {value.shape}"
            raise ValueError(f"{rule}, as one number or a non-empty 1-D float64 block; got {kind}")
        ends = (float(value.min()), float(value.max()))
    for end in ends:
        _check_number(end, low, high, rule)


def noise_amplitudes(gain: float, H: float) -> tuple[float, float]:
    """Ancilla coefficients of the channel at feedforward ``gain`` and pump gain ``H``.

    Returns ``(gain*sqrt(H) - sqrt(H-1), sqrt(H) - gain*sqrt(H-1))``: the
    creation-side amplitude (spurious photons) and the annihilation-side
    amplitude (vacuum passthrough that keeps the output canonical).
    """
    root_h, root_h1 = _sqrt(H), _sqrt(H - 1.0)
    return gain * root_h - root_h1, root_h - gain * root_h1


def teleport_two_mode(c: LinearField, gain: float | np.ndarray, H: float) -> LinearField:
    """Teleporter channel backed by a two-mode entangled pair.

    Output is ``gain*c + A f1^dag + B f2`` with ``(A, B)`` the noise
    amplitudes and (f1, f2) the squeezer's vacuum ancillas, drawn fresh
    from c's registry; the classical kind is the same map at ``H = 1``. Like
    every element, it takes checked values (:func:`check_channel`).
    """
    return combine(gain, c, 1.0, _channel_noise(KIND_TWO_MODE, gain, H, c.registry))


def teleport_single_squeezer(c: LinearField, gain: float | np.ndarray, H: float) -> LinearField:
    """Teleporter channel whose resource is one squeezed beam split in half.

    Output is ``gain*c + (A f1^dag + B f1 + gain f2^dag + f2)/sqrt(2)``,
    with (f1, f2) drawn fresh from c's registry; the extra ``f2`` terms are
    the vacuum entering the splitting beamsplitter, which is what degrades
    this channel relative to the genuinely two-mode one. It takes checked values.
    """
    return combine(gain, c, 1.0, _channel_noise(KIND_SINGLE_SQUEEZER, gain, H, c.registry))


def _channel_noise(kind: str, gain, H, registry: ModeRegistry) -> LinearField:
    """The noise a ``kind`` channel adds to ``gain*c``, on a pair drawn fresh from ``registry``."""
    f1, f2 = registry.fresh_mode(), registry.fresh_mode()
    creation_amp, passthrough_amp = noise_amplitudes(gain, H)
    if kind == KIND_SINGLE_SQUEEZER:
        half_root2 = _sqrt(2) / 2
        terms = {
            f1.index: (passthrough_amp * half_root2, creation_amp * half_root2),
            f2.index: (half_root2, gain * half_root2),
        }
    else:
        terms = {f1.index: (0.0, creation_amp), f2.index: (passthrough_amp, 0.0)}
    return LinearField(registry, terms)


def teleport_composed(c: LinearField, gain: float | np.ndarray, H: float) -> LinearField:
    """The two-mode channel built from its physical parts.

    Entangle a fresh ancilla pair (:func:`two_mode_squeezer` on c's
    registry), mix ``c`` with one entangled beam on a 50:50 beamsplitter,
    read the amplitude quadrature of the difference output and the phase
    quadrature of the sum output (carried as operator identities, i.e.
    ideal homodyne), then displace the other entangled beam by
    ``gain*sqrt(2)`` times the measured combination.

    Agrees with :func:`teleport_two_mode` on every coefficient magnitude
    and every downstream expectation value; the creation-side coefficient
    carries the opposite sign, which no observable sees. The channel is
    checked here (:func:`check_channel`), as a reference route takes raw values.
    """
    check_channel(KIND_TWO_MODE, gain, H)
    e1, e2 = two_mode_squeezer(c.registry, H)
    mix_sum, mix_diff = beamsplitter(c, e1)
    x_meas = combine(1.0, mix_diff, 1.0, dagger(mix_diff))
    p_meas = combine(-1j, mix_sum, 1j, dagger(mix_sum))
    measured = combine(0.5, x_meas, 0.5j, p_meas)
    return combine(1.0, e2, gain * _sqrt(2), measured)


def optimal_gain(H: float) -> float:
    """The gain ``sqrt((H-1)/H)`` zeroing the creation-side noise amplitude.

    At this point the channel adds no spurious photons and acts as pure
    attenuation with intensity transmission ``optimal_gain(H)**2``.
    """
    check_pump_gain(H)
    return _sqrt((H - 1.0) / H)


def squeezing_to_H(s: float) -> float:
    """Pump gain for squeezing fraction ``s`` in ``[0, 1)``: solves (sqrt(H)-sqrt(H-1))^2 = 1-s."""
    # No float lies between this upper bound and 1.
    _check_number(s, 0.0, math.nextafter(1.0, 0.0), "squeezing fraction must lie in [0, 1)")
    remaining = 1.0 - s
    total = 1.0 + remaining
    # The exact value is >= 1; rounding can land one ulp below for s ~ 1e-16.
    return max(1.0, total * total / (4.0 * remaining))


def H_to_squeezing(H: float) -> float:
    """Inverse of :func:`squeezing_to_H`."""
    check_pump_gain(H)
    root_sum = _sqrt(H) + _sqrt(H - 1.0)
    return 1.0 - 1.0 / (root_sum * root_sum)


def coherent_fidelity(kind: str, H: float) -> float:
    """Average coherent-state fidelity of a ``kind`` channel at pump gain ``H``.

    Computed at unity gain, the one gain a fidelity is defined at, from the
    quadrature variances (V_X, V_P) of the channel's noise field as
    ``2 / sqrt((2 + V_X) * (2 + V_P))``; the classical channel lands on
    exactly 1/2, the usual no-entanglement bound.
    """
    check_channel(kind, 1, H)
    v_x, v_p = quadrature_variances(_channel_noise(kind, 1, H, ModeRegistry()))
    return 2.0 / _sqrt((2.0 + v_x) * (2.0 + v_p))
