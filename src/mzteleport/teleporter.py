"""Continuous-variable teleporter channels and their operating points.

Three channel families share one parameterization: a feedforward gain
and the pump gain ``H`` of the squeezer supplying the entanglement.
``H = 1`` means no squeezing, which is the classical (entanglement-free)
channel. The squeezing fraction ``s`` is the noise-variance reduction
``(sqrt(H) - sqrt(H-1))^2 = 1 - s``; conversions both ways are provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf  # bound at import: the exact-math proofs replace this module's math

import numpy as np

from .modes import (
    LinearField,
    ModeRegistry,
    beamsplitter,
    combine,
    dagger,
    field_from_terms,
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
    "TeleporterSpec",
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


def check_pump_gain(H: float) -> None:
    """Reject a squeezer pump gain that is not one number in ``[1, PUMP_GAIN_MAX]``."""
    if not _within(1.0, H, PUMP_GAIN_MAX):
        raise ValueError(f"pump gain must be >= 1 and <= {PUMP_GAIN_MAX!r}, got {H!r}")


def check_channel(kind: str, gain: float | np.ndarray, H: float) -> None:
    """Reject a channel operating point outside the admitted domain.

    ``kind`` must be one of :data:`KINDS`, ``gain`` one number or a block of gains
    in ``[0, GAIN_MAX]`` (:func:`_check_range`), and ``H`` a valid pump gain,
    exactly 1 for the classical kind.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown source kind {kind!r}; expected one of {KINDS}")
    _check_range(gain, 0.0, GAIN_MAX, f"feedforward gain must be >= 0 and <= {GAIN_MAX!r}")
    check_pump_gain(H)
    if kind == KIND_CLASSICAL and H != 1.0:
        raise ValueError(
            f"H must be exactly 1 for a classical source (H = 1 means no squeezing), got {H!r}"
        )


def _within(low: float, value, high: float) -> bool:
    """``low <= value <= high`` for one number, the rule of a pump gain, transmission or
    squeezing fraction; an array, or a value that does not compare with a float, lies outside."""
    if isinstance(value, np.ndarray):
        return False
    try:
        return low <= value <= high
    except TypeError:
        return False


def _check_range(value, low: float, high: float, rule: str) -> None:
    """Reject ``value`` unless it is one finite number in ``[low, high]`` (by :func:`_within`,
    with no numpy call) or a non-empty 1-D float64 block whose minimum and maximum are, which
    a NaN fails: the rule of a gain and of a photon count. ``rule`` opens the message."""
    ends = (value,)
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64 or value.ndim != 1 or not value.size:
            shape = f"{value.dtype} of shape {value.shape}"
            raise ValueError(f"{rule}, as one number or a non-empty 1-D float64 block; got {shape}")
        ends = (float(value.min()), float(value.max()))
    for end in ends:
        if not (_within(low, end, high) and end < inf):
            raise ValueError(f"{rule}, got {end!r}")


@dataclass(frozen=True)
class TeleporterSpec:
    """Channel family plus feedforward gain (or a 1-D array of gains) and squeezer pump gain."""

    kind: str
    gain: float | np.ndarray
    H: float = 1.0

    def __post_init__(self) -> None:
        check_channel(self.kind, self.gain, self.H)


def noise_amplitudes(gain: float, H: float) -> tuple[float, float]:
    """Ancilla coefficients of the channel at feedforward ``gain`` and pump gain ``H``.

    Returns ``(gain*sqrt(H) - sqrt(H-1), sqrt(H) - gain*sqrt(H-1))``: the
    creation-side amplitude (spurious photons) and the annihilation-side
    amplitude (vacuum passthrough that keeps the output canonical).
    """
    root_h = math.sqrt(H)
    root_h1 = math.sqrt(H - 1.0)
    return gain * root_h - root_h1, root_h - gain * root_h1


def teleport_two_mode(c: LinearField, spec: TeleporterSpec) -> LinearField:
    """Teleporter channel backed by a two-mode entangled pair.

    Output is ``gain*c + A f1^dag + B f2`` with ``(A, B)`` the noise
    amplitudes and (f1, f2) the squeezer's vacuum ancillas, drawn fresh
    from c's registry. The classical kind is the same map pinned at ``H = 1``.
    """
    if spec.kind not in (KIND_TWO_MODE, KIND_CLASSICAL):
        raise ValueError(f"two-mode channel cannot run a {spec.kind!r} spec")
    return combine(spec.gain, c, 1.0, _channel_noise(spec, c.registry))


def teleport_single_squeezer(c: LinearField, spec: TeleporterSpec) -> LinearField:
    """Teleporter channel whose resource is one squeezed beam split in half.

    Output is ``gain*c + (A f1^dag + B f1 + gain f2^dag + f2)/sqrt(2)``,
    with (f1, f2) drawn fresh from c's registry; the extra ``f2`` terms are
    the vacuum entering the splitting beamsplitter, which is what degrades
    this channel relative to the genuinely two-mode one.
    """
    if spec.kind != KIND_SINGLE_SQUEEZER:
        raise ValueError(f"single-squeezer channel cannot run a {spec.kind!r} spec")
    return combine(spec.gain, c, 1.0, _channel_noise(spec, c.registry))


def _channel_noise(spec: TeleporterSpec, registry: ModeRegistry) -> LinearField:
    """The noise field the channel adds to ``gain*c``, on a pair drawn fresh from ``registry``."""
    f1, f2 = registry.fresh_mode(), registry.fresh_mode()
    creation_amp, passthrough_amp = noise_amplitudes(spec.gain, spec.H)
    if spec.kind == KIND_SINGLE_SQUEEZER:
        half_root2 = math.sqrt(2) / 2
        terms = {
            f1: (passthrough_amp * half_root2, creation_amp * half_root2),
            f2: (half_root2, spec.gain * half_root2),
        }
    else:
        terms = {f1: (0.0, creation_amp), f2: (passthrough_amp, 0.0)}
    return field_from_terms(registry, terms)


def teleport_composed(c: LinearField, spec: TeleporterSpec) -> LinearField:
    """The two-mode channel built from its physical parts.

    Entangle a fresh ancilla pair (:func:`two_mode_squeezer` on c's
    registry), mix ``c`` with one entangled beam on a 50:50 beamsplitter,
    read the amplitude quadrature of the difference output and the phase
    quadrature of the sum output (carried as operator identities, i.e.
    ideal homodyne), then displace the other entangled beam by
    ``gain*sqrt(2)`` times the measured combination.

    Agrees with :func:`teleport_two_mode` on every coefficient magnitude
    and every downstream expectation value; the creation-side coefficient
    carries the opposite sign, which no observable sees.
    """
    if spec.kind != KIND_TWO_MODE:
        raise ValueError(f"composed channel cannot run a {spec.kind!r} spec")
    e1, e2 = two_mode_squeezer(c.registry, spec.H)
    mix_sum, mix_diff = beamsplitter(c, e1)
    x_meas = combine(1.0, mix_diff, 1.0, dagger(mix_diff))
    p_meas = combine(-1j, mix_sum, 1j, dagger(mix_sum))
    measured = combine(0.5, x_meas, 0.5j, p_meas)
    return combine(1.0, e2, spec.gain * math.sqrt(2), measured)


def optimal_gain(H: float) -> float:
    """The gain ``sqrt((H-1)/H)`` zeroing the creation-side noise amplitude.

    At this point the channel adds no spurious photons and acts as pure
    attenuation with intensity transmission ``optimal_gain(H)**2``.
    """
    check_pump_gain(H)
    return math.sqrt((H - 1.0) / H)


def squeezing_to_H(s: float) -> float:
    """Pump gain for squeezing fraction ``s``: solves (sqrt(H)-sqrt(H-1))^2 = 1-s.

    ``s`` is one number in ``[0, 1)``; an array, or a value that does not
    compare with a float, is rejected like one outside it.
    """
    if not (_within(0.0, s, 1.0) and s < 1.0):
        raise ValueError(f"squeezing fraction must lie in [0, 1), got {s!r}")
    remaining = 1.0 - s
    total = 1.0 + remaining
    # The exact value is >= 1; rounding can land one ulp below for s ~ 1e-16.
    return max(1.0, total * total / (4.0 * remaining))


def H_to_squeezing(H: float) -> float:
    """Inverse of :func:`squeezing_to_H`."""
    check_pump_gain(H)
    root_sum = math.sqrt(H) + math.sqrt(H - 1.0)
    return 1.0 - 1.0 / (root_sum * root_sum)


def coherent_fidelity(spec: TeleporterSpec) -> float:
    """Average coherent-state fidelity of the channel at unity gain.

    Computed from the quadrature variances (V_X, V_P) of the channel's
    noise field as ``2 / sqrt((2 + V_X) * (2 + V_P))``; the classical
    channel lands on exactly 1/2, the usual no-entanglement bound. A spec
    over a block of gains is rejected: the fidelity is one number.
    """
    if isinstance(spec.gain, np.ndarray):
        raise ValueError("coherent fidelity takes one gain, not a block of gains")
    if spec.gain != 1.0:
        raise ValueError("coherent fidelity is defined at unity gain only")
    v_x, v_p = quadrature_variances(_channel_noise(spec, ModeRegistry()))
    return 2.0 / math.sqrt((2.0 + v_x) * (2.0 + v_p))
