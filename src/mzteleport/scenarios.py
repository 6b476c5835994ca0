"""Interferometer layouts, their one closed-form count reference, and gain sweeps.

Three layouts share the same skeleton: a polarization qubit enters one
port of a Mach-Zehnder interferometer, vacuum enters the other, and the
arms are recombined in phase at a second 50:50 beamsplitter.

* layout ``a`` -- a teleporter sits in one arm, the other arm is untouched;
* layout ``b`` -- as ``a``, plus a tunable attenuator in the untouched arm
  to balance the interferometer against the teleporter's effective loss;
* layout ``c`` -- identical teleporters in both arms, the self-testing
  arrangement whose dark port stays empty at the optimal gain.

Every element is blind to polarization, so the network is built on the
horizontal polarization and mapped onto the vertical one's modes; each
teleporter still draws its own ancilla pair per polarization.
:func:`reference_counts` checks that network with one closed form, and
:func:`optimize_eta` is that form's visibility argmax.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .modes import LinearField, ModeRegistry, _sqrt, annihilator_field, attenuate, beamsplitter
from .photometry import _FINITE_MAX, HORIZONTAL, PortCounts, _contrast, port_count
from .teleporter import (
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    _check_number,
    check_channel,
    noise_amplitudes,
    teleport_single_squeezer,
    teleport_two_mode,
)

__all__ = [
    "ETA_AUTO",
    "LAYOUTS",
    "MAX_GRID_STEPS",
    "ScenarioConfig",
    "ScenarioOutputs",
    "SweepTable",
    "build_scenario",
    "evaluate_counts",
    "reference_counts",
    "optimize_eta",
    "sweep_gain",
    "default_gain_grid",
]

LAYOUTS = ("a", "b", "c")
ETA_AUTO = "auto"
# Largest grid default_gain_grid builds, ten times the benchmark's
# 100001-point sweep: 8 MB of gains, 32 MB for a whole table.
MAX_GRID_STEPS = 1_000_001
# Gains per network build in sweep_gain, and rows per write in the CLI's
# tables, which is also the unit that the CLI's two formatting processes
# hand between them: enough that the build is cheap against the array
# arithmetic and the writes stay few, few enough that a block's fields,
# or its text, take a few MB.
SWEEP_BLOCK = 4096


@dataclass(frozen=True)
class ScenarioConfig:
    """One point in the layout/source/gain/squeezing space, or a 1-D float64 block of gains.

    ``eta`` is the attenuator transmission and exists only for layout ``b``;
    pass :data:`ETA_AUTO` to let each evaluation pick the visibility-maximizing
    value for its gain. Construction checks the channel (:func:`check_channel`)
    and ``eta``, once: the elements :func:`build_scenario` runs check none.

    A configuration over a block of gains is not hashable, and ``==``
    between two of them raises, as numpy's ``==`` of two arrays does.
    """

    layout: str
    source: str
    gain: float | np.ndarray
    H: float
    eta: float | str | None = None

    def __post_init__(self) -> None:
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        check_channel(self.source, self.gain, self.H)
        if self.layout == "b":
            if self.eta is None:
                raise ValueError("layout 'b' needs an attenuator setting (eta)")
            if not (isinstance(self.eta, str) and self.eta == ETA_AUTO):
                _check_number(self.eta, 0.0, 1.0, "transmission must be 'auto' or lie in [0, 1]")
        elif self.eta is not None:
            raise ValueError(f"layout {self.layout!r} has no attenuator; eta must be None")

    def resolved_eta(self) -> float | None:
        """The numeric attenuator transmission, or None outside layout b.

        ``eta = "auto"`` resolves to ``min(1, gain^2 + 4*N)``, with ``N`` the
        per-port noise count of the source (:func:`_port_noise`): the argmax
        over ``eta`` of layout-b visibility.
        """
        if self.layout != "b":
            return None
        if self.eta == ETA_AUTO:
            noise = _port_noise(self.source, self.gain, self.H)
            eta = self.gain * self.gain + 4.0 * noise
            return np.minimum(1.0, eta) if isinstance(eta, np.ndarray) else min(1.0, eta)
        return self.eta


@dataclass(frozen=True)
class ScenarioOutputs:
    """The four network output fields, (h, v) at each port, and each polarization's arms."""

    port_a: tuple[LinearField, LinearField]
    port_b: tuple[LinearField, LinearField]
    arms: tuple[tuple[LinearField, LinearField], ...]

    @property
    def all_fields(self) -> tuple[LinearField, ...]:
        return (*self.port_a, *self.port_b)


def build_scenario(config: ScenarioConfig) -> ScenarioOutputs:
    """Construct the configured network on a fresh registry; return its output fields.

    The elements run on the horizontal polarization; its fields map onto the
    vertical signal, the vertical vacuum and one fresh mode per ancilla. The
    map is increasing, so each field keeps its terms' order and every sum its value.
    """
    reg = ModeRegistry()
    signal_h, signal_v = reg.signal_pair()
    vacuum_h, vacuum_v = reg.fresh_mode(), reg.fresh_mode()
    # (c, d), mixed by the last beamsplitter
    arm_c, arm_d = beamsplitter(annihilator_field(signal_h), annihilator_field(vacuum_h))
    arm_c = _teleport_arm(arm_c, config)
    if config.layout == "b":
        arm_d = attenuate(arm_d, config.resolved_eta())
    elif config.layout == "c":
        arm_d = _teleport_arm(arm_d, config)
    port_a, port_b = beamsplitter(arm_c, arm_d)
    index_map = {signal_h.index: signal_v.index, vacuum_h.index: vacuum_v.index}
    for index in sorted((arm_c.terms.keys() | arm_d.terms.keys()) - index_map.keys()):
        index_map[index] = reg.fresh_mode().index  # every ancilla keeps a term

    def vertical(field: LinearField) -> LinearField:
        return LinearField(reg, {index_map[k]: term for k, term in field.terms.items()})

    arms = ((arm_c, arm_d), (vertical(arm_c), vertical(arm_d)))
    return ScenarioOutputs((port_a, vertical(port_a)), (port_b, vertical(port_b)), arms)


def evaluate_counts(config: ScenarioConfig) -> PortCounts:
    """Build the network and evaluate its photon counts.

    The counts do not depend on the input qubit, so the horizontal one
    stands for every input. They are finite on the whole admitted domain.
    """
    outputs = build_scenario(config)
    return port_count(outputs.port_a, outputs.port_b, HORIZONTAL, outputs.arms)


def reference_counts(config: ScenarioConfig) -> PortCounts:
    """Closed-form counts of every layout and source, computed without the network.

    Arm ``c`` carries the signal with amplitude ``t_c = gain``, arm ``d``
    with ``t_d`` = 1 bare, ``sqrt(eta)`` attenuated or ``gain`` teleported,
    and each teleporter adds ``n`` photons at each port (:func:`_port_noise`):
    ``count_a, count_b = (t_c +/- t_d)^2 / 4 + n_c + n_d``, for any input
    qubit, and the fringe ``t_c t_d``. All are finite on the whole admitted
    domain, and arrays over a block of gains.
    """
    gain = config.gain
    noise_c = _port_noise(config.source, gain, config.H)
    arm_d, noise_d = 1.0, 0.0
    if config.layout == "b":
        arm_d = _sqrt(config.resolved_eta())
    elif config.layout == "c":
        arm_d, noise_d = gain, noise_c
    bright, dark, noise = gain + arm_d, gain - arm_d, noise_c + noise_d
    count_a = (0.5 * bright) * (0.5 * bright) + noise
    count_b = (0.5 * dark) * (0.5 * dark) + noise
    return PortCounts(count_a, count_b, gain * arm_d)


def optimize_eta(gain: float, H: float, source: str = KIND_TWO_MODE) -> float:
    """Attenuator transmission maximizing layout-b visibility at this gain.

    What ``eta = "auto"`` resolves to (:meth:`ScenarioConfig.resolved_eta`):
    ``min(1, gain^2 + 4*N)``, the argmax over ``eta`` of
    :func:`reference_counts`' visibility. At ``gain = optimal_gain(H)`` with
    the two-mode source this reduces to ``gain^2``, the balanced point of unit
    visibility.
    """
    return ScenarioConfig("b", source, gain, H, ETA_AUTO).resolved_eta()


@dataclass(frozen=True)
class SweepTable:
    """A gain sweep of one scenario: four float64 numpy columns, one entry per gain point.

    Row ``i`` is ``gains[i], count_a[i], count_b[i], visibility[i]``.
    ``gains`` is a read-only view of the caller's grid when that is a
    float64 array, so a sweep holds its grid once; the caller's array
    stays writeable.
    """

    gains: np.ndarray
    count_a: np.ndarray
    count_b: np.ndarray
    visibility: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "gains", _gain_column(self.gains))
        for name in ("count_a", "count_b", "visibility"):
            column = _real_column(getattr(self, name), f"sweep column {name}")
            object.__setattr__(self, name, column)
        columns = (self.gains, self.count_a, self.count_b, self.visibility)
        if len({len(column) for column in columns}) != 1:
            raise ValueError("sweep columns must have equal lengths")

    def peak(self) -> int:
        """The index of the row of maximum visibility (earliest gain on ties)."""
        if np.isnan(self.visibility).all():
            raise ValueError("sweep contains no row with defined visibility")
        return int(np.nanargmax(self.visibility))


def sweep_gain(config: ScenarioConfig, gain_grid: Sequence[float] | np.ndarray) -> SweepTable:
    """Evaluate the scenario across a non-empty, strictly increasing gain grid.

    ``config.gain`` is replaced by each block of :data:`SWEEP_BLOCK` grid gains,
    checked as admitted and evaluated by one :func:`evaluate_counts`; each row
    equals its gain's, and ``eta = "auto"`` is re-optimized at every gain. A
    row whose ports are both exactly dark (possible only at gain 0 with no
    squeezing) records NaN visibility; every other row is finite.
    """
    gains = _gain_column(gain_grid)
    count_a, count_b, contrast = np.empty((3, len(gains)))
    for start in range(0, len(gains), SWEEP_BLOCK):
        block = slice(start, start + SWEEP_BLOCK)
        counts = evaluate_counts(replace(config, gain=gains[block]))
        count_a[block], count_b[block] = counts.count_a, counts.count_b
        with np.errstate(invalid="ignore"):  # a dark row is 0/0, NaN
            contrast[block] = _contrast(counts)
    return SweepTable(gains, count_a, count_b, contrast)


def _real_column(values: Sequence[float] | np.ndarray, name: str) -> np.ndarray:
    """``values`` as a 1-D float64 array; a complex, string or object one is rejected, not cast."""
    try:
        column = np.asarray(values).astype(np.float64, casting="same_kind", copy=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a sequence of real numbers: {exc}") from None
    if column.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return column


def _gain_column(gain_grid: Sequence[float] | np.ndarray) -> np.ndarray:
    """A read-only float64 view of a non-empty, strictly increasing gain grid."""
    gains = _real_column(gain_grid, "gain grid").view()
    gains.flags.writeable = False
    if not gains.size:
        raise ValueError("gain grid is empty")
    if not (gains[1:] > gains[:-1]).all():
        raise ValueError("gain grid must be strictly increasing")
    return gains


def default_gain_grid(start: float = 0.0, stop: float = 1.5, steps: int = 301) -> np.ndarray:
    """The standard sweep grid: ``steps`` evenly spaced gains on [start, stop].

    The ends must be finite numbers of a type a gain may have, their distance
    finite, and ``steps`` an integer with ``2 <= steps <= MAX_GRID_STEPS``;
    these are checked before any memory is allocated. A step below the float
    resolution at the ends, which would repeat a gain, is rejected too.
    """
    if not (isinstance(steps, numbers.Integral) and 2 <= steps <= MAX_GRID_STEPS):
        raise ValueError(
            f"a gain grid needs at least 2 and at most {MAX_GRID_STEPS} points "
            f"(an integer number of steps), got {steps!r}"
        )
    rule = "grid needs real, finite start < stop"
    for end in (start, stop):
        _check_number(end, -_FINITE_MAX, _FINITE_MAX, rule)
    if not start < stop:
        raise ValueError(f"{rule}, got [{start!r}, {stop!r}]")
    if not math.isfinite(float(stop) - float(start)):
        raise ValueError(f"grid span from {start!r} to {stop!r} overflows a float")
    grid = np.linspace(float(start), float(stop), steps)
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError(
            f"grid step is below float resolution: {steps} points on "
            f"[{start!r}, {stop!r}] are not strictly increasing"
        )
    return grid


def _teleport_arm(field: LinearField, config: ScenarioConfig) -> LinearField:
    """The channel map that the configuration's source runs in a teleported arm."""
    if config.source == KIND_SINGLE_SQUEEZER:
        return teleport_single_squeezer(field, config.gain, config.H)
    return teleport_two_mode(field, config.gain, config.H)


def _port_noise(source: str, gain: float, H: float) -> float:
    """Photons a teleporter adds at each output port: ``A^2``, or ``(A^2 + gain^2)/2``
    for the single-squeezer source, with ``A`` the creation-side noise amplitude."""
    creation_amp, _ = noise_amplitudes(gain, H)
    spurious = creation_amp * creation_amp
    if source == KIND_SINGLE_SQUEEZER:
        return 0.5 * (spurious + gain * gain)
    return spurious
