"""Interferometer layouts, closed-form count references, and gain sweeps.

Three layouts share the same skeleton: a polarization qubit enters one
port of a Mach-Zehnder interferometer, vacuum enters the other, and the
arms are recombined in phase at a second 50:50 beamsplitter.

* layout ``a`` -- a teleporter sits in one arm, the other arm is untouched;
* layout ``b`` -- as ``a``, plus a tunable attenuator in the untouched arm
  to balance the interferometer against the teleporter's effective loss;
* layout ``c`` -- identical teleporters in both arms, the self-testing
  arrangement whose dark port stays empty at the optimal gain.

Every teleporter invocation draws its own fresh ancilla pair, one per arm
and per polarization.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from itertools import pairwise
from typing import Iterable, NamedTuple

import numpy as np

from .modes import (
    LinearField,
    ModeRegistry,
    Role,
    annihilator_field,
    attenuate,
    beamsplitter,
    check_transmission,
)
from .photometry import HORIZONTAL, PortCounts, QubitInput, port_count, visibility
from .teleporter import (
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    TeleporterSpec,
    _noise_amplitudes,
    check_channel,
    teleport_single_squeezer,
    teleport_two_mode,
)

__all__ = [
    "ETA_AUTO",
    "LAYOUTS",
    "MAX_GRID_STEPS",
    "ScenarioConfig",
    "ScenarioOutputs",
    "SweepRow",
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
# 100001-point sweep: 8 MB of gains, minutes of evaluation.
MAX_GRID_STEPS = 1_000_001


@dataclass(frozen=True)
class ScenarioConfig:
    """One point in the layout/source/gain/squeezing space.

    ``eta`` is the attenuator transmission and exists only for layout
    ``b``; pass :data:`ETA_AUTO` to let each evaluation pick the
    visibility-maximizing value for its gain.
    """

    layout: str
    source: str
    gain: float
    H: float
    eta: float | str | None = None

    def __post_init__(self) -> None:
        if self.layout not in LAYOUTS:
            raise ValueError(f"unknown layout {self.layout!r}")
        check_channel(self.source, self.gain, self.H)
        if self.layout == "b":
            if self.eta is None:
                raise ValueError("layout 'b' needs an attenuator setting (eta)")
            if self.eta != ETA_AUTO:
                check_transmission(float(self.eta))
        elif self.eta is not None:
            raise ValueError(f"layout {self.layout!r} has no attenuator; eta must be None")

    def teleporter(self) -> TeleporterSpec:
        return TeleporterSpec(self.source, self.gain, self.H)

    def resolved_eta(self) -> float | None:
        """The numeric attenuator transmission, or None outside layout b."""
        if self.layout != "b":
            return None
        if self.eta == ETA_AUTO:
            return optimize_eta(self.gain, self.H, self.source)
        return float(self.eta)


@dataclass(frozen=True)
class ScenarioOutputs:
    """The four network output fields: (h, v) at each interferometer port."""

    port_a: tuple[LinearField, LinearField]
    port_b: tuple[LinearField, LinearField]
    registry: ModeRegistry

    @property
    def all_fields(self) -> tuple[LinearField, ...]:
        return (*self.port_a, *self.port_b)


def build_scenario(
    config: ScenarioConfig, registry: ModeRegistry | None = None
) -> ScenarioOutputs:
    """Construct the configured network and return its output fields.

    A fresh registry is allocated unless an empty one is supplied; one
    registry hosts exactly one scenario.
    """
    reg = registry if registry is not None else ModeRegistry()
    if len(reg) != 0:
        raise ValueError("build_scenario needs an empty mode registry")
    signal_h = reg.fresh_mode("a_h", Role.SIGNAL_H)
    signal_v = reg.fresh_mode("a_v", Role.SIGNAL_V)
    vacuum_h = reg.fresh_mode("b_h", Role.PORT_B_H)
    vacuum_v = reg.fresh_mode("b_v", Role.PORT_B_V)
    spec = config.teleporter()
    eta = config.resolved_eta()
    outputs_a: list[LinearField] = []
    outputs_b: list[LinearField] = []
    for pol, signal, vacuum in (("h", signal_h, vacuum_h), ("v", signal_v, vacuum_v)):
        arm_c, arm_d = beamsplitter(annihilator_field(signal), annihilator_field(vacuum))
        arm_c = _teleport_arm(arm_c, spec, reg, f"c{pol}")
        if config.layout == "b":
            g = reg.fresh_mode(f"g_{pol}", Role.ATTENUATOR_VACUUM)
            arm_d = attenuate(arm_d, eta, g)
        elif config.layout == "c":
            arm_d = _teleport_arm(arm_d, spec, reg, f"d{pol}")
        out_a, out_b = beamsplitter(arm_c, arm_d)
        outputs_a.append(out_a)
        outputs_b.append(out_b)
    return ScenarioOutputs(tuple(outputs_a), tuple(outputs_b), reg)


def evaluate_counts(config: ScenarioConfig, state: QubitInput = HORIZONTAL) -> PortCounts:
    """Build the network and evaluate its photon counts for ``state``."""
    outputs = build_scenario(config)
    return port_count(outputs.port_a, outputs.port_b, state)


def reference_counts(config: ScenarioConfig, state: QubitInput | None = None) -> PortCounts:
    """Closed-form count expectations, where the layout/source pair has one.

    These are direct evaluations of the per-layout formulas and serve as
    an independent check on the network construction. The expectations
    carry no dependence on the input polarization, so ``state`` is
    accepted only for signature parity with :func:`evaluate_counts`.

    Covered: layout ``a`` for all sources; layouts ``b`` and ``c`` for the
    two-mode and classical sources. The remaining combinations have no
    closed form here and must be evaluated through the network.
    """
    del state
    gain = config.gain
    creation_amp, _ = _noise_amplitudes(gain, config.H)
    spurious = creation_amp * creation_amp
    if config.layout == "a":
        noise = _port_noise(config.source, gain, spurious)
        return PortCounts(
            0.25 * (1.0 + gain) ** 2 + noise,
            0.25 * (1.0 - gain) ** 2 + noise,
        )
    if config.layout == "b" and config.source in (KIND_TWO_MODE, KIND_CLASSICAL):
        root_eta = math.sqrt(config.resolved_eta())
        return PortCounts(
            0.25 * (root_eta + gain) ** 2 + spurious,
            0.25 * (root_eta - gain) ** 2 + spurious,
        )
    if config.layout == "c" and config.source in (KIND_TWO_MODE, KIND_CLASSICAL):
        return PortCounts(gain * gain + 2.0 * spurious, 2.0 * spurious)
    raise ValueError(
        f"no closed form for layout {config.layout!r} with source {config.source!r}; "
        "evaluate the network instead"
    )


def optimize_eta(gain: float, H: float, source: str = KIND_TWO_MODE) -> float:
    """Attenuator transmission maximizing layout-b visibility at this gain.

    Closed form ``min(1, gain^2 + 4*N)`` where ``N`` is the per-port noise
    count of the chosen source. At ``gain = optimal_gain(H)`` with the
    two-mode source this reduces to ``gain^2``, the balanced point of unit
    visibility.
    """
    check_channel(source, gain, H)
    creation_amp, _ = _noise_amplitudes(gain, H)
    noise = _port_noise(source, gain, creation_amp * creation_amp)
    return min(1.0, gain * gain + 4.0 * noise)


class SweepRow(NamedTuple):
    gain: float
    count_a: float
    count_b: float
    visibility: float


@dataclass(frozen=True)
class SweepTable:
    """A gain sweep of one scenario: four float64 columns, one entry per
    gain point, plus the settings that made them."""

    layout: str
    source: str
    H: float
    eta_policy: str
    gains: array
    count_a: array
    count_b: array
    visibility: array

    def __post_init__(self) -> None:
        columns = (self.gains, self.count_a, self.count_b, self.visibility)
        if len({len(column) for column in columns}) != 1:
            raise ValueError("sweep columns must have equal lengths")
        if any(b <= a for a, b in pairwise(self.gains)):
            raise ValueError("sweep rows must be strictly increasing in gain")

    @property
    def rows(self) -> tuple[SweepRow, ...]:
        """The table row by row, built on each access."""
        return tuple(map(SweepRow, self.gains, self.count_a, self.count_b, self.visibility))

    def peak(self) -> SweepRow:
        """The row of maximum visibility (earliest gain on ties)."""
        best: int | None = None
        for k, fringe in enumerate(self.visibility):
            if math.isnan(fringe):
                continue
            if best is None or fringe > self.visibility[best]:
                best = k
        if best is None:
            raise ValueError("sweep contains no row with defined visibility")
        return SweepRow(
            self.gains[best], self.count_a[best], self.count_b[best], self.visibility[best]
        )


def sweep_gain(config: ScenarioConfig, gain_grid: Iterable[float]) -> SweepTable:
    """Evaluate the scenario across a strictly increasing gain grid.

    ``config.gain`` is replaced row by row; an ``eta = "auto"`` setting is
    re-optimized at every gain. A row whose ports are both exactly dark
    (possible only at gain 0 with no squeezing) records NaN visibility.
    A count that overflows the float range raises ``OverflowError``
    naming the gain of its row.
    """
    gains = array("d", map(float, gain_grid))
    if not gains:
        raise ValueError("gain grid is empty")
    if any(b <= a for a, b in pairwise(gains)):
        raise ValueError("gain grid must be strictly increasing")
    count_a, count_b, fringes = array("d"), array("d"), array("d")
    for gain in gains:
        try:
            counts = evaluate_counts(replace(config, gain=gain))
        except OverflowError as exc:
            raise OverflowError(f"a photon count overflowed at gain {gain!r}") from exc
        try:
            fringe = visibility(counts)
        except ValueError:
            fringe = math.nan
        count_a.append(counts.count_a)
        count_b.append(counts.count_b)
        fringes.append(fringe)
    if config.eta is None:
        eta_policy = "none"
    elif config.eta == ETA_AUTO:
        eta_policy = ETA_AUTO
    else:
        eta_policy = format(float(config.eta), "g")
    return SweepTable(
        config.layout, config.source, config.H, eta_policy, gains, count_a, count_b, fringes
    )


def default_gain_grid(start: float = 0.0, stop: float = 1.5, steps: int = 301) -> np.ndarray:
    """The standard sweep grid: ``steps`` evenly spaced gains on [start, stop].

    The ends and their distance must be finite and ``2 <= steps <=
    MAX_GRID_STEPS``; these are checked before any memory is allocated.
    A step below the float resolution at the ends, which would repeat a
    gain, is rejected too.
    """
    if not 2 <= steps <= MAX_GRID_STEPS:
        raise ValueError(
            f"a gain grid needs at least 2 and at most {MAX_GRID_STEPS} points, got {steps!r}"
        )
    if not -math.inf < start < stop < math.inf:
        raise ValueError(f"grid needs finite start < stop, got [{start!r}, {stop!r}]")
    if not math.isfinite(stop - start):
        raise ValueError(f"grid span from {start!r} to {stop!r} overflows a float")
    grid = np.linspace(start, stop, steps)
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError(
            f"grid step is below float resolution: {steps} points on "
            f"[{start!r}, {stop!r}] are not strictly increasing"
        )
    return grid


def _teleport_arm(
    field: LinearField, spec: TeleporterSpec, registry: ModeRegistry, tag: str
) -> LinearField:
    f1 = registry.fresh_mode(f"f_{tag}_1", Role.SQUEEZER_ANCILLA)
    f2 = registry.fresh_mode(f"f_{tag}_2", Role.SQUEEZER_ANCILLA)
    if spec.kind == KIND_SINGLE_SQUEEZER:
        return teleport_single_squeezer(field, spec, f1, f2)
    return teleport_two_mode(field, spec, f1, f2)


def _port_noise(source: str, gain: float, spurious: float) -> float:
    """Per-port noise count added by the teleporter, by source kind."""
    if source == KIND_SINGLE_SQUEEZER:
        return 0.5 * (spurious + gain * gain)
    return spurious
