"""Mach-Zehnder interference tests for continuous-variable teleporter channels.

The package evaluates, in closed operator form, the photon counts and
fringe visibility of a Mach-Zehnder interferometer fed with a
single-photon polarization qubit when one or both arms pass through a
continuous-variable teleporter. A truncated-Fock oracle recomputes every
expectation value by an independent route, and a CLI emits sweep tables.

The names below are the public surface: the scenarios and sweeps, the
channel parameters, the count evaluation, and the independent routes
(``reference_counts``, ``oracle_flux``, ``teleport_composed``). The mode
algebra and the other internals are imported from their submodules.
"""

from .fock import oracle_flux
from .photometry import HORIZONTAL, PortCounts, QubitInput, photon_flux, port_count, visibility
from .scenarios import (
    ETA_AUTO,
    ScenarioConfig,
    SweepTable,
    build_scenario,
    default_gain_grid,
    evaluate_counts,
    optimize_eta,
    reference_counts,
    sweep_gain,
)
from .teleporter import (
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    TeleporterSpec,
    H_to_squeezing,
    coherent_fidelity,
    optimal_gain,
    squeezing_to_H,
    teleport_composed,
)

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig",
    "ETA_AUTO",
    "SweepTable",
    "build_scenario",
    "evaluate_counts",
    "reference_counts",
    "optimize_eta",
    "sweep_gain",
    "default_gain_grid",
    "TeleporterSpec",
    "KIND_TWO_MODE",
    "KIND_SINGLE_SQUEEZER",
    "KIND_CLASSICAL",
    "optimal_gain",
    "squeezing_to_H",
    "H_to_squeezing",
    "coherent_fidelity",
    "teleport_composed",
    "QubitInput",
    "HORIZONTAL",
    "PortCounts",
    "photon_flux",
    "port_count",
    "visibility",
    "oracle_flux",
    "__version__",
]
