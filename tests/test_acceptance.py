"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here and nothing is deferred to later
calibration.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import commutator, random_canonical_field, random_qubit
from fock_reference import uniform_oracle_flux
from mzteleport import (
    ETA_AUTO,
    KIND_CLASSICAL,
    KIND_SINGLE_SQUEEZER,
    KIND_TWO_MODE,
    QubitInput,
    ScenarioConfig,
    TeleporterSpec,
    build_scenario,
    coherent_fidelity,
    default_gain_grid,
    evaluate_counts,
    optimal_gain,
    oracle_flux,
    photon_flux,
    port_count,
    reference_counts,
    squeezing_to_H,
    sweep_gain,
    teleport_composed,
    visibility,
)
from mzteleport.modes import ModeId, ModeRegistry, annihilator_field
from mzteleport.teleporter import teleport_two_mode

GAIN_GRID = [round(0.1 * k, 10) for k in range(16)]  # 0.0, 0.1, ..., 1.5
SQUEEZING_GRID = [0.0, 0.5, 0.9]

# Value often quoted for the classical peak from coarse curve readings; the
# exact optimum is 1/sqrt(5) at gain 1/sqrt(5). Both are checked below.
QUOTED_CLASSICAL_MAX = 0.42


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"{verdict} criterion {number:2d} - {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def closed_form_cases():
    """Every layout and source, with eta auto and fixed, over the full grid."""
    sources = [(KIND_CLASSICAL, 1.0), (KIND_SINGLE_SQUEEZER, squeezing_to_H(0.875))]
    for s in SQUEEZING_GRID:
        sources += [(KIND_TWO_MODE, squeezing_to_H(s)), (KIND_SINGLE_SQUEEZER, squeezing_to_H(s))]
    for gain in GAIN_GRID:
        for source, H in sources:
            yield ScenarioConfig("a", source, gain, H)
            yield ScenarioConfig("b", source, gain, H, ETA_AUTO)
            yield ScenarioConfig("b", source, gain, H, 0.7)
            yield ScenarioConfig("c", source, gain, H)


def test_criterion_1_closed_form_equivalence():
    worst = 0.0
    cases = 0
    for config in closed_form_cases():
        network = evaluate_counts(config)
        reference = reference_counts(config)
        worst = max(
            worst,
            abs(network.count_a - reference.count_a),
            abs(network.count_b - reference.count_b),
        )
        cases += 1
    report(
        1,
        "closed-form equivalence",
        worst <= 1e-9,
        f"max |network - closed form| = {worst:.3e} over {cases} cases",
    )


def test_criterion_2_fock_oracle_equivalence():
    state = QubitInput(0.6, 0.8j)
    worst_formula = 0.0
    worst_cutoff = 0.0
    evaluations = 0
    for config in closed_form_cases():
        outputs = build_scenario(config)
        for field in outputs.all_fields:
            formula = photon_flux(field, state)
            exact = oracle_flux(field, state, cutoff=3)
            worst_formula = max(worst_formula, abs(exact - formula))
            worst_cutoff = max(
                worst_cutoff, abs(exact - uniform_oracle_flux(field, state, cutoff=4))
            )
            evaluations += 1
    rng = np.random.default_rng(1999)
    registry = ModeRegistry()
    modes = [*registry.signal_pair(), *(registry.fresh_mode() for _ in range(6))]
    for _ in range(50):
        size = int(rng.integers(1, 7))
        chosen = [modes[i] for i in rng.choice(len(modes), size=size, replace=False)]
        field = random_canonical_field(registry, chosen, rng)
        qubit = random_qubit(rng)
        formula = photon_flux(field, qubit)
        exact = oracle_flux(field, qubit, cutoff=3)
        worst_formula = max(worst_formula, abs(exact - formula))
        worst_cutoff = max(
            worst_cutoff, abs(exact - uniform_oracle_flux(field, qubit, cutoff=4))
        )
        evaluations += 1
    report(
        2,
        "Fock-oracle equivalence",
        worst_formula <= 1e-10 and worst_cutoff <= 1e-12,
        f"max |oracle - formula| = {worst_formula:.3e}, "
        f"max |oracle - uniform cutoff 4| = {worst_cutoff:.3e} over {evaluations} evaluations",
    )


def test_criterion_3_input_state_independence():
    rng = np.random.default_rng(424242)
    configs = [
        ScenarioConfig("a", KIND_TWO_MODE, 0.7, squeezing_to_H(0.5)),
        ScenarioConfig("a", KIND_SINGLE_SQUEEZER, 0.7, squeezing_to_H(0.875)),
        ScenarioConfig("b", KIND_TWO_MODE, 0.7, squeezing_to_H(0.5), ETA_AUTO),
        ScenarioConfig("b", KIND_SINGLE_SQUEEZER, 0.7, squeezing_to_H(0.875), 0.6),
        ScenarioConfig("c", KIND_TWO_MODE, 0.7, squeezing_to_H(0.5)),
        ScenarioConfig("c", KIND_SINGLE_SQUEEZER, 0.7, squeezing_to_H(0.875)),
    ]
    worst = 0.0
    for config in configs:
        outputs = build_scenario(config)
        values = [
            visibility(port_count(outputs.port_a, outputs.port_b, random_qubit(rng)))
            for _ in range(100)
        ]
        worst = max(worst, float(np.std(values)))
    report(
        3,
        "input-state independence",
        worst <= 1e-12,
        f"max std of visibility across 100 random qubits = {worst:.3e} "
        f"over {len(configs)} scenarios",
    )


def test_criterion_4_classical_limit():
    table = sweep_gain(ScenarioConfig("a", KIND_CLASSICAL, 0.0, 1.0), default_gain_grid())
    best = table.peak()
    gain, vis = table.gains[best], table.visibility[best]
    ok = (
        abs(vis - 0.4472) <= 0.005
        and abs(gain - 0.447) <= 0.01
        and abs(vis - QUOTED_CLASSICAL_MAX) <= 0.03
    )
    report(
        4,
        "classical limit",
        ok,
        f"max V = {vis:.4f} at gain {gain:.3f} "
        f"(quoted value {QUOTED_CLASSICAL_MAX} differs by "
        f"{abs(vis - QUOTED_CLASSICAL_MAX):.4f})",
    )


def test_criterion_5_perfect_teleportation_limit():
    config = ScenarioConfig("a", KIND_TWO_MODE, 1.0, squeezing_to_H(0.9999))
    value = visibility(evaluate_counts(config))
    report(5, "perfect-teleportation limit", value >= 0.999, f"V = {value:.6f}")


def test_criterion_6_balanced_unit_visibility():
    worst = 0.0
    for s in (0.25, 0.5, 0.9):
        H = squeezing_to_H(s)
        gain = optimal_gain(H)
        config = ScenarioConfig("b", KIND_TWO_MODE, gain, H, gain * gain)
        worst = max(worst, abs(visibility(evaluate_counts(config)) - 1.0))
    exact_third = optimal_gain(squeezing_to_H(0.5)) == 1 / 3
    report(
        6,
        "balanced unit visibility",
        worst <= 1e-9 and exact_third,
        f"max |V - 1| = {worst:.3e}; optimal gain at s=0.5 == 1/3 is {exact_third}",
    )


def test_criterion_7_self_test_lock_point():
    worst_count = 0.0
    worst_vis = 0.0
    for s in (0.25, 0.5, 0.9):
        H = squeezing_to_H(s)
        config = ScenarioConfig("c", KIND_TWO_MODE, optimal_gain(H), H)
        counts = evaluate_counts(config)
        worst_count = max(worst_count, counts.count_b)
        worst_vis = max(worst_vis, abs(visibility(counts) - 1.0))
    worst_flat = 0.0
    for gain in GAIN_GRID[1:]:
        config = ScenarioConfig("c", KIND_CLASSICAL, gain, 1.0)
        worst_flat = max(worst_flat, abs(visibility(evaluate_counts(config)) - 0.2))
    ok = worst_count <= 1e-12 and worst_vis <= 1e-9 and worst_flat <= 1e-12
    report(
        7,
        "self-test lock point",
        ok,
        f"max dark count = {worst_count:.3e}, max |V - 1| = {worst_vis:.3e}, "
        f"max |V - 0.2| (no entanglement) = {worst_flat:.3e}",
    )


def test_criterion_8_source_comparison():
    grid = default_gain_grid()
    two_mode = sweep_gain(ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(0.5)), grid)
    single = sweep_gain(
        ScenarioConfig("a", KIND_SINGLE_SQUEEZER, 0.0, squeezing_to_H(0.875)), grid
    )
    dominated = bool((two_mode.visibility[1:] > single.visibility[1:]).all())
    ratio = two_mode.visibility[two_mode.peak()] / single.visibility[single.peak()]
    report(
        8,
        "source comparison",
        dominated and 1.20 <= ratio <= 1.35,
        f"two-mode dominates pointwise: {dominated}; peak ratio = {ratio:.4f}",
    )


def test_criterion_9_fidelity_anchors():
    classical = coherent_fidelity(TeleporterSpec(KIND_CLASSICAL, 1.0, 1.0))
    two_mode = coherent_fidelity(TeleporterSpec(KIND_TWO_MODE, 1.0, squeezing_to_H(0.5)))
    single = coherent_fidelity(
        TeleporterSpec(KIND_SINGLE_SQUEEZER, 1.0, squeezing_to_H(0.875))
    )
    gap = abs(single - two_mode)
    ok = abs(classical - 0.5) <= 1e-9 and gap <= 0.03
    report(
        9,
        "fidelity anchors",
        ok,
        f"classical F = {classical:.12f}; matched-pair gap |{single:.4f} - {two_mode:.4f}|"
        f" = {gap:.4f} (convention residual, window 0.03)",
    )


def test_criterion_10_monotonicity():
    grid = default_gain_grid()
    peaks = []
    for s in (0.0, 0.25, 0.5, 0.75, 0.9):
        table = sweep_gain(ScenarioConfig("a", KIND_TWO_MODE, 0.0, squeezing_to_H(s)), grid)
        peaks.append(table.visibility[table.peak()])
    nondecreasing = all(a <= b for a, b in zip(peaks, peaks[1:]))
    report(
        10,
        "peak visibility monotone in squeezing",
        nondecreasing,
        "peaks = " + ", ".join(f"{value:.4f}" for value in peaks),
    )


def test_criterion_11_commutator_suite():
    worst_self = 0.0
    worst_cross = 0.0
    networks = 0
    for gain in GAIN_GRID:
        for s in SQUEEZING_GRID:
            H = squeezing_to_H(s)
            for source in (KIND_TWO_MODE, KIND_SINGLE_SQUEEZER):
                for layout in ("a", "b", "c"):
                    eta = ETA_AUTO if layout == "b" else None
                    fields = build_scenario(
                        ScenarioConfig(layout, source, gain, H, eta)
                    ).all_fields
                    networks += 1
                    for i, field in enumerate(fields):
                        worst_self = max(worst_self, abs(commutator(field, field) - 1.0))
                        for other in fields[i + 1 :]:
                            worst_cross = max(worst_cross, abs(commutator(field, other)))
    ok = worst_self <= 1e-12 and worst_cross <= 1e-12
    report(
        11,
        "commutator suite",
        ok,
        f"max |[O,O^dag] - 1| = {worst_self:.3e}, max cross = {worst_cross:.3e} "
        f"over {networks} networks",
    )


def test_criterion_12_composition_check():
    worst = 0.0
    for gain in (0.5, 1.0):
        for H in (1.125, 3.025):
            spec = TeleporterSpec(KIND_TWO_MODE, gain, H)
            direct_reg = ModeRegistry()
            composed_reg = ModeRegistry()
            fields = {}
            for name, reg, channel in (
                ("direct", direct_reg, teleport_two_mode),
                ("composed", composed_reg, teleport_composed),
            ):
                c_mode, _ = reg.signal_pair()
                fields[name] = (channel(annihilator_field(c_mode), spec), reg)
            direct, direct_reg = fields["direct"]
            composed, composed_reg = fields["composed"]
            for index in range(4):
                du, dv = direct.coefficient(ModeId(index, direct_reg))
                cu, cv = composed.coefficient(ModeId(index, composed_reg))
                worst = max(worst, abs(abs(du) - abs(cu)), abs(abs(dv) - abs(cv)))
    report(
        12,
        "composition check",
        worst <= 1e-12,
        f"max coefficient-magnitude mismatch = {worst:.3e}",
    )


if __name__ == "__main__":
    pytest.main([__file__, "-s", "-q"])
