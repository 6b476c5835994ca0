"""In-memory span recorder, attached to mzteleport from outside the package.

Each layer is wrapped at the module attribute the package itself calls
through (``mzteleport.cli.sweep_gain``, ``mzteleport.scenarios.build_scenario``,
``ModeRegistry.fresh_mode``, ...), so nothing under ``src/`` changes.
Functions called tens of times per gain point are only counted; the
others record a span with its parent and self time. Totals are kept per
layer; individual spans are kept for the two outermost levels only, so
a 100001-point sweep does not hold millions of spans in memory.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable

# (module, attribute, layer): wrapped with a span.
TIMED = (
    ("cli", "main", "cli.main"),
    ("cli", "sweep_gain", "scenarios.sweep_gain"),
    ("scenarios", "build_scenario", "scenarios.build_scenario"),
    ("scenarios", "optimize_eta", "scenarios.optimize_eta"),
    ("scenarios", "reference_counts", "scenarios.reference_counts"),
    ("scenarios", "port_count", "photometry.port_count"),
    ("scenarios", "teleport_two_mode", "teleporter.teleport"),
    ("scenarios", "teleport_single_squeezer", "teleporter.teleport"),
    ("teleporter", "teleport_two_mode", "teleporter.teleport"),
    ("teleporter", "teleport_single_squeezer", "teleporter.teleport"),
    ("fock", "oracle_flux", "fock.oracle_flux"),
)

# (module, attribute, layer): call count only.
COUNTED = (
    ("modes", "combine", "modes.combine"),
    ("teleporter", "combine", "modes.combine"),
    ("modes", "ModeRegistry.fresh_mode", "modes.fresh_mode"),
    ("photometry", "photon_flux", "photometry.photon_flux"),
)

# Spans opened at this depth or shallower are kept individually.
KEPT_DEPTH = 1


class Tracer:
    """Span totals per layer, call counts, and the outermost spans."""

    def __init__(self) -> None:
        self.totals: dict[str, list[float]] = {}  # layer -> [calls, seconds, self seconds]
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple[int, str, float, float, str | None]] = []
        self.op = 0  # identifier shared by the spans of one benchmark operation
        self._stack: list[list] = []  # open spans: [layer, start, seconds in children]

    def timed(self, layer: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            frame = [layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                parent = self._stack[-1] if self._stack else None
                self.record(layer, frame[1], end, frame[2], parent[0] if parent else None)
                if parent is not None:
                    parent[2] += end - frame[1]

        return wrapper

    def counted(self, layer: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def record(
        self, layer: str, start: float, end: float, child_seconds: float, parent: str | None
    ) -> None:
        """Add one finished span; ``child_seconds`` is the time its child spans cover."""
        total = self.totals.setdefault(layer, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += end - start
        total[2] += end - start - child_seconds
        if len(self._stack) <= KEPT_DEPTH:
            self.spans.append((self.op, layer, start, end, parent))

    def merge(self, data: dict, parent: str) -> None:
        """Fold in a child process's :meth:`dump`, re-parenting its root spans."""
        for layer, (calls, seconds, self_seconds) in data["totals"].items():
            total = self.totals.setdefault(layer, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += seconds
            total[2] += self_seconds
        self.counts.update(data["counts"])
        for _, layer, start, end, span_parent in data["spans"]:
            self.spans.append((self.op, layer, start, end, span_parent or parent))

    def dump(self) -> dict:
        return {"totals": self.totals, "counts": dict(self.counts), "spans": self.spans}


class LayerPatches:
    """Swaps each layer's module attribute between the original and a wrapper."""

    def __init__(self, tracer: Tracer) -> None:
        import importlib

        import mzteleport.cli  # noqa: F401 - loads every module wrapped below

        self._slots = []
        for table, wrap in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
            for module_name, attribute, layer in table:
                owner = importlib.import_module(f"mzteleport.{module_name}")
                *path, name = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
                wrapper = wrap(layer, original)
                if layer == "scenarios.build_scenario":
                    wrapper = _count_terms(tracer, wrapper)
                elif layer == "fock.oracle_flux":
                    wrapper = _count_cells(tracer, wrapper)
                self._slots.append((owner, name, original, wrapper))

    def apply(self) -> None:
        for owner, name, _, wrapper in self._slots:
            setattr(owner, name, wrapper)

    def restore(self) -> None:
        for owner, name, original, _ in self._slots:
            setattr(owner, name, original)


def _count_terms(tracer: Tracer, build: Callable) -> Callable:
    """Count the stored (u, v) pairs of the four output fields of each network."""

    def build_scenario(*args, **kwargs):
        outputs = build(*args, **kwargs)
        tracer.counts["modes.terms"] += sum(len(f.terms) for f in outputs.all_fields)
        return outputs

    return build_scenario


def _count_cells(tracer: Tracer, oracle: Callable) -> Callable:
    """Count the state-vector cells the oracle materializes: (cutoff+1)**modes."""

    def oracle_flux(field, state, cutoff=3):
        signal = {mode.index for mode in field.registry.signal_pair()}
        tracer.counts["fock.cells"] += (cutoff + 1) ** len(field.terms.keys() | signal)
        return oracle(field, state, cutoff)

    return oracle_flux
