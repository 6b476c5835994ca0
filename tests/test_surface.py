"""The package's public names, its imports, and the hooks the benchmark tracer patches."""

from __future__ import annotations

import ast
import importlib.util
import inspect
import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

import mzteleport
from mzteleport import HORIZONTAL, ScenarioConfig, build_scenario, cli, fock, modes, teleporter

# The README example, the sweeps, the channel parameters and the
# independent verification routes; everything else lives in a submodule.
PUBLIC = """
    ScenarioConfig ETA_AUTO SweepTable build_scenario evaluate_counts reference_counts
    optimize_eta sweep_gain default_gain_grid TeleporterSpec KIND_TWO_MODE
    KIND_SINGLE_SQUEEZER KIND_CLASSICAL optimal_gain squeezing_to_H H_to_squeezing
    coherent_fidelity teleport_composed QubitInput HORIZONTAL PortCounts photon_flux
    port_count visibility oracle_flux __version__
""".split()

TESTS_DIR = Path(__file__).resolve().parent
README_PATH = TESTS_DIR.parent / "README.md"
TRACER_PATH = TESTS_DIR.parent / "bench" / "tracer.py"
PACKAGE_DIR = TESTS_DIR.parent / "src" / "mzteleport"
TRACER_SLOTS = 15
# Each submodule's ``__all__``: a name only tests use belongs in the tests, not here.
SUBMODULE_EXPORTS = {
    "cli": "main build_parser FIGURES",
    "fock": "oracle_expectation oracle_flux",
    "modes": """ModeId ModeRegistry LinearField annihilator_field field_from_terms combine
        dagger beamsplitter two_mode_squeezer attenuate quadrature_variances""",
    "photometry": "QubitInput PortCounts expectation photon_flux port_count visibility",
    "scenarios": """ETA_AUTO LAYOUTS MAX_GRID_STEPS ScenarioConfig ScenarioOutputs SweepTable
        build_scenario evaluate_counts reference_counts optimize_eta sweep_gain
        default_gain_grid""",
    "teleporter": """KIND_TWO_MODE KIND_SINGLE_SQUEEZER KIND_CLASSICAL KINDS GAIN_MAX
        PUMP_GAIN_MAX TeleporterSpec check_pump_gain check_channel noise_amplitudes
        teleport_two_mode teleport_single_squeezer teleport_composed optimal_gain
        squeezing_to_H H_to_squeezing coherent_fidelity""",
}
SUBMODULES = sorted(SUBMODULE_EXPORTS)


class TestPublicNames:
    def test_all_lists_the_documented_names(self):
        assert len(PUBLIC) == 26
        assert sorted(mzteleport.__all__) == sorted(PUBLIC)
        for name in PUBLIC:
            assert getattr(mzteleport, name) is not None

    def test_star_import_binds_exactly_the_public_names(self):
        namespace: dict = {}
        exec("from mzteleport import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(PUBLIC)

    @pytest.mark.parametrize("name", SUBMODULES)
    def test_submodule_exports_resolve(self, name):
        module = importlib.import_module(f"mzteleport.{name}")
        assert sorted(module.__all__) == sorted(SUBMODULE_EXPORTS[name].split())
        missing = [export for export in module.__all__ if not hasattr(module, export)]
        assert missing == []


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads; a name in ``__all__`` is read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_import_is_used():
    # A retired test or helper can leave its imports behind; this finds them.
    paths = sorted([*PACKAGE_DIR.glob("*.py"), *TESTS_DIR.glob("*.py")])
    assert PACKAGE_DIR / "__init__.py" in paths
    unused = {path.name: names for path in paths if (names := unused_imports(path))}
    assert unused == {}


def test_package_squares_by_multiplying():
    # A float ``x ** 2`` goes through libm pow: it raises OverflowError where
    # ``x * x`` is inf, and it rounds differently now and then. Docstrings
    # are not expressions, so a formula written there stays legal.
    powers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    assert powers == []


def test_package_takes_one_square_root():
    # Every square root of the engine and the closed form goes through
    # modes._sqrt, so swapping modes.math runs them at any precision. The Fock
    # oracle's table (fock._ROOTS) is exempt: it is the independent float
    # route, which no swap should reach.
    roots = {
        (path.name, getattr(statement, "name", "<module>"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for statement in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(statement)
        if "sqrt" in (getattr(node, "attr", None), getattr(node, "id", None))
        or isinstance(node, ast.alias) and node.name == "sqrt"
    }
    assert roots == {("modes.py", "_sqrt"), ("fock.py", "<module>")}


def test_scenarios_have_no_overflow_path():
    # The admitted domain keeps every count and total finite, so scenarios.py
    # neither raises nor catches OverflowError, and no errstate(over=...)
    # hides a numpy overflow. A batched sweep must not bring them back.
    tree = ast.parse((PACKAGE_DIR / "scenarios.py").read_text())
    paths = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "OverflowError")
        or (isinstance(node, ast.keyword) and node.arg == "over")
    ]
    assert paths == []


def test_field_algebra_tests_no_value():
    # A field keeps every term its elements write, a cancelled one as
    # (0, 0), so no coefficient gets a rule of its own; a zero test would
    # also branch on each cell of an array coefficient.
    tree = ast.parse((PACKAGE_DIR / "modes.py").read_text())
    zero_tests = sorted(
        {
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(
                isinstance(operand, ast.Constant) and operand.value == 0
                for operand in (node.left, *node.comparators)
            )
        }
    )
    assert zero_tests == []


def test_elements_take_no_modes():
    # Each element draws its vacuum inputs from its input's registry, so no
    # two elements can share an ancilla. An element that took a mode would
    # hand that guarantee back to its callers.
    assert list(inspect.signature(modes.ModeRegistry.fresh_mode).parameters) == ["self"]
    elements = (
        modes.beamsplitter,
        modes.two_mode_squeezer,
        modes.attenuate,
        teleporter.teleport_two_mode,
        teleporter.teleport_single_squeezer,
        teleporter.teleport_composed,
    )
    mode_parameters = [
        f"{element.__name__}({name})"
        for element in elements
        for name, parameter in inspect.signature(element).parameters.items()
        if parameter.annotation is inspect.Parameter.empty or "ModeId" in parameter.annotation
    ]
    assert mode_parameters == []


def test_fock_oracle_reads_only_a_field_and_a_qubit():
    # The oracle is the route that shares nothing with photon_flux but the
    # field's coefficients, so it may take nothing else from the package.
    tree = ast.parse((PACKAGE_DIR / "fock.py").read_text())
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mzteleport")):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name.startswith("mzteleport")}
    assert names == {"LinearField", "QubitInput"}


class TestReadme:
    def test_python_example_prints_what_it_claims(self):
        # The README's one Python block: a locked dark port and unit visibility.
        (example,) = re.findall(r"```python\n(.*?)```", README_PATH.read_text(), re.DOTALL)
        out = StringIO()
        with redirect_stdout(out):
            exec(example, {})
        dark, fringe = map(float, out.getvalue().split())
        assert 0.0 <= dark < 1e-30
        assert fringe == 1.0

    def test_command_lines_run(self, tmp_path, monkeypatch, capsys):
        # Every mzteleport line of the README's sh blocks: a renamed flag or
        # preset fails here instead of leaving the docs stale.
        blocks = re.findall(r"```sh\n(.*?)```", README_PATH.read_text(), re.DOTALL)
        lines = [line for block in blocks for line in block.splitlines()]
        commands = [line for line in lines if line.startswith("mzteleport ")]
        assert len(commands) >= 3
        monkeypatch.chdir(tmp_path)
        for line in commands:
            assert cli.main(shlex.split(line, comments=True)[1:]) == 0, line
            capsys.readouterr()


class TestBenchmarkHooks:
    """The benchmark wraps package attributes by name; a rename must fail here."""

    def test_tracer_patches_resolve_and_restore(self, tmp_path):
        spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        tracer = tracer_module.Tracer()
        patches = tracer_module.LayerPatches(tracer)
        slots = [(owner, name, original) for owner, name, original, _ in patches._slots]
        assert len(slots) == TRACER_SLOTS
        # A dark-port field of layout c: its terms hold a zero on the horizontal
        # signal mode and none on the vertical one.
        dark = build_scenario(ScenarioConfig("c", "two-mode", 0.5, 1.125)).port_b[0]
        modes = dark.terms.keys() | {mode.index for mode in dark.registry.signal_pair()}
        patches.apply()
        try:
            code = cli.main(["sweep", "--steps", "3", "--out", str(tmp_path / "sweep.csv")])
            fock.oracle_flux(dark, HORIZONTAL)
        finally:
            patches.restore()
        assert code == 0
        # One network build carries the 3-step sweep's whole grid.
        assert tracer.totals["scenarios.build_scenario"][0] == 1
        assert tracer.counts["modes.terms"] > 0
        assert tracer.totals["fock.oracle_flux"][0] == 1
        assert len(modes) == 7
        assert tracer.counts["fock.cells"] == 4 ** len(modes)
        for owner, name, original in slots:
            assert getattr(owner, name) is original
