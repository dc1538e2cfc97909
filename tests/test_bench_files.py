"""Every committed root-level BENCH_*.json is raw benchmark output: each
run of `perfbench/run.py` prints an environment, a detail and a result
line, and speed claims cite these files. The names of qheat the
benchmark reads must keep resolving, or it breaks where the tier-1
suite, which does not run `pytest perfbench`, would not see it."""

import ast
import importlib
import json
from pathlib import Path
from types import ModuleType

import pytest

from qheat import BathSpec, make_coupled_qubits

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_holds_correct_run_triples(path):
    """Each run is of the file's own workload, and its result line
    reports exactly the end-to-end metrics BENCHMARK.json declares."""
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines and len(lines) % 3 == 0, len(lines)
    spec = _spec()
    workload = path.stem.removeprefix("BENCH_")
    assert workload in {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    for i in range(0, len(lines), 3):
        environment, detail, result = lines[i:i + 3]
        assert set(environment) == {"environment"}, i
        assert set(detail) == {"detail"}, i + 1
        assert result["correct"] is True, i + 2
        assert environment["environment"]["workload"] == workload, i
        assert set(result["metrics"]) == metrics, i + 2



def _qheat_name(module: str, name: str):
    """module.name, importing the submodule module.name if it is one."""
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")
    return getattr(importlib.import_module(module), name)


def test_the_names_the_benchmark_reads_resolve():
    """Read, not imported: every name of perfbench/tracing.py's WRAPPED
    list resolves on its qheat module, and so does every name a
    perfbench/ file imports from qheat or reads off a qheat module it
    imported. BathSpec takes label=, and make_coupled_qubits returns a
    pair, as perfbench/workloads.py calls them."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    wrapped, = (ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAPPED"])
    for module, names in wrapped.items():
        for name in names:
            _qheat_name(f"qheat.{module}", name)
    reads = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[0] == "qheat"):
                for alias in node.names:
                    value = _qheat_name(node.module, alias.name)
                    if isinstance(value, ModuleType):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                assert hasattr(modules[node.value.id], node.attr), \
                    (path.name, node.value.id, node.attr)
                reads += 1
    assert reads > 20
    BathSpec(temperature=1.0, spectral_density=1.0, label="A")
    system, _ = make_coupled_qubits(1.0, 2.0, 0.5)
    assert system.dim == 4


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_one_cycle_of_each_workload_passes_the_benchmark_checks(
        workload, tmp_path, monkeypatch):
    """Cycle 0 of each workload, run and judged by perfbench/run.py's own
    run_cycle and Tally, fails no output check and leaves no file in its
    working directory once the load is closed."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    load = workloads.WORKLOADS[workload](0)
    tally = run.Tally()
    try:
        run.run_cycle(load, 0, tally)
    finally:
        load.close()
    assert tally.failed == 0, tally.failures
    assert tally.checks > 0
    assert list(tmp_path.iterdir()) == []
