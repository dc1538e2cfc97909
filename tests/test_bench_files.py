"""Every committed root-level BENCH_*.json is raw benchmark output: each
run of `perfbench/run.py` prints an environment, a detail and a result
line, and speed claims cite these files."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
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
