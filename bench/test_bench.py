"""Tests of the benchmark itself: run with `python3 -m pytest -q bench/test_bench.py`.

The traced-run tests take a few minutes: each runs every workload's
traced pass twice.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, CliWorkload  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counters_repeat_across_traced_runs(name):
    units = run.per_layer_units()
    exact = [m for m, unit in units.items() if unit != "s"]
    first, second = (last_json(bench("--workload", name, "--seed", "7", "--seconds", "1",
                                     "--trace", "1")) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(units)
    for metric in exact:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_known_reduction_defect_is_recognised_exactly():
    # 0 < m < 257 for 256 middle elements: (0, 257) has exactly 256
    # intermediates, which a uint8 count wraps to zero.
    n = 258
    m = np.eye(n, dtype=bool)
    m[0, :] = True
    m[:, n - 1] = True
    exact, wrapped = checks.exact_reduction(m), checks.uint8_reduction(m)
    assert not exact[0, n - 1] and wrapped[0, n - 1]

    def dot(edges):
        return "\n".join(f'  "{u}" -> "{v}";' for u, v in np.argwhere(edges))

    assert checks.check_reduction(dot(exact), m) is None
    known = checks.check_reduction(dot(wrapped), m)
    assert known.known_defect == checks.UINT8_WRAP
    other = wrapped.copy()
    other[1, n - 1] = False
    assert checks.check_reduction(dot(other), m).known_defect is None


def test_solution_checks():
    chain = np.triu(np.ones((9, 9), dtype=bool))
    assert checks.check_solution({"kind": "chain", "elements": [0, 4, 8]}, "cac", chain) is None
    assert checks.check_solution({"kind": "chain", "elements": [0, 4]}, "cac", chain)
    assert checks.check_solution({"kind": "antichain", "elements": [0, 4, 8]}, "cac", chain)
    flat = np.eye(9, dtype=bool)
    assert checks.check_solution({"kind": "antichain", "elements": [1, 2, 3]}, "cac", flat) is None
    assert checks.sequence_valid(chain, "ascending", [1, 3, 5])
    assert not checks.sequence_valid(chain, "descending", [1, 3, 5])
    assert not checks.sequence_valid(chain, "ascending", [3, 1])


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if issubclass(w, CliWorkload)])
def test_seed_drives_inputs_not_shape(name, tmp_path):
    def inputs_for(seed):
        work = tmp_path / str(seed)
        workload = WORKLOADS[name](str(work))
        ops = workload.setup(seed)
        files = {f: (work / "inputs" / f).read_bytes() for f in os.listdir(work / "inputs")}
        return [op.stage for op in ops], files

    stages_a, files_a = inputs_for(1)
    stages_b, files_b = inputs_for(2)
    assert stages_a == stages_b and files_a.keys() == files_b.keys()
    assert files_a != files_b
    assert inputs_for(1)[1] == files_a


def test_library_seed_drives_instances():
    sweep = WORKLOADS["library-sweep"]
    shapes = lambda seed: [(i.kind, i.config) for i in sweep(None).setup(seed)]  # noqa: E731
    a, b = shapes(1), shapes(2)
    assert [k for k, _ in a] == [k for k, _ in b] and a != b


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "library-sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
