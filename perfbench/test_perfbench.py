"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import importlib.util
import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load("perfbench_run", HERE / "run.py")
rep = _load("perfbench_rep", HERE / "rep.py")

from repro.sim.runner import Simulator  # noqa: E402


@pytest.fixture
def pinned_env(tmp_path, monkeypatch):
    """The environment ``run.py`` gives a child, applied in-process."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    for name, value in bench.child_env(cache_dir).items():
        if name.startswith("REPRO_"):
            monkeypatch.setenv(name, value)
    return cache_dir


def _expected(workload: str) -> dict:
    path = bench.EXPECTED / f"{workload}.json"
    return json.loads(path.read_text())["results"]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_perturbed_result_is_one_failed_operation(workload):
    expected = _expected(workload)
    assert bench.count_failures(expected, copy.deepcopy(expected)) == 0
    key = sorted(expected)[-1]
    perturbed = copy.deepcopy(expected)
    perturbed[key]["committed"] += 1
    assert bench.count_failures(expected, perturbed) == 1
    nested = copy.deepcopy(expected)
    moves = nested[key]["metrics"]["iq.int.compaction_moves"]["values"]
    moves[0] += 1
    assert bench.count_failures(expected, nested) == 1
    # A repetition that raised returns no results: every operation fails.
    assert bench.count_failures(expected, None) == len(expected)


def test_expected_results_cover_every_operation():
    assert len(_expected("fig7_alu_grid")) == 3 * len(rep.GRID_BENCHMARKS)
    assert len(_expected("fig8_regfile_grid")) == 4 * len(rep.GRID_BENCHMARKS)


def test_injected_slowdown_is_reported_beyond_the_bound(pinned_env,
                                                        monkeypatch):
    def measured() -> dict:
        # A fresh cache directory each time, so nothing is served from
        # the result cache or the checkpoint store.
        cache_dir = Path(tempfile.mkdtemp(dir=pinned_env))
        record = rep.run_workload("fig8_regfile_grid", seed=1,
                                  cache_dir=cache_dir, cycles=2_000)
        record["setup_s"] = 1.0
        return bench.end_to_end([record])

    baseline = measured()
    assert bench.regressions(baseline, baseline) == []

    # Every path of the grid (inline, pooled, batch leader) warms up
    # through Simulator.prepare, so stretching it slows the whole grid.
    original = Simulator.prepare

    def slowed(sim):
        start = time.perf_counter()
        original(sim)
        time.sleep(2 * (time.perf_counter() - start))

    monkeypatch.setattr(Simulator, "prepare", slowed)
    worse = bench.regressions(baseline, measured())
    assert "wall_s" in worse and "sim_kips" in worse


def test_regression_direction_follows_better():
    spec = {"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "sim_kips", "unit": "k", "better": "higher", "bound": 0.1}]}
    base = {"wall_s": 10.0, "sim_kips": 50.0}
    assert bench.regressions(base, {"wall_s": 8.0, "sim_kips": 60.0},
                             spec) == []
    assert bench.regressions(base, {"wall_s": 11.5, "sim_kips": 44.0},
                             spec) == ["wall_s", "sim_kips"]


def test_traced_grid_reports_every_layer(pinned_env, tmp_path):
    names = {m["name"] for m in bench.load_spec()["per_layer"]}
    # trace.overhead_s needs the untraced median, which run.py adds.
    names.discard("trace.overhead_s")
    first = rep.traced_workload("fig7_alu_grid", seed=1,
                                cache_dir=pinned_env, cycles=2_000)
    second_dir = tmp_path / "second"
    second_dir.mkdir()
    second = rep.traced_workload("fig7_alu_grid", seed=1,
                                 cache_dir=second_dir, cycles=2_000)
    for record in (first, second):
        assert names <= set(record["layers"])
        assert record["layers"]["batch.runs"] > 0
        assert record["layers"]["engine.run_many_s"] > 0
    assert first["results"] == second["results"]
    for name in bench.EXACT_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    # Host-timing-dependent counts are reported, never held exact.
    for name in bench.TIMING_DEPENDENT:
        assert name not in bench.EXACT_COUNTS
        assert first["layers"][name] >= 0
    # The probe leaves repro as it found it.
    assert rep.ExperimentEngine.run_many.__name__ == "run_many"
    assert not hasattr(rep.ExperimentEngine.run_many, "__wrapped__")
    assert not hasattr(rep.sim_batch.run_group, "__wrapped__")


def test_pinned_env_ignores_the_callers_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    monkeypatch.setenv("REPRO_CACHE_DIR", ".repro-cache")
    monkeypatch.setenv("REPRO_KERNEL", "0")
    env = bench.child_env(tmp_path)
    assert env["REPRO_JOBS"] == "2"
    assert env["REPRO_CACHE_DIR"] == str(tmp_path)
    assert env["REPRO_KERNEL"] == "1"
    reference = bench.child_env(tmp_path, reference=True)
    assert reference["REPRO_KERNEL"] == "0"
    assert reference["REPRO_BATCH"] == "0"


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig7_alu_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
