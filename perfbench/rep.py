"""One cold repetition of a perfbench workload.

``run.py`` starts this file in a fresh interpreter for every repetition,
with a pinned environment and an empty cache root, and reads the JSON
record it prints as its last line of standard output::

    python3 perfbench/rep.py --workload fig7_alu_grid --seed 1 --mode timed

Modes:

* ``timed``: no instrumentation; measures the end-to-end window.
* ``traced``: the same window with spans around public entry points of
  ``repro`` and a module-bucketed profile, for the per-layer split.
* ``reference``: the same workload, untimed; ``run.py`` starts it with
  ``REPRO_KERNEL=0`` and ``REPRO_BATCH=0`` so the per-cycle reference loop
  produces the expected results.

Nothing here edits ``repro``: spans wrap its public callables from the
outside and are removed again when the window closes.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
import time
from contextlib import contextmanager
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional

import numpy
import scipy

import repro
from repro.obs.report import generate
from repro.pipeline import accel
from repro.sim import batch as sim_batch
from repro.sim.checkpoint import CheckpointStore
from repro.sim.parallel import ExperimentEngine, ResultCache
from repro.workloads.trace import clear_registry

#: Worker count of the grid workloads; pinned so hosts with more cores
#: measure the same configuration.
JOBS = 2

#: The four benchmarks of both grids: mesa and perlbmk are
#: ALU-constrained, gzip is not, and parser is insensitive.
GRID_BENCHMARKS = ("gzip", "mesa", "perlbmk", "parser")

#: Workload name -> figure of the paper it regenerates.
WORKLOADS = {"fig7_alu_grid": "7", "fig8_regfile_grid": "8"}

#: Simulated cycles of every run of a grid.
CYCLES = 20_000

#: Profiler self time is bucketed by the module that owns the code.
PROFILE_BUCKETS = (
    ("workloads.gen_s", ("/repro/workloads/",)),
    ("pipeline.kernel_s", ("/repro/pipeline/kernel.py",
                           "/repro/pipeline/accel.py")),
    ("pipeline.issue_queue_s", ("/repro/pipeline/issue_queue.py",)),
    ("pipeline.caches_s", ("/repro/pipeline/caches.py",)),
    ("pipeline.other_s", ("/repro/pipeline/",)),
)


def result_key(result: Any) -> str:
    return f"{result.benchmark}/{result.technique_label}"


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Spans:
    """In-memory spans: name, start, end, parent, and time covered by
    direct children (so a span's self time needs no second pass)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[Dict[str, Any]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = {"id": len(self.records), "name": name,
                  "parent": None if parent is None else parent["id"],
                  "start": perf_counter(), "end": None, "child_s": 0.0}
        self.records.append(record)
        self._stack.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += record["end"] - record["start"]

    def wrap(self, name: str, fn: Any) -> Any:
        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def self_time(self, name: str) -> float:
        return sum(r["end"] - r["start"] - r["child_s"]
                   for r in self.records if r["name"] == name)


class Probe:
    """Spans and counts taken at the boundaries of ``repro``'s layers
    by wrapping public callables for the duration of one window."""

    def __init__(self) -> None:
        self.spans = Spans()
        #: Run-boundaries served and execution-class boundaries
        #: executed by batched groups (see ``batch.sharing_ratio``).
        self.served = 0
        self.executed = 0

    def _run_group(self, original: Any) -> Any:
        @wraps(original)
        def run_group(configs: Any, *args: Any, **kwargs: Any) -> Any:
            stats = kwargs.get("stats")
            before = dict(stats.class_occupancy) if stats else {}
            offloaded = stats.offloaded_runs if stats else 0
            with self.spans.span("batch.run_group"):
                outcomes = original(configs, *args, **kwargs)
            if stats is not None:
                delta = {k: n - before.get(k, 0)
                         for k, n in stats.class_occupancy.items()}
                kept = len(configs) - (stats.offloaded_runs - offloaded)
                self.served += kept * sum(delta.values())
                self.executed += sum(k * n for k, n in delta.items())
            return outcomes
        return run_group

    @contextmanager
    def installed(self) -> Iterator["Probe"]:
        spans = self.spans
        patches = [
            (ExperimentEngine, "run_many",
             spans.wrap("engine.run_many", ExperimentEngine.run_many)),
            (ResultCache, "get",
             spans.wrap("engine.cache_io", ResultCache.get)),
            (ResultCache, "put",
             spans.wrap("engine.cache_io", ResultCache.put)),
            (CheckpointStore, "get",
             spans.wrap("checkpoint.io", CheckpointStore.get)),
            (CheckpointStore, "put",
             spans.wrap("checkpoint.io", CheckpointStore.put)),
            (sim_batch, "run_group", self._run_group(sim_batch.run_group)),
        ]
        saved = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        try:
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def _usage() -> Dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {"cpu_s": (own.ru_utime + own.ru_stime
                      + kids.ru_utime + kids.ru_stime),
            # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the
            # largest waited-for descendant (the biggest pool worker).
            "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0}


def run_workload(workload: str, seed: int, cache_dir: Path,
                 cycles: Optional[int] = None,
                 probe: Optional[Probe] = None) -> Dict[str, Any]:
    """Run ``workload`` once, cold, and return its record.

    The timed window runs from the first call into ``repro`` until the
    report is rendered.  ``cache_dir`` must be empty: it holds the
    grid's result cache and checkpoint store.
    """
    cycles = CYCLES if cycles is None else cycles
    clear_registry()
    captured: List[Any] = []
    window = Spans() if probe is None else probe.spans
    usage0 = _usage()
    engine = ExperimentEngine(jobs=JOBS, cache=ResultCache(cache_dir))
    run_many = engine.run_many

    def capturing(configs: Any) -> Any:
        results = run_many(configs)
        captured.extend(results)
        return results

    engine.run_many = capturing  # type: ignore[method-assign]
    start = perf_counter()
    with window.span("obs.window"):
        report = generate(figures=[WORKLOADS[workload]],
                          benchmarks=GRID_BENCHMARKS,
                          max_cycles=cycles, seed=seed, engine=engine)
        rendered = len(report.to_markdown())
    wall_s = perf_counter() - start
    usage1 = _usage()
    results = {result_key(r): r.to_dict() for r in captured}
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "cycles": cycles,
        "wall_s": wall_s,
        "committed": sum(r.committed for r in captured),
        "peak_rss_mb": usage1["peak_rss_mb"],
        "cpu_s": usage1["cpu_s"] - usage0["cpu_s"],
        "rendered_chars": rendered,
        # Without numba this stays 0; with it, the first compile (or
        # on-disk cache load) falls inside the window.
        "accel_compile_s": engine.stats.accel_compile_s,
        "results": results,
    }
    if probe is not None:
        record["layers"] = layer_metrics(probe, engine, captured, record)
        record["spans"] = probe.spans.records
    return record


def layer_metrics(probe: Probe, engine: ExperimentEngine,
                  results: List[Any],
                  record: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer split of one traced window (see README.md)."""
    spans = probe.spans
    stages = engine.stats.stage_seconds()
    stats = engine.stats
    cycles = sum(r.cycles for r in results)
    committed = sum(r.committed for r in results)
    layers: Dict[str, float] = {
        f"runner.{name}": seconds for name, seconds in stages.items()}
    layers.update({
        "checkpoint.captures": stats.checkpoint_captures,
        "checkpoint.restores": stats.checkpoint_restores,
        "checkpoint.io_s": spans.total("checkpoint.io"),
        "checkpoint.bytes": (engine.checkpoints.info().size_bytes
                             if engine.checkpoints is not None else 0),
        "engine.run_many_s": spans.total("engine.run_many"),
        "engine.self_s": spans.self_time("engine.run_many"),
        "engine.pool_runs": stats.parallel_runs,
        "engine.inline_runs": stats.inline_runs,
        "engine.retried": stats.retried,
        "engine.degraded": stats.degraded,
        "engine.pool_fallbacks": stats.pool_fallbacks,
        "engine.cache_io_s": spans.total("engine.cache_io"),
        "engine.cpu_s": record["cpu_s"],
        "batch.run_group_s": spans.total("batch.run_group"),
        "batch.groups": stats.batch_groups,
        "batch.runs": stats.batched_runs,
        "batch.forks": stats.fork_count,
        "batch.merges": stats.merge_count,
        "batch.offloaded_runs": stats.offloaded_runs,
        "batch.sharing_ratio": (probe.served / probe.executed
                                if probe.executed else 0.0),
        "pipeline.committed": committed,
        "pipeline.cycles": cycles,
        "pipeline.stall_fraction": (
            sum(r.stall_cycles for r in results) / cycles if cycles else 0.0),
        "pipeline.kips_measured": (
            committed / stages["measure_s"] / 1000.0
            if stages["measure_s"] else 0.0),
        "iq.compaction_moves": sum(
            sum(r.metrics.get(name, {}).get("values", ()))
            for r in results
            for name in ("iq.int.compaction_moves",
                         "iq.fp.compaction_moves")),
        "model.boundaries": sum(
            r.metrics.get("temp.hottest_block_k", {}).get("count", 0)
            for r in results),
        "core.alu_turnoffs": sum(r.alu_turnoffs for r in results),
        "core.rf_turnoffs": sum(r.rf_turnoffs for r in results),
        "obs.render_s": spans.self_time("obs.window"),
    })
    return layers


def profile_buckets(profile: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time summed per module bucket (first match wins)."""
    buckets = {name: 0.0 for name, _ in PROFILE_BUCKETS}
    table = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _, _), (_, _, self_s, _, _) in table.items():
        path = filename.replace("\\", "/")
        for name, markers in PROFILE_BUCKETS:
            if any(marker in path for marker in markers):
                buckets[name] += self_s
                break
    return buckets


def traced_workload(workload: str, seed: int, cache_dir: Path,
                    cycles: Optional[int] = None) -> Dict[str, Any]:
    """One traced window: spans, engine accounting, and a profile of
    this process (pool workers are not profiled)."""
    probe = Probe()
    profile = cProfile.Profile()
    with probe.installed():
        profile.enable()
        try:
            record = run_workload(workload, seed, cache_dir, cycles,
                                  probe=probe)
        finally:
            profile.disable()
    record["layers"].update(profile_buckets(profile))
    return record


def host_versions() -> Dict[str, str]:
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "accel_backend": accel.active_backend()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--mode", default="timed",
                        choices=("timed", "traced", "reference"))
    args = parser.parse_args(argv)
    cache_dir = Path(os.environ["REPRO_CACHE_DIR"])
    versions = host_versions()
    ready_at = time.monotonic()
    if args.mode == "traced":
        record = traced_workload(args.workload, args.seed, cache_dir)
    else:
        record = run_workload(args.workload, args.seed, cache_dir)
    record.update(ready_at=ready_at, mode=args.mode, versions=versions,
                  repro_path=str(Path(repro.__file__).parent))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
