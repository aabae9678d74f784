"""perfbench: cold end-to-end and per-layer benchmark of ``repro``.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload fig7_alu_grid --seed 1 \
        --seconds 45 --trace 0

Each repetition runs the workload cold in a fresh interpreter (one at a
time), with a pinned environment and an empty cache root under
``.perfbench/`` in the checkout.  Every simulation result is compared
with the per-cycle reference loop's.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.  README.md in this
directory defines every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REP = HERE / "rep.py"
EXPECTED = HERE / "expected"
WORK = ROOT / ".perfbench"

WORKLOADS = ("fig7_alu_grid", "fig8_regfile_grid")
DEFAULT_SEED = 1

#: Repetitions a run makes even when ``--seconds`` is shorter.
MIN_REPS = 3

#: Wall-clock limit of one whole run, below the 180 s a caller allows.
RUN_LIMIT_S = 170.0

#: Per-layer counts that depend on host timing (the engine's adaptive
#: pool fallback and the live hand-off of diverged runs): reported, but
#: never expected to repeat exactly.
TIMING_DEPENDENT = ("engine.pool_fallbacks", "batch.offloaded_runs")

#: Per-layer counts derived from simulation results alone: they repeat
#: exactly for a seed, whatever the host, engine or batching does.
EXACT_COUNTS = ("pipeline.committed", "pipeline.cycles",
                "iq.compaction_moves", "model.boundaries",
                "core.alu_turnoffs", "core.rf_turnoffs")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a broken child)."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def child_env(cache_dir: Path, reference: bool = False) -> Dict[str, str]:
    """The whole environment of a child interpreter.

    Built from nothing, so the caller's shell cannot change what runs:
    every ``REPRO_*`` switch is pinned, the result cache and checkpoint
    store live in ``cache_dir``, and temp files stay in the checkout.
    """
    env = {
        "PATH": "/usr/local/bin:/usr/bin:/bin",
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(WORK / "tmp"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "REPRO_JOBS": "2",
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DIR": str(cache_dir),
        "REPRO_CHECKPOINTS": "1",
        "REPRO_BATCH": "1",
        "REPRO_BATCH_MERGE": "1",
        "REPRO_BATCH_SHM": "1",
        "REPRO_ACCEL": "auto",
        "REPRO_KERNEL": "1",
        "REPRO_SANITIZE": "0",
        "REPRO_TRACE": "0",
    }
    if reference:
        env.update(REPRO_KERNEL="0", REPRO_BATCH="0", REPRO_ACCEL="0")
    return env


def run_child(workload: str, seed: int, mode: str,
              deadline: float) -> Tuple[Dict[str, Any], float]:
    """Run one repetition in a fresh interpreter and return its record
    and its set-up time (interpreter start until ``repro`` is ready).

    The child gets its own session so that, on a timeout, it and its
    pool workers are killed together; the call returns only after the
    child has ended.
    """
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK / "tmp"))
    command = [sys.executable, str(REP), "--workload", workload,
               "--seed", str(seed), "--mode", mode]
    try:
        spawned = time.monotonic()
        child = subprocess.Popen(
            command, cwd=ROOT, env=child_env(cache_dir, mode == "reference"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True)
        try:
            out, err = child.communicate(
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise BenchError(f"{workload} ({mode}) ran past the run limit")
        except BaseException:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            raise
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise BenchError(f"{workload} ({mode}) exited {child.returncode}:\n"
                         f"{err.strip()[-2000:]}")
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{workload} ({mode}) printed no record: {exc}")
    if Path(record["repro_path"]).resolve() != (ROOT / "src" / "repro"):
        raise BenchError(f"imported repro from {record['repro_path']}, "
                         f"not from this checkout")
    return record, record["ready_at"] - spawned


# ---------------------------------------------------------------------------
# expected results
# ---------------------------------------------------------------------------

def source_digest() -> str:
    """SHA-256 over the ``repro`` sources (the program under test)."""
    digest = hashlib.sha256()
    src = ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def expected_results(workload: str, seed: int,
                     deadline: float) -> Dict[str, Any]:
    """``SimulationResult.to_dict()`` of every operation, from the
    per-cycle reference loop with batching off.

    The default seed's results are stored in ``expected/``; any other
    seed is computed untimed and kept under ``.perfbench/reference/``,
    keyed by the seed and the digest of the ``repro`` sources.  A
    missing file is recomputed and written.
    """
    if seed == DEFAULT_SEED:
        path = EXPECTED / f"{workload}.json"
    else:
        key = hashlib.sha256(
            f"{workload}:{seed}:{source_digest()}".encode()).hexdigest()
        path = WORK / "reference" / f"{workload}-{key[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text())["results"]
    record, _ = run_child(workload, seed, "reference", deadline)
    payload = {"workload": workload, "seed": seed,
               "cycles": record["cycles"], "results": record["results"]}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    os.replace(tmp, path)
    return record["results"]


def count_failures(expected: Mapping[str, Any],
                   results: Optional[Mapping[str, Any]]) -> int:
    """Operations of one repetition that failed: every expected result
    that is missing (the run raised) or differs in any field."""
    if results is None:
        return len(expected)
    return sum(1 for key, value in expected.items()
               if results.get(key) != value)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over repetitions of the end-to-end metrics."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "sim_kips": statistics.median(
            r["committed"] / r["wall_s"] / 1000.0 for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def regressions(baseline: Mapping[str, float], current: Mapping[str, float],
                spec: Optional[Mapping[str, Any]] = None) -> List[str]:
    """End-to-end metrics by which ``current`` is worse than
    ``baseline`` by more than the metric's bound in BENCHMARK.json."""
    spec = load_spec() if spec is None else spec
    worse: List[str] = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        if name not in baseline or name not in current:
            continue
        change = (current[name] - baseline[name]) / baseline[name]
        if metric["better"] == "higher":
            change = -change
        if change > bound:
            worse.append(name)
    return worse


def host_fingerprint() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": commit,
            "source_sha256": source_digest()}


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    """One benchmark run: returns the final record (see module doc)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    host = host_fingerprint()
    host["loadavg_before"] = os.getloadavg()
    expected = expected_results(workload, seed, deadline)

    timed_from = time.monotonic()
    reps: List[Dict[str, Any]] = []
    durations: List[float] = []
    failed = attempted = 0
    traced: Optional[Dict[str, Any]] = None
    versions: Dict[str, Any] = {}

    def one(mode: str) -> Dict[str, Any]:
        nonlocal failed, attempted
        attempted += len(expected)
        try:
            record, setup_s = run_child(workload, seed, mode, deadline)
        except BenchError as exc:
            print(exc, file=sys.stderr)
            failed += len(expected)
            return {}
        failed += count_failures(expected, record["results"])
        versions.update(record["versions"])
        record["setup_s"] = setup_s
        return record

    # The traced pass comes first; untraced repetitions then fill the
    # measuring time (at least MIN_REPS of them, or one after a traced
    # pass) and give the medians.  Another repetition is started if it
    # is expected to end nearer to ``seconds`` than stopping now would,
    # so a run measures ``seconds`` on average.
    if trace:
        traced = one("traced")
    wanted = 1 if trace else MIN_REPS
    while True:
        rep_start = time.monotonic()
        record = one("timed")
        if not record:
            break
        reps.append(record)
        now = time.monotonic()
        durations.append(now - rep_start)
        per_rep = statistics.median(durations)
        if (len(reps) >= wanted
                and now + per_rep / 2 - timed_from > seconds):
            break
        if now + 2 * per_rep > deadline:
            break
    host["loadavg_after"] = os.getloadavg()
    host.update(versions)

    metrics: Dict[str, Dict[str, Any]] = {}
    units = {m["name"]: m["unit"] for m in
             load_spec()["end_to_end" if not trace else "per_layer"]}
    if reps:
        e2e = end_to_end(reps)
        if not trace:
            metrics = {name: {"value": e2e[name], "unit": units[name]}
                       for name in units}
        elif traced:
            layers = dict(traced["layers"])
            layers["trace.overhead_s"] = traced["wall_s"] - e2e["wall_s"]
            metrics = {name: {"value": layers[name], "unit": units[name]}
                       for name in units}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "host": host,
        "samples": {key: [r[key] for r in reps] for key in
                    ("setup_s", "wall_s", "committed", "peak_rss_mb",
                     "cpu_s", "accel_compile_s")},
        "run_s": time.monotonic() - started,
    }
    if traced:
        record["traced"] = {key: traced[key] for key in
                            ("wall_s", "layers", "spans")}
    return {"record": record,
            "result": {"correct": failed == 0 and bool(metrics),
                       "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record, result = out["record"], out["result"]
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "records.jsonl", "a") as handle:
        handle.write(json.dumps({**record, "result": result}) + "\n")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("traced",)}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
