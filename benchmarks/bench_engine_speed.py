"""Hierarchy-engine throughput: the 2M-reference uncoalesced microbench.

Uncoalesced traffic is the walker's worst case: 2M uniformly random
references over a 768 KiB footprint produce one cache probe per
reference (no run coalescing), miss the 8 KB L1 almost always and split
the L2 roughly 2:1 between hits and DRAM fetches.  The seed tree
sustained ~0.19 M accesses/s here; the compiled engine must stay at
least ``GATE_MIN_SPEEDUP`` times above that, and the measured numbers
are persisted to ``benchmarks/results/BENCH_engine.json`` so the perf
trajectory is tracked across changes.

Run the gate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_speed.py -m perf_smoke

or standalone (measures both engines and writes the artifact)::

    PYTHONPATH=src python benchmarks/bench_engine_speed.py
"""

import json
import platform
import time
from pathlib import Path

import numpy as np
import pytest

from repro.mem import cwalker
from repro.mem.hierarchy import HierarchyConfig, MemorySystem
from repro.mem.trace import AccessBatch

RESULTS_DIR = Path(__file__).parent / "results"

#: The microbench instance (seed tree: ~10.5 s for the 2M references).
N_REFS = 2_000_000
FOOTPRINT_LINES = 12_288  # 768 KiB of 64-byte lines: 1.5x the L2
RNG_SEED = 20050307

#: Throughput of the seed tree's walker on this microbench, the anchor
#: every later PR is compared against (accesses per second).
SEED_BASELINE = 0.19e6
#: The perf_smoke gate fails below this multiple of the seed baseline.
GATE_MIN_SPEEDUP = 2.0


def build_microbench_batch(n_refs: int = N_REFS) -> AccessBatch:
    """The canonical uncoalesced random-reference batch."""
    rng = np.random.default_rng(RNG_SEED)
    addrs = (rng.integers(0, FOOTPRINT_LINES, n_refs) * 64).astype(np.int64)
    return AccessBatch.from_addresses(addrs, instructions=n_refs)


def measure_engine(engine: str, batch: AccessBatch) -> dict:
    """Throughput of one engine over ``batch`` (fresh system)."""
    mem = MemorySystem(1, HierarchyConfig(engine=engine))
    start = time.perf_counter()
    result = mem.execute_batch(0, 1, batch, now=0.0)
    elapsed = time.perf_counter() - start
    return {
        "engine": engine,
        "seconds": round(elapsed, 3),
        "accesses_per_sec": round(batch.n_accesses / elapsed, 1),
        "l1_misses": result.l1_misses,
        "l2_misses": result.l2_misses,
        "dram_lines": result.dram_lines,
    }


def write_engine_artifact(measurements: dict) -> Path:
    """Persist ``BENCH_engine.json`` under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_engine.json"
    path.write_text(json.dumps(measurements, indent=2) + "\n")
    return path


def _collect(engines) -> dict:
    batch = build_microbench_batch()
    runs = [measure_engine(engine, batch) for engine in engines]
    compiled = runs[0]["accesses_per_sec"]
    return {
        "bench": "engine_speed_2M_uncoalesced",
        "n_refs": batch.n_accesses,
        "footprint_bytes": FOOTPRINT_LINES * 64,
        "seed_baseline_accesses_per_sec": SEED_BASELINE,
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "c_walker_available": cwalker.load() is not None,
        "python": platform.python_version(),
        "runs": runs,
        "compiled_speedup_vs_seed": round(compiled / SEED_BASELINE, 2),
    }


@pytest.mark.perf_smoke
def test_engine_speed_gate():
    """Compiled engine must hold >= 2x the seed baseline on the
    microbench."""
    report = _collect(["compiled", "reference"])
    write_engine_artifact(report)
    compiled = report["runs"][0]["accesses_per_sec"]
    reference = report["runs"][1]["accesses_per_sec"]
    floor = GATE_MIN_SPEEDUP * SEED_BASELINE
    assert compiled >= floor, (
        f"compiled engine regressed: {compiled:.0f} accesses/s is below "
        f"the {floor:.0f} gate ({GATE_MIN_SPEEDUP}x seed baseline); "
        f"reference engine ran {reference:.0f}"
    )


@pytest.mark.perf_smoke
def test_engine_speed_identical_stats():
    """The microbench itself must see bit-identical engine statistics."""
    batch = build_microbench_batch(n_refs=200_000)
    systems = {}
    for engine in HierarchyConfig.ENGINES:
        mem = MemorySystem(1, HierarchyConfig(engine=engine))
        systems[engine] = (mem, mem.execute_batch(0, 1, batch, now=0.0))
    comp_mem, comp_result = systems["compiled"]
    ref_mem, ref_result = systems["reference"]
    assert comp_result == ref_result
    assert comp_mem.l2_stats.per_owner == ref_mem.l2_stats.per_owner
    assert (comp_mem.l2_stats.eviction_matrix
            == ref_mem.l2_stats.eviction_matrix)
    assert vars(comp_mem.memory.traffic) == vars(ref_mem.memory.traffic)


if __name__ == "__main__":
    report = _collect(["compiled", "reference"])
    path = write_engine_artifact(report)
    print(json.dumps(report, indent=2))
    print(f"artifact: {path}")
