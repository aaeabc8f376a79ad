"""Schedule-compiled throughput: the multi-CPU companion of the 2M-ref
microbench.

``bench_engine_speed`` measures one giant batch on one CPU.  This bench
measures a four-CPU tile running communicating task chains whose
compute ops are a few thousand uncoalesced references each, so the
per-op cost of the event kernel and the per-call cost of the walker
matter as much as the walk itself.  The compiled engine keeps
cache/bank/bus state resident in C and flushes whole segments of
consecutive deterministic ops per call; the gate requires it to hold
``GATE_MIN_SPEEDUP`` x the reference engine's throughput on this
workload (measured 5.7x on a 2-vCPU x86-64 VM, Python 3.11; recorded
in ``BENCH_schedule.json``), with bit-identical RunMetrics.

Run the gate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_schedule_speed.py -m perf_smoke

or standalone (measures both engines and writes the artifact)::

    PYTHONPATH=src python benchmarks/bench_schedule_speed.py
"""

import json
import platform as platform_mod
import time
from pathlib import Path

import pytest

from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.exp.scenario import run_metrics_to_payload
from repro.kpn.graph import FifoSpec, ProcessNetwork, TaskSpec
from repro.apps.synthetic import sink_program, source_program
from repro.mem import cwalker

RESULTS_DIR = Path(__file__).parent / "results"

#: The bench instance: four source -> table-walker -> sink chains on a
#: four-CPU paper tile.  Each walker op performs ``LOOKUPS``
#: data-dependent (uncoalesced) table references, and ``BURSTS`` ops
#: run back-to-back between FIFO synchronisations, the segment shape
#: the compiled engine batches into single C calls.
N_CHAINS = 4
N_CPUS = 4
N_TOKENS = 48
BURSTS = 4
LOOKUPS = 3000
TABLE_BYTES = 192 * 1024

#: The perf_smoke gate fails when the compiled engine drops below this
#: multiple of the reference engine (measured 5.7x; the margin absorbs
#: CI machine noise).
GATE_MIN_SPEEDUP = 3.6


def _walker_program(ctx):
    """Bursts of data-dependent table lookups between FIFO syncs."""
    n_tokens = ctx.params["n_tokens"]
    bursts = ctx.params["bursts"]
    lookups = ctx.params["lookups"]
    table_bytes = min(ctx.params["table_bytes"], ctx.bss.size)
    for _ in range(n_tokens):
        yield ctx.read("in")
        for _ in range(bursts):
            yield ctx.compute(
                ctx.fetch(lookups * 4),
                ctx.table(ctx.bss, lookups, table_bytes=table_bytes,
                          skew=1.1),
                label="vld",
            )
        yield ctx.write("out")


def build_schedule_network(n_tokens: int = N_TOKENS) -> ProcessNetwork:
    """The canonical multi-chain schedule-bench network."""
    network = ProcessNetwork(
        "schedule_bench", rt_data_bytes=8 * 1024, rt_bss_bytes=8 * 1024
    )
    for chain in range(N_CHAINS):
        network.add_task(TaskSpec(
            name=f"src{chain}", program=source_program,
            params={"n_tokens": n_tokens, "work_bytes": 2048,
                    "instr": 500},
            heap_bytes=4096,
        ))
        network.add_task(TaskSpec(
            name=f"walk{chain}", program=_walker_program,
            params={"n_tokens": n_tokens, "bursts": BURSTS,
                    "lookups": LOOKUPS, "table_bytes": TABLE_BYTES},
            bss_bytes=TABLE_BYTES,
        ))
        network.add_task(TaskSpec(
            name=f"sink{chain}", program=sink_program,
            params={"n_tokens": n_tokens, "work_bytes": 2048,
                    "instr": 500},
            heap_bytes=4096,
        ))
        network.add_fifo(FifoSpec(
            name=f"a{chain}", producer=f"src{chain}", producer_port="out",
            consumer=f"walk{chain}", consumer_port="in",
            token_bytes=512, capacity_tokens=4,
        ))
        network.add_fifo(FifoSpec(
            name=f"b{chain}", producer=f"walk{chain}", producer_port="out",
            consumer=f"sink{chain}", consumer_port="in",
            token_bytes=512, capacity_tokens=4,
        ))
    return network


def measure_engine(engine: str, n_tokens: int = N_TOKENS) -> dict:
    """One full platform run on ``engine``; returns rates + metrics."""
    tile = Platform(
        build_schedule_network(n_tokens), CakeConfig(n_cpus=N_CPUS),
        engine=engine,
    )
    start = time.perf_counter()
    metrics = tile.run()
    elapsed = time.perf_counter() - start
    instructions = sum(cpu.instructions for cpu in metrics.cpus)
    return {
        "engine": engine,
        "seconds": round(elapsed, 3),
        "instructions": instructions,
        "instructions_per_sec": round(instructions / elapsed, 1),
        "kernel_events": tile.sim.events_processed,
        "elapsed_cycles": metrics.elapsed_cycles,
        "_payload": run_metrics_to_payload(metrics),
    }


def _collect(engines, n_tokens: int = N_TOKENS) -> dict:
    runs = [measure_engine(engine, n_tokens) for engine in engines]
    payloads = {run["engine"]: run.pop("_payload") for run in runs}
    reference = next(iter(payloads.values()))
    for engine, payload in payloads.items():
        assert payload == reference, (
            f"RunMetrics of engine {engine!r} diverge on the bench "
            f"workload -- differential failure, not a perf question"
        )
    by_engine = {run["engine"]: run for run in runs}
    report = {
        "bench": "schedule_speed_multi_cpu",
        "n_cpus": N_CPUS,
        "n_chains": N_CHAINS,
        "n_tokens": n_tokens,
        "bursts_per_token": BURSTS,
        "lookups_per_op": LOOKUPS,
        "table_bytes": TABLE_BYTES,
        "gate_min_speedup": GATE_MIN_SPEEDUP,
        "c_walker_available": cwalker.load() is not None,
        "python": platform_mod.python_version(),
        "runs": runs,
    }
    if "reference" in by_engine and "compiled" in by_engine:
        report["compiled_speedup_vs_reference"] = round(
            by_engine["compiled"]["instructions_per_sec"]
            / by_engine["reference"]["instructions_per_sec"], 2,
        )
        report["kernel_events_saved"] = (
            by_engine["reference"]["kernel_events"]
            - by_engine["compiled"]["kernel_events"]
        )
    return report


def write_schedule_artifact(report: dict) -> Path:
    """Persist ``BENCH_schedule.json`` under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_schedule.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


@pytest.mark.perf_smoke
def test_schedule_speed_gate():
    """Compiled engine must hold >= GATE_MIN_SPEEDUP x the reference
    engine on the multi-CPU schedule bench (bit-identical metrics
    asserted)."""
    if cwalker.load() is None:
        pytest.skip("no C compiler: the compiled engine degrades to "
                    "the reference walk")
    report = _collect(["reference", "compiled"])
    write_schedule_artifact(report)
    speedup = report["compiled_speedup_vs_reference"]
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"compiled engine regressed: {speedup}x over the reference "
        f"engine is below the {GATE_MIN_SPEEDUP}x gate "
        f"({json.dumps(report['runs'], indent=2)})"
    )


@pytest.mark.perf_smoke
def test_schedule_engines_identical_metrics():
    """The bench workload itself must see bit-identical engine metrics
    (including the reference oracle, on a reduced token count)."""
    _collect(["reference", "compiled"], n_tokens=8)


if __name__ == "__main__":
    report = _collect(["reference", "compiled"])
    path = write_schedule_artifact(report)
    print(json.dumps(report, indent=2))
    print(f"artifact: {path}")
