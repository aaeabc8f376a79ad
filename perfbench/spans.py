"""Span tracing of the public entry points of ``repro``, from outside.

Nothing in ``src/`` is edited: :func:`instrument` wraps module-level
functions (every ``repro.*`` module attribute and module-level dict
entry that refers to the original object) and class methods in place,
until :meth:`Patches.undo`.  Besides the public entry points it wraps
the runner's two JSON task callables, which are where work starts in
a worker process.  Runner workers are forked
from this process, so they inherit the wrappers; spans they record are
spooled to one file per task and merged by the parent when a pass ends.

A span is ``[id, parent, name, start, end, scenario, attrs]``.  Times
come from :func:`time.perf_counter` (CLOCK_MONOTONIC, shared by every
process on the host), ids embed the recording pid, and a worker's first
span takes the span that was open in the parent at fork time as its
parent -- so one tree covers the calling process and its workers.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from stats import has_ancestor, inclusive_times, self_times, union_length

_ID_STRIDE = 10 ** 9


class Tracer:
    """Spans in memory; workers spool theirs to ``spool_dir``."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans: List[list] = []
        self.stack: List[Optional[int]] = [None]
        self.scenario: List[str] = [""]
        self.count = 0
        self.flushes = 0

    def _forked(self) -> None:
        # First span in a forked worker: keep the inherited stack (its
        # top is the parent-side span the worker runs under), drop the
        # parent's finished spans.
        self.pid = os.getpid()
        self.spans = []
        self.count = 0
        self.flushes = 0

    def open(self, name: str, scenario: Optional[str] = None) -> list:
        if os.getpid() != self.pid:
            self._forked()
        span_id = self.pid * _ID_STRIDE + self.count
        self.count += 1
        if scenario is None:
            scenario = self.scenario[-1]
        span = [span_id, self.stack[-1], name, time.perf_counter(), 0.0,
                scenario, None]
        self.stack.append(span_id)
        self.scenario.append(scenario)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()
        self.scenario.pop()
        self.spans.append(span)

    def flush_worker(self) -> None:
        """Spool a worker's finished spans (no-op in the parent)."""
        if self.pid == self.root_pid or not self.spans:
            return
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans-{self.pid}-{self.flushes}.json"
        self.flushes += 1
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)
        self.spans = []

    def collect(self) -> List[dict]:
        """Every span of the parent plus every spooled worker span."""
        rows = list(self.spans)
        if self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("spans-*.json")):
                rows.extend(json.loads(path.read_text()))
                path.unlink()
        return [
            {"id": r[0], "parent": r[1], "name": r[2], "start": r[3],
             "end": r[4], "scenario": r[5], "attrs": r[6],
             "pid": r[0] // _ID_STRIDE}
            for r in rows
        ]


def _wrap(tracer: Tracer, name: str, fn: Callable,
          scenario_of: Optional[Callable] = None,
          after: Optional[Callable] = None,
          worker_root: bool = False) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        scenario = scenario_of(*args, **kwargs) if scenario_of else None
        span = tracer.open(name, scenario)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                span[6] = after(args, kwargs, result)
            return result
        finally:
            tracer.close(span)
            if worker_root:
                tracer.flush_worker()
    return traced


class Patches:
    """In-place replacements, undone in reverse order by :meth:`undo`."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def function(self, fn: Callable, make: Callable[[Callable], Callable]):
        """Replace every reference to ``fn`` held by a ``repro`` module
        attribute or a module-level dict entry."""
        wrapper = make(fn)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append(
                        functools.partial(setattr, module, attr, fn)
                    )
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is fn:
                            value[key] = wrapper
                            self._undo.append(
                                functools.partial(value.__setitem__, key, fn)
                            )
        return wrapper

    def attribute(self, owner: Any, attr: str,
                  make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append(functools.partial(setattr, owner, attr, original))

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


#: Shared counter of profiling passes run by forked runner workers,
#: set by :func:`count_profiling` before any pool forks.
_WORKER_PASSES = None


def _count_task(worker: Callable, task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one runner task, adding its ``profiling_passes()`` delta to
    the shared counter (module-level, so it pickles by reference)."""
    from repro.core.profiling import profiling_passes

    before = profiling_passes()
    try:
        return worker(task)
    finally:
        delta = profiling_passes() - before
        if delta:
            with _WORKER_PASSES.get_lock():
                _WORKER_PASSES.value += delta


def count_profiling(patches: Patches, counter) -> Callable[[], int]:
    """Make ``profiling_passes()`` visible across runner workers.

    The repo's counter is per process and pool workers are separate
    processes, so every task shipped through
    :class:`~repro.exp.runner.ProcessPoolBackend` reports its delta
    into ``counter`` (a fork-inherited multiprocessing Value).
    Returns a function giving this process's passes plus the workers'.
    """
    global _WORKER_PASSES
    from repro.core.profiling import profiling_passes
    from repro.exp.runner import ProcessPoolBackend

    _WORKER_PASSES = counter

    def make(map_fn):
        @functools.wraps(map_fn)
        def counted_map(self, worker, tasks):
            return map_fn(self, functools.partial(_count_task, worker), tasks)
        return counted_map

    patches.attribute(ProcessPoolBackend, "map", make)
    return lambda: profiling_passes() + counter.value


def _scenario_id_of_task(task, *_args, **_kwargs) -> str:
    from repro.exp.scenario import Scenario
    return Scenario.from_dict(task["scenario"]).scenario_id


def _platform_run_attrs(args, _kwargs, metrics) -> Dict[str, Any]:
    platform = args[0]
    return {
        "mode": platform.mode.value,
        "events": platform.sim.events_processed,
        "instructions": metrics.instructions,
        "l2_accesses": metrics.l2_accesses,
        "l2_misses": metrics.l2_misses,
        "l2_cross_evictions": metrics.l2_cross_evictions,
    }


def _segment_attrs(args, kwargs, _result) -> Dict[str, Any]:
    entries = args[1] if len(args) > 1 else kwargs["entries"]
    return {"entries": len(entries)}


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public entry points of every layer with spans."""
    from repro.cake.platform import Platform
    from repro.core import mckp, method, profiling, validate
    from repro.exp import dynamic, runner
    from repro.exp.cache import ProfileCache
    from repro.exp.store import ResultStore
    from repro.kpn.fifo import FifoChannel
    from repro.kpn.process import TaskContext
    from repro.mem import cwalker
    from repro.mem.hierarchy import MemorySystem
    from repro.rtos.cachectl import CacheController
    from repro.sim.kernel import Simulator

    def span(name, **options):
        return lambda fn: _wrap(tracer, name, fn, **options)

    # exp: runner, scenario execution, worker task roots, cache, store
    patches.attribute(runner.ExperimentRunner, "run", span("exp.run"))
    patches.function(runner.execute_scenario, span(
        "exp.execute", scenario_of=lambda s, *a, **k: s.scenario_id))
    patches.function(runner._measure_task, span(
        "exp.task.measure", scenario_of=_scenario_id_of_task,
        worker_root=True))
    patches.function(runner._execute_task, span(
        "exp.task.execute", scenario_of=_scenario_id_of_task,
        worker_root=True))
    patches.function(dynamic.run_dynamic, span("exp.dynamic"))
    for attr in ("get", "get_profile", "get_baseline"):
        patches.attribute(ProfileCache, attr, span("exp.cache.get"))
    for attr in ("put", "put_profile", "put_baseline"):
        patches.attribute(ProfileCache, attr, span("exp.cache.put"))
    patches.attribute(ResultStore, "append", span("exp.store.append"))

    # core: profiling, MCKP, validation
    patches.function(profiling.profile_miss_curves, span("core.profile"))
    patches.attribute(method.CompositionalMethod, "optimize",
                      span("core.optimize"))
    patches.function(mckp.solve_mckp_dp, span("core.mckp"))
    patches.function(mckp.solve_mckp_greedy, span("core.mckp"))
    patches.function(validate.compare_expected_simulated,
                     span("core.validate"))

    # cake: platform construction and runs
    patches.attribute(Platform, "__init__", span("cake.platform_init"))
    patches.attribute(Platform, "run",
                      span("cake.run", after=_platform_run_attrs))

    # sim: the event kernel (its self time is kernel, processor model
    # and scheduler work between memory and pattern calls)
    patches.attribute(Simulator, "run", span("sim.run"))

    # mem: the hierarchy entry points and the loaded C walker
    patches.attribute(MemorySystem, "execute_batch", span("mem.batch"))
    patches.attribute(MemorySystem, "execute_segment",
                      span("mem.segment", after=_segment_attrs))
    patches.attribute(MemorySystem, "sync_state", span("mem.sync"))
    patches.attribute(MemorySystem, "repartition_owners",
                      span("rtos.cachectl"))
    walker = cwalker.load()
    patches.attribute(walker, "walk_segment", span("mem.c_walk"))

    # rtos: cache-controller map mutations
    for attr in ("program_set_partitions", "assign_units", "release_units"):
        patches.attribute(CacheController, attr, span("rtos.cachectl"))

    # kpn: access-pattern generation and FIFO traffic
    for attr in ("fetch", "stream", "block", "gather", "stencil", "table"):
        patches.attribute(TaskContext, attr, span("kpn.pattern"))
    for attr in ("read_batch", "write_batch"):
        patches.attribute(FifoChannel, attr, span("kpn.fifo"))


# -- reduction of one traced pass to per-layer metrics -------------------------

def _layer(*rows):
    return {name: (unit, better) for name, unit, better in rows}


#: Every per-layer metric a traced run reports: name -> (unit, better).
#: BENCHMARK.json lists exactly these (``selftest.py`` checks it).
LAYER_METRICS = _layer(
    ("core.profile.calls", "count", "lower"),
    ("core.profile.s", "s", "lower"),
    ("core.profile.self_s", "s", "lower"),
    ("core.optimize.s", "s", "lower"),
    ("core.mckp.calls", "count", "lower"),
    ("core.mckp.s", "s", "lower"),
    ("core.validate.s", "s", "lower"),
    ("phase.profile_s", "s", "lower"),
    ("phase.baseline_s", "s", "lower"),
    ("phase.partitioned_s", "s", "lower"),
    ("phase.other_s", "s", "lower"),
    ("cake.run.calls", "count", "lower"),
    ("cake.run.s", "s", "lower"),
    ("cake.run.self_s", "s", "lower"),
    ("cake.platform_init.calls", "count", "lower"),
    ("cake.platform_init.s", "s", "lower"),
    ("cake.sim_minstr", "Minstr", "lower"),
    ("cake.minstr_per_s", "Minstr/s", "higher"),
    ("sim.run.s", "s", "lower"),
    ("sim.run.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.us_per_event", "us", "lower"),
    ("mem.batch.calls", "count", "lower"),
    ("mem.batch.s", "s", "lower"),
    ("mem.batch.self_s", "s", "lower"),
    ("mem.segment.calls", "count", "lower"),
    ("mem.segment.s", "s", "lower"),
    ("mem.segment.self_s", "s", "lower"),
    ("mem.segment.entries_per_call", "entries", "higher"),
    ("mem.c_walk.calls", "count", "lower"),
    ("mem.c_walk.s", "s", "lower"),
    ("mem.self_s", "s", "lower"),
    ("mem.c_share", "ratio", "higher"),
    ("mem.sync.calls", "count", "lower"),
    ("mem.sync.s", "s", "lower"),
    ("mem.l2_accesses", "count", "lower"),
    ("mem.l2_misses", "count", "lower"),
    ("mem.l2_cross_evictions", "count", "lower"),
    ("mem.host_ns_per_l2_access", "ns", "lower"),
    ("rtos.cachectl.calls", "count", "lower"),
    ("rtos.cachectl.s", "s", "lower"),
    ("kpn.pattern.calls", "count", "lower"),
    ("kpn.pattern.s", "s", "lower"),
    ("kpn.fifo.calls", "count", "lower"),
    ("kpn.fifo.s", "s", "lower"),
    ("exp.cache.get.calls", "count", "lower"),
    ("exp.cache.get.s", "s", "lower"),
    ("exp.cache.put.calls", "count", "lower"),
    ("exp.cache.put.s", "s", "lower"),
    ("exp.store.append.calls", "count", "lower"),
    ("exp.store.append.s", "s", "lower"),
    ("exp.profiling_passes", "count", "lower"),
    ("exp.replan_ms", "ms", "lower"),
    ("model.miss_reduction_x.two_jpeg_canny", "x", "higher"),
    ("model.miss_reduction_x.mpeg2", "x", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.parent_self_s", "s", "lower"),
    ("trace.worker_busy_s", "s", "lower"),
    ("trace.worker_cover_s", "s", "lower"),
    ("trace.accounted_share", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
)

#: Span names that get ``.calls``, ``.s`` and ``.self_s`` metrics.
LAYERS = (
    "core.profile", "core.optimize", "core.mckp", "core.validate",
    "cake.run", "cake.platform_init", "sim.run",
    "mem.batch", "mem.segment", "mem.c_walk", "mem.sync",
    "rtos.cachectl", "kpn.pattern", "kpn.fifo",
    "exp.cache.get", "exp.cache.put", "exp.store.append",
)


def reduce_pass(spans: List[dict], root_id: int, root_pid: int):
    """Per-layer metrics of one traced pass (``root_id`` is the pass
    span in the calling process), plus self time by span name."""
    by_id = {span["id"]: span for span in spans}
    own = self_times(spans)
    incl = inclusive_times(spans)
    root = by_id[root_id]
    wall = root["end"] - root["start"]

    calls: Dict[str, int] = {}
    self_by_name: Dict[str, float] = {}
    for span in spans:
        name = span["name"]
        self_by_name[name] = self_by_name.get(name, 0.0) + own[span["id"]]
        if not has_ancestor(span, name, by_id):
            calls[name] = calls.get(name, 0) + 1

    out: Dict[str, Any] = {}
    for name in LAYERS:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = incl.get(name, 0.0)
        out[f"{name}.self_s"] = self_by_name.get(name, 0.0)

    # Platform runs: phase split, simulated work, kernel events.
    phase = {"profile": 0.0, "baseline": 0.0, "partitioned": 0.0}
    totals = {"events": 0, "instructions": 0, "l2_accesses": 0,
              "l2_misses": 0, "l2_cross_evictions": 0}
    entries = 0
    for span in spans:
        if span["name"] == "cake.run" and span["attrs"]:
            duration = span["end"] - span["start"]
            if has_ancestor(span, "core.profile", by_id):
                phase["profile"] += duration
            elif span["attrs"]["mode"] == "shared":
                phase["baseline"] += duration
            else:
                phase["partitioned"] += duration
            for key in totals:
                totals[key] += span["attrs"][key]
        elif span["name"] == "mem.segment" and span["attrs"]:
            entries += span["attrs"]["entries"]

    parent_self = sum(own[s["id"]] for s in spans if s["pid"] == root_pid)
    worker_spans = [s for s in spans if s["pid"] != root_pid]
    worker_busy = sum(own[s["id"]] for s in worker_spans)
    worker_roots = [
        (s["start"], s["end"]) for s in worker_spans
        if by_id.get(s["parent"]) is None
        or by_id[s["parent"]]["pid"] != s["pid"]
    ]
    busy = parent_self + worker_busy

    out["phase.profile_s"] = phase["profile"]
    out["phase.baseline_s"] = phase["baseline"]
    out["phase.partitioned_s"] = phase["partitioned"]
    out["phase.other_s"] = busy - sum(phase.values())

    run_s = out["cake.run.s"]
    out["cake.sim_minstr"] = totals["instructions"] / 1e6
    out["cake.minstr_per_s"] = (
        totals["instructions"] / 1e6 / run_s if run_s else 0.0
    )
    out["sim.events"] = totals["events"]
    out["sim.us_per_event"] = (
        out["sim.run.self_s"] * 1e6 / totals["events"]
        if totals["events"] else 0.0
    )
    mem_s = out["mem.batch.s"] + out["mem.segment.s"]
    out["mem.segment.entries_per_call"] = (
        entries / out["mem.segment.calls"] if out["mem.segment.calls"] else 0.0
    )
    out["mem.self_s"] = out["mem.batch.self_s"] + out["mem.segment.self_s"]
    out["mem.c_share"] = out["mem.c_walk.s"] / mem_s if mem_s else 0.0
    out["mem.l2_accesses"] = totals["l2_accesses"]
    out["mem.l2_misses"] = totals["l2_misses"]
    out["mem.l2_cross_evictions"] = totals["l2_cross_evictions"]
    out["mem.host_ns_per_l2_access"] = (
        mem_s * 1e9 / totals["l2_accesses"] if totals["l2_accesses"] else 0.0
    )

    out["trace.wall_s"] = wall
    out["trace.spans"] = len(spans)
    out["trace.parent_self_s"] = parent_self
    out["trace.worker_busy_s"] = worker_busy
    out["trace.worker_cover_s"] = union_length(worker_roots)
    out["trace.accounted_share"] = (
        (parent_self + out["trace.worker_cover_s"]) / wall if wall else 0.0
    )
    return out, self_by_name
