"""Multi-level memory hierarchy walker.

:class:`MemorySystem` ties together the per-CPU private L1 caches, the
shared (optionally partitioned) L2, the bus and DRAM, and prices a batch
of memory accesses in cycles:

``cycles = instructions x issue_cpi``
``        + L2 read accesses x l2_hit_cycles``
``        + L2 misses x DRAM latency``
``        + bus transfer + contention cycles``

Writebacks (dirty evictions) generate traffic but do not stall the CPU
-- the usual write-buffer simplification.  All per-owner hit/miss
accounting lives in the caches' :class:`~repro.mem.cache.CacheStats`.

The walker consumes *runs* (see :mod:`repro.mem.trace`): one cache probe
per run, with the run length counted as accesses.  L1 and L2 must share
a line size for the run semantics to be exact; the constructor enforces
this.

Two engines implement the walk:

- ``engine="reference"`` -- one method call per run into the cache
  models.  Slow but obviously faithful; it is the differential-testing
  oracle.
- ``engine="compiled"`` (the default) -- a persistent C-side state
  handle (:class:`_CompiledState`) keeps every L1, the shared L2
  (including the way-partitioned column cache), the DRAM bank timers
  and the bus demand model resident between calls, so batches of any
  size run in C, and :meth:`MemorySystem.execute_segment` prices a
  whole ordered schedule segment -- ``(cpu, owner, batch)`` entries
  plus delays and context-switch traffic -- in a single C call.  Owner
  resolution and set indices are vectorised with numpy beforehand, and
  all per-owner statistics are reduced from the walk's per-run flags
  in one ``bincount`` flush afterwards.

Both engines produce bit-identical statistics, which the differential
test suite asserts.  The compiled engine runs the reference walk, and
says so once with a :class:`RuntimeWarning`, when it cannot run in C:
no C walker could be built, the L2 uses ``random`` replacement (the
reference walk owns the RNG stream), or a batch resolves a negative
owner id.  The last degradation is permanent for the system -- the
owner registry never produces such ids, and once such lines are
resident their evictions would poison the vectorised statistics flush.
"""

from __future__ import annotations

import ctypes
import math
import warnings

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, MemoryModelError
from repro.mem import cwalker
from repro.mem.bus import BusConfig, SharedBus
from repro.mem.cache import CacheGeometry, SetAssociativeCache, WayManagedCache
from repro.mem.memory import DramConfig, MainMemory
from repro.mem.partition import (
    OwnerResolver,
    PartitionMode,
    SetPartitionMap,
    WayPartitionMap,
)
from repro.mem.trace import AccessBatch

__all__ = ["BatchResult", "HierarchyConfig", "MemorySystem", "SegmentEntry"]

#: Shared empty owner list for the no-event stats flush.
_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometries and timing of the whole memory system."""

    #: 8 KB 4-way private L1 (TriMedia-class data cache pressure: small
    #: enough that task working sets spill to the shared L2, which is
    #: where the paper's interference effect lives).
    l1_geometry: CacheGeometry = CacheGeometry(sets=32, ways=4, line_size=64)
    #: 512 KB 4-way shared L2 -- the paper's instance.
    l2_geometry: CacheGeometry = CacheGeometry(sets=2048, ways=4, line_size=64)
    #: Base cycles per instruction of the VLIW core (no memory stalls).
    issue_cpi: float = 0.55
    #: Stall cycles for an L2 hit (L1 miss served on-tile).
    l2_hit_cycles: int = 12
    dram: DramConfig = field(default_factory=DramConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    l2_policy: str = "lru"
    #: ``"compiled"`` (persistent C state + whole-segment batches, the
    #: default) or ``"reference"`` (per-run method calls; the
    #: differential-testing oracle).  See the module docstring.
    engine: str = "compiled"

    ENGINES = ("reference", "compiled")

    def __post_init__(self) -> None:
        if self.l1_geometry.line_size != self.l2_geometry.line_size:
            raise ConfigurationError(
                "L1 and L2 must share a line size for run coalescing"
            )
        if self.issue_cpi <= 0:
            raise ConfigurationError("issue_cpi must be positive")
        if self.l2_hit_cycles < 0:
            raise ConfigurationError("l2_hit_cycles must be >= 0")
        if self.engine not in self.ENGINES:
            raise ConfigurationError(
                f"engine must be one of {', '.join(self.ENGINES)}, "
                f"got {self.engine!r}"
            )


@dataclass
class BatchResult:
    """Cost and traffic of executing one access batch."""

    cycles: int = 0
    instructions: int = 0
    accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    dram_lines: int = 0
    bus_cycles: int = 0
    store_fills: int = 0

    def merge(self, other: "BatchResult") -> None:
        """Accumulate another result into this one."""
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.accesses += other.accesses
        self.l1_misses += other.l1_misses
        self.l2_accesses += other.l2_accesses
        self.l2_misses += other.l2_misses
        self.dram_lines += other.dram_lines
        self.bus_cycles += other.bus_cycles
        self.store_fills += other.store_fills


class SegmentEntry:
    """One step of a schedule segment (see :meth:`MemorySystem.execute_segment`).

    A segment is an *ordered* sequence of deterministic schedule steps:
    compute batches, pure delays, and context-switch traffic.  Each
    entry advances a local clock -- compute entries by their computed
    cycle cost, delay and switch entries by a fixed ``advance`` -- so a
    whole stretch of a CPU's schedule prices in one call with the same
    per-step timestamps the event-driven loop would produce.
    """

    COMPUTE = cwalker.ENTRY_COMPUTE
    DELAY = cwalker.ENTRY_DELAY
    SWITCH = cwalker.ENTRY_SWITCH

    __slots__ = ("kind", "cpu_id", "owner", "batch", "advance")

    def __init__(self, kind, cpu_id=0, owner=0, batch=None, advance=0):
        self.kind = kind
        self.cpu_id = cpu_id
        self.owner = owner
        self.batch = batch
        self.advance = advance

    @classmethod
    def compute(cls, cpu_id: int, owner: int, batch: AccessBatch):
        """A compute batch; the clock advances by its cycle cost."""
        return cls(cls.COMPUTE, cpu_id=cpu_id, owner=owner, batch=batch)

    @classmethod
    def delay(cls, cycles: int):
        """A pure delay: no memory traffic, fixed clock advance."""
        return cls(cls.DELAY, advance=cycles)

    @classmethod
    def switch(cls, cpu_id: int, owner: int, batch: AccessBatch,
               cycles: int):
        """Context-switch traffic: the TCB batch walks (caches, bus and
        DRAM advance) but the clock moves by the RTOS's fixed switch
        cost and the quantum is not charged -- the dispatch path of the
        CPU runner."""
        return cls(cls.SWITCH, cpu_id=cpu_id, owner=owner, batch=batch,
                   advance=cycles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = {self.COMPUTE: "compute", self.DELAY: "delay",
                 self.SWITCH: "switch"}
        return (
            f"<SegmentEntry {names[self.kind]} cpu={self.cpu_id} "
            f"owner={self.owner} advance={self.advance}>"
        )


class _CompiledState:
    """Persistent C-side state of one :class:`MemorySystem`.

    Owns the numpy arrays the C handle points into (cache contents of
    every level, DRAM bank timers, bus demand/totals) and the opaque
    ``walker_state`` capsule built over them.  Between calls the arrays
    *are* the authoritative cache state; :meth:`sync_down` materialises
    them back into the Python cache models when something needs the
    dict/list view (repartitioning, tests, diagnostics).  Per-owner
    statistics stay on the Python side -- the segment walk emits
    per-run flags that :meth:`MemorySystem.execute_segment` reduces
    with one bincount flush per segment.
    """

    def __init__(self, mem: "MemorySystem", walker):
        self.walker = walker
        config = mem.config
        n_cpus = mem.n_cpus
        l1_geometry = config.l1_geometry
        l2_geometry = config.l2_geometry
        self.l1_sets = l1_geometry.sets
        self.l1_ways = l1_geometry.ways

        l1_parts = [l1.export_state() for l1 in mem.l1s]
        self.l1_lines = np.concatenate([p[0] for p in l1_parts])
        self.l1_owners = np.concatenate([p[1] for p in l1_parts])
        self.l1_dirty = np.concatenate([p[2] for p in l1_parts])
        self.l1_len = np.concatenate([p[3] for p in l1_parts])

        if mem.l2 is not None:
            lines, owners, dirty, lens = mem.l2.export_state()
            stamps = np.zeros(1, dtype=np.int64)
            clock = 0
            mode = (
                cwalker.L2_MODE_LRU if mem.l2.policy == "lru"
                else cwalker.L2_MODE_FIFO
            )
        else:
            lines, owners, dirty, stamps, clock = mem.l2_way.export_state()
            lens = np.zeros(l2_geometry.sets, dtype=np.int32)
            mode = cwalker.L2_MODE_WAY
        self.l2_mode = mode
        self.l2_lines = lines
        self.l2_owners = owners
        self.l2_dirty = dirty
        self.l2_len = lens
        self.l2_stamp = stamps
        self.way_clock = np.array([clock], dtype=np.int64)

        dram = config.dram
        bank_free = mem.memory._bank_free_at
        self.bank_free = np.array(
            [bank_free.get(b, 0.0) for b in range(dram.n_banks)],
            dtype=np.float64,
        )

        bus = mem.bus
        self.bus_demand = np.array(
            [bus._demand[c] for c in range(n_cpus)], dtype=np.float64
        )
        self.bus_last = np.array(
            [bus._last_update[c] for c in range(n_cpus)], dtype=np.float64
        )
        self.bus_transfers = np.array([bus.total_transfers], dtype=np.int64)
        self.bus_surcharge = np.array(
            [bus.total_surcharge_cycles], dtype=np.float64
        )

        handle = walker.state_new(
            n_cpus,
            l1_geometry.sets, l1_geometry.ways,
            self.l1_lines.ctypes.data, self.l1_owners.ctypes.data,
            self.l1_dirty.ctypes.data, self.l1_len.ctypes.data,
            l2_geometry.sets, l2_geometry.ways, mode,
            self.l2_lines.ctypes.data, self.l2_owners.ctypes.data,
            self.l2_dirty.ctypes.data, self.l2_len.ctypes.data,
            self.l2_stamp.ctypes.data, self.way_clock.ctypes.data,
            dram.n_banks - 1, dram.bank_busy_cycles,
            dram.access_cycles, dram.bank_penalty_cycles,
            self.bank_free.ctypes.data,
            config.bus.transfer_cycles, config.bus.lines_per_cycle,
            config.bus.decay_cycles, config.bus.max_surcharge,
            self.bus_demand.ctypes.data, self.bus_last.ctypes.data,
            self.bus_transfers.ctypes.data, self.bus_surcharge.ctypes.data,
            config.issue_cpi, config.l2_hit_cycles,
        )
        if not handle:
            raise MemoryError("walker_state_new failed")
        self.handle = ctypes.c_void_p(handle)

        # Reusable per-call scratch (the segment walker runs per
        # schedule step; allocating outputs per call dominates small
        # segments).  Flags/victim slots need no zeroing between calls:
        # the C walker assigns them for every executed run, and the
        # flush only reads up to the last executed run.
        self._entry_capacity = 0
        self._run_capacity = 0
        self._entry_scratch: tuple = ()
        self._run_scratch: tuple = ()
        self.counters = np.zeros(3, dtype=np.int64)
        self._no_table = (
            np.zeros(1, dtype=np.int64),
            np.ones(1, dtype=np.int64),
            np.ones(1, dtype=np.uint8),
        )

    def entry_scratch(self, n: int) -> tuple:
        """Twelve per-entry int64 arrays (plus their raw addresses)."""
        if n > self._entry_capacity or not self._entry_scratch:
            self._entry_capacity = max(2 * n, 64)
            arrays = tuple(
                np.zeros(self._entry_capacity, dtype=np.int64)
                for _ in range(12)
            )
            self._entry_scratch = (
                arrays, tuple(a.ctypes.data for a in arrays)
            )
        return self._entry_scratch

    def run_scratch(self, n: int) -> tuple:
        """Per-run ``(flags, l1_victim, l2_victim)`` plus addresses."""
        if n > self._run_capacity or not self._run_scratch:
            self._run_capacity = max(2 * n, 4096)
            arrays = (
                np.zeros(self._run_capacity, dtype=np.uint8),
                np.zeros(self._run_capacity, dtype=np.int64),
                np.zeros(self._run_capacity, dtype=np.int64),
            )
            self._run_scratch = (
                arrays, tuple(a.ctypes.data for a in arrays)
            )
        return self._run_scratch

    def sync_down(self, mem: "MemorySystem") -> None:
        """Write the C-resident state back into the Python models."""
        span = self.l1_sets * self.l1_ways
        for i, l1 in enumerate(mem.l1s):
            l1.import_state(
                self.l1_lines[i * span:(i + 1) * span],
                self.l1_owners[i * span:(i + 1) * span],
                self.l1_dirty[i * span:(i + 1) * span],
                self.l1_len[i * self.l1_sets:(i + 1) * self.l1_sets],
            )
        if mem.l2 is not None:
            mem.l2.import_state(
                self.l2_lines, self.l2_owners, self.l2_dirty, self.l2_len
            )
        else:
            mem.l2_way.import_state(
                self.l2_lines, self.l2_owners, self.l2_dirty,
                self.l2_stamp, int(self.way_clock[0]),
            )
        bank_free = mem.memory._bank_free_at
        for bank, value in enumerate(self.bank_free.tolist()):
            bank_free[bank] = value
        bus = mem.bus
        demand = self.bus_demand.tolist()
        last = self.bus_last.tolist()
        for cpu in range(mem.n_cpus):
            bus._demand[cpu] = demand[cpu]
            bus._last_update[cpu] = last[cpu]
        bus.total_transfers = int(self.bus_transfers[0])
        bus.total_surcharge_cycles = float(self.bus_surcharge[0])

    def close(self) -> None:
        """Free the C capsule (idempotent)."""
        handle, self.handle = getattr(self, "handle", None), None
        if handle:
            try:
                self.walker.state_free(handle)
            except Exception:  # pragma: no cover - interpreter teardown
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        self.close()


class MemorySystem:
    """L1s + shared L2 + bus + DRAM for an ``n_cpus`` tile."""

    def __init__(
        self,
        n_cpus: int,
        config: HierarchyConfig,
        resolver: Optional[OwnerResolver] = None,
        mode: PartitionMode = PartitionMode.SHARED,
        rng: Optional[np.random.Generator] = None,
    ):
        if n_cpus <= 0:
            raise ConfigurationError("n_cpus must be positive")
        self.n_cpus = n_cpus
        self.config = config
        self.mode = mode
        self.resolver = resolver if resolver is not None else OwnerResolver()
        self.l1s: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1_geometry, name=f"l1.cpu{i}")
            for i in range(n_cpus)
        ]
        if mode is PartitionMode.WAY_PARTITIONED:
            self.l2_way = WayManagedCache(config.l2_geometry, name="l2")
            self.l2 = None
        else:
            self.l2 = SetAssociativeCache(
                config.l2_geometry, policy=config.l2_policy, name="l2", rng=rng
            )
            self.l2_way = None
        self.set_map = SetPartitionMap(config.l2_geometry.sets)
        self.way_map = WayPartitionMap(config.l2_geometry.ways)
        self.memory = MainMemory(config.dram)
        self.bus = SharedBus(config.bus, n_cpus=n_cpus)
        #: Lazily built persistent C state (engine="compiled" only).
        self._compiled: Optional[_CompiledState] = None
        self._compiled_wanted = config.engine == "compiled"
        #: (version, table) memo of the dense set-translation table.
        self._set_table_memo: Optional[tuple] = None
        #: (version, table) memo of the way-allocation table.
        self._way_table_memo: Optional[tuple] = None

    # -- configuration -----------------------------------------------------

    @property
    def l2_stats(self):
        """Per-owner stats of the L2 (whichever implementation is live)."""
        cache = self.l2 if self.l2 is not None else self.l2_way
        return cache.stats

    def reset_stats(self) -> None:
        """Zero all statistics without touching cache contents."""
        self.sync_state()
        for l1 in self.l1s:
            l1.stats.reset()
        self.l2_stats.reset()
        self.memory.reset_traffic()
        self.bus.reset()
        self._drop_compiled()

    def repartition(self, now: float = 0.0) -> int:
        """Flush and invalidate every cache level; returns the writebacks.

        The OS must call this before reprogramming the partition maps:
        index translation moves lines between sets, so stale residents
        would alias, and silently dropping dirty lines would lose DRAM
        traffic.  Every dirty victim is written back to DRAM (traffic
        only -- reprogramming is not on the CPUs' critical path).
        """
        self.sync_state()
        self._drop_compiled()
        flushed = 0
        caches = list(self.l1s)
        caches.append(self.l2 if self.l2 is not None else self.l2_way)
        for cache in caches:
            for line, _owner in cache.invalidate_all():
                self.memory.access(line, True, now)
                flushed += 1
        return flushed

    def quiesce(self) -> None:
        """Prepare for a Python-side map/state mutation.

        Syncs compiled-tier state down into the Python models and drops
        the C handle, so the mutation starts from (and the next
        compiled call re-exports) an up-to-date view.  Idempotent, and
        a no-op on the reference engine.  Every map-mutating path in
        :class:`~repro.rtos.cachectl.CacheController` calls this: a
        partition change against a *stale* Python view would silently
        diverge the compiled engine from the reference.
        """
        self.sync_state()
        self._drop_compiled()

    def repartition_owners(self, owners, now: float = 0.0) -> int:
        """Selectively flush+invalidate the given owner ids; returns writebacks.

        The online-transition replan path uses this instead of
        :meth:`repartition`: only the owners whose partitions move (a
        departing group, a reshaped allocation) lose their residency --
        survivors keep their cache contents, which is what makes a
        transition invisible to them.  Dirty victims are written back
        to DRAM in deterministic (level, owner, address) order.
        """
        self.quiesce()
        flushed = 0
        caches = list(self.l1s)
        caches.append(self.l2 if self.l2 is not None else self.l2_way)
        for cache in caches:
            for owner in sorted(set(owners)):
                for line in cache.invalidate_owner(owner):
                    self.memory.access(line, True, now)
                    flushed += 1
        return flushed

    # -- compiled-tier state management ------------------------------------

    def sync_state(self) -> None:
        """Materialise C-resident state back into the Python models.

        A no-op unless the compiled tier is live.  Cache contents, DRAM
        bank timers and bus demand live C-side between compiled calls;
        anything that wants the Python dict/list view (repartitioning,
        direct cache inspection, the differential tests) calls this
        first.  Idempotent -- the arrays stay authoritative and further
        compiled calls continue from them.
        """
        if self._compiled is not None:
            self._compiled.sync_down(self)

    def _drop_compiled(self) -> None:
        """Invalidate the C handle after a Python-side state mutation.

        The next compiled call re-exports the (mutated) Python state.
        Callers must :meth:`sync_state` *before* mutating, or the
        mutation would start from a stale view.
        """
        if self._compiled is not None:
            self._compiled.close()
            self._compiled = None

    def _compiled_state(self) -> Optional[_CompiledState]:
        """The live persistent C state, (re)built on demand.

        ``None`` when the engine is "reference" or the compiled engine
        has degraded to the reference walk (see :meth:`_degrade`).
        """
        if self._compiled is not None:
            return self._compiled
        if not self._compiled_wanted:
            return None
        if self.l2 is not None and self.l2.policy == "random":
            return self._degrade("the L2 uses random replacement, whose "
                                 "RNG stream only the reference walk draws")
        walker = cwalker.load()
        if walker is None:
            return self._degrade("no C walker is available (no C compiler, "
                                 "or the build failed)")
        try:
            self._compiled = _CompiledState(self, walker)
        except MemoryError:
            return self._degrade("the C walker state could not be allocated")
        return self._compiled

    def _degrade(self, reason: str) -> None:
        """Switch this system to the reference walk for good, loudly.

        The results stay bit-identical (the reference walk is the
        oracle); only the speed changes, so the switch is reported once
        per system as a :class:`RuntimeWarning`.
        """
        self._compiled_wanted = False
        warnings.warn(
            f"engine='compiled' is running the reference walk: {reason}",
            RuntimeWarning,
        )

    @property
    def segment_ready(self) -> bool:
        """Whether :meth:`execute_segment` runs through the C tier.

        The schedule collector in :mod:`repro.cake.processor` gates on
        this: with the compiled tier down, the per-op event loop is not
        slower than the sequential fallback segment walk.
        """
        return self._compiled_state() is not None

    def _set_translation_table(self):
        """Dense owner -> set-group table for the C walkers (memoized).

        Row layout matches ``_walker.c``: rows ``0..n_table-1`` are the
        per-owner effective partitions (default mapping where none),
        row ``n_table`` is the default mapping itself; owners beyond
        the table use the default row, which is correct because every
        partitioned or aliased owner is covered by construction.
        """
        version = self.set_map.version
        if self._set_table_memo is not None \
                and self._set_table_memo[0] == version:
            return self._set_table_memo[1]
        covered = set(self.set_map._partitions) | set(self.set_map._aliases)
        n_table = (max(covered) + 1) if covered else 0
        pool = self.set_map.default_pool
        if pool is not None:
            default_row = (pool.base, pool.n_sets, pool.is_power_of_two)
        else:
            default_row = (0, self.config.l2_geometry.sets, True)
        tbl_base = np.empty(n_table + 1, dtype=np.int64)
        tbl_size = np.empty(n_table + 1, dtype=np.int64)
        tbl_pow2 = np.empty(n_table + 1, dtype=np.uint8)
        for owner in range(n_table):
            partition = self.set_map.effective_partition(owner)
            row = (
                (partition.base, partition.n_sets, partition.is_power_of_two)
                if partition is not None else default_row
            )
            tbl_base[owner], tbl_size[owner], tbl_pow2[owner] = row
        tbl_base[n_table], tbl_size[n_table], tbl_pow2[n_table] = default_row
        table = (n_table, tbl_base, tbl_size, tbl_pow2)
        self._set_table_memo = (version, table)
        return table

    def _way_allocation_table(self):
        """Dense owner -> allocation-way table for the C walker (memoized).

        ``way_rows + 1`` rows of ``l2_ways`` slots, -1 padded, in the
        owner's allocation-preference order; the last row (and every
        uncovered owner) gets all ways -- the unpartitioned default.
        """
        version = self.way_map._version
        if self._way_table_memo is not None \
                and self._way_table_memo[0] == version:
            return self._way_table_memo[1]
        ways = self.config.l2_geometry.ways
        assigned = self.way_map._ways_of
        way_rows = (max(assigned) + 1) if assigned else 0
        table = np.full((way_rows + 1) * ways, -1, dtype=np.int64)
        for owner in range(way_rows + 1):
            row = self.way_map.ways_of(owner) if owner < way_rows \
                else tuple(range(ways))
            for k, way in enumerate(row):
                table[owner * ways + k] = way
        result = (way_rows, table)
        self._way_table_memo = (version, result)
        return result

    # -- execution -----------------------------------------------------------

    def execute_batch(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> BatchResult:
        """Run ``batch`` on ``cpu_id`` on behalf of ``task_owner``.

        Returns the :class:`BatchResult` with the cycle cost; caches,
        bus and DRAM state advance as side effects.  Dispatches to the
        engine selected by :attr:`HierarchyConfig.engine`.
        """
        if not 0 <= cpu_id < self.n_cpus:
            raise MemoryModelError(f"cpu {cpu_id} out of range")
        if self._compiled_wanted:
            outcome = self._execute_segment_compiled(
                [SegmentEntry.compute(cpu_id, task_owner, batch)],
                now, math.inf, 0, False,
            )
            if outcome is not None:
                return outcome[1][0]
        return self._execute_batch_reference(cpu_id, task_owner, batch, now)

    def execute_segment(
        self,
        entries: Sequence[SegmentEntry],
        now: float,
        horizon: float = math.inf,
        quantum: int = 0,
        use_quantum: bool = False,
    ) -> Tuple[int, List[Optional[BatchResult]], int]:
        """Price an ordered schedule segment; returns what completed.

        ``entries`` execute strictly in order against the shared state,
        each at the simulated time the previous entries produced --
        compute entries advance the clock by their computed cycle cost,
        delay/switch entries by their fixed ``advance``.  Execution
        stops early (before starting entry ``k >= 1``; the first entry
        always runs) when

        - any simulated time has elapsed and the clock reached
          ``horizon`` -- the earliest foreign simulation event, whose
          interleaving must be preserved, or
        - ``use_quantum`` is set and the accumulated compute/delay
          cycles exhausted ``quantum`` -- the round-robin preemption
          point.

        Returns ``(n_done, results, elapsed)``: how many entries ran,
        one :class:`BatchResult` per completed batch entry (``None``
        for delays), and the total simulated cycles consumed.  Runs
        through the persistent C tier when live, else through a
        sequential :meth:`execute_batch` walk with identical semantics
        -- the engines are differentially tested against each other.
        """
        if not entries:
            return 0, [], 0
        outcome = self._execute_segment_compiled(
            entries, now, horizon, quantum, use_quantum
        )
        if outcome is not None:
            return outcome
        return self._execute_segment_fallback(
            entries, now, horizon, quantum, use_quantum
        )

    def _execute_segment_fallback(
        self, entries, now, horizon, quantum, use_quantum
    ):
        """Segment semantics over per-batch execute_batch calls."""
        results: List[Optional[BatchResult]] = []
        elapsed = 0
        done = 0
        for index, entry in enumerate(entries):
            if index > 0:
                if elapsed > 0 and now >= horizon:
                    break
                if use_quantum and quantum <= 0:
                    break
            if entry.kind == SegmentEntry.DELAY:
                cycles = advance = entry.advance
                results.append(None)
            elif entry.batch is None:
                # A switch without TCB traffic: fixed advance only.
                cycles = 0
                advance = entry.advance
                results.append(None)
            else:
                result = self.execute_batch(
                    entry.cpu_id, entry.owner, entry.batch, now
                )
                results.append(result)
                cycles = result.cycles
                advance = (
                    entry.advance if entry.kind == SegmentEntry.SWITCH
                    else cycles
                )
            now += advance
            elapsed += advance
            if entry.kind != SegmentEntry.SWITCH:
                quantum -= cycles
            done += 1
        return done, results, elapsed

    def _execute_segment_compiled(
        self, entries, now, horizon, quantum, use_quantum
    ):
        """One C call over the whole segment; ``None`` when unsupported.

        Unsupported means: the compiled tier is down (engine, compiler,
        random L2) or the segment resolves a negative owner id (the
        registry never produces one; the oracle path handles it).
        """
        state = self._compiled_state()
        if state is None or not entries:
            return None
        config = self.config
        line_shift = config.l1_geometry.line_shift
        l1_mask = config.l1_geometry.index_mask
        l2_mask = config.l2_geometry.index_mask
        full_line_count = config.l1_geometry.line_size // 4
        way_partitioned = self.mode is PartitionMode.WAY_PARTITIONED
        set_partitioned = self.mode is PartitionMode.SET_PARTITIONED

        n_entries = len(entries)
        entry_arrays, entry_ptrs = state.entry_scratch(n_entries)
        (kinds, cpus, starts, ends, instrs, advances,
         out_cycles, out_l1_misses, out_l2_misses,
         out_dram_lines, out_bus, out_sf) = entry_arrays

        line_parts = []
        count_parts = []
        wany_parts = []
        sf_parts = []
        owner_parts = []
        l2_idx_parts = []
        position = 0
        for index, entry in enumerate(entries):
            kinds[index] = entry.kind
            cpus[index] = entry.cpu_id
            advances[index] = entry.advance
            starts[index] = ends[index] = position
            instrs[index] = 0
            if entry.batch is None:
                continue
            instrs[index] = entry.batch.instructions
            line_arr, count_arr, wany_arr, wall_arr = entry.batch.runs(
                line_shift
            )
            n_runs = int(line_arr.shape[0])
            if n_runs == 0:
                continue
            ends[index] = position + n_runs
            position += n_runs
            owners_arr = self.resolver.resolve_many(
                line_arr << line_shift, entry.owner
            )
            line_parts.append(line_arr)
            count_parts.append(count_arr)
            wany_parts.append(wany_arr)
            sf_parts.append(wall_arr & (count_arr >= full_line_count))
            owner_parts.append(owners_arr)
            if set_partitioned:
                l2_idx_parts.append(
                    self.set_map.map_index_many(owners_arr, line_arr)
                )

        if position:
            if len(line_parts) == 1:
                lines_arr = line_parts[0]
                counts_arr = count_parts[0]
                # numpy bools are one byte: reinterpret, do not copy.
                wany_u8 = wany_parts[0].view(np.uint8)
                sf_u8 = sf_parts[0].view(np.uint8)
                owners_arr = owner_parts[0]
            else:
                lines_arr = np.concatenate(line_parts)
                counts_arr = np.concatenate(count_parts)
                wany_u8 = np.concatenate(wany_parts).view(np.uint8)
                sf_u8 = np.concatenate(sf_parts).view(np.uint8)
                owners_arr = np.concatenate(owner_parts)
            if int(owners_arr.min()) < 0:
                # Negative owner ids take the oracle path -- stickily,
                # because once such lines are resident any eviction
                # would feed their owner into the vectorised flush.
                # Hand the authoritative state back to the Python
                # models first, otherwise the fallback would walk a
                # stale view and its mutations would never reach the C
                # arrays.
                self.sync_state()
                self._drop_compiled()
                self._degrade("a batch resolved a negative owner id")
                return None
            l1_idx_arr = lines_arr & l1_mask
            if set_partitioned:
                l2_idx_arr = np.ascontiguousarray(
                    l2_idx_parts[0] if len(l2_idx_parts) == 1
                    else np.concatenate(l2_idx_parts),
                    dtype=np.int64,
                )
            else:
                l2_idx_arr = lines_arr & l2_mask
        else:
            lines_arr = counts_arr = owners_arr = state._no_table[0]
            l1_idx_arr = l2_idx_arr = state._no_table[0]
            wany_u8 = sf_u8 = state._no_table[2]

        if set_partitioned:
            use_table = 1
            n_table, tbl_base, tbl_size, tbl_pow2 = \
                self._set_translation_table()
        else:
            use_table = 0
            n_table = 0
            tbl_base, tbl_size, tbl_pow2 = state._no_table
        if way_partitioned:
            way_rows, way_table = self._way_allocation_table()
        else:
            way_rows = 0
            way_table = state._no_table[0]

        run_arrays, run_ptrs = state.run_scratch(position)
        flags, l1_vo, l2_vo = run_arrays
        counters = state.counters

        n_done = int(state.walker.walk_segment(
            state.handle, n_entries,
            entry_ptrs[0], entry_ptrs[1], entry_ptrs[2], entry_ptrs[3],
            entry_ptrs[4], entry_ptrs[5],
            lines_arr.ctypes.data, l1_idx_arr.ctypes.data,
            l2_idx_arr.ctypes.data,
            wany_u8.ctypes.data, sf_u8.ctypes.data, owners_arr.ctypes.data,
            use_table, n_table,
            tbl_base.ctypes.data, tbl_size.ctypes.data, tbl_pow2.ctypes.data,
            way_table.ctypes.data, way_rows,
            float(now),
            horizon if horizon != math.inf else 1e308,
            int(quantum), 1 if use_quantum else 0,
            run_ptrs[0], run_ptrs[1], run_ptrs[2],
            entry_ptrs[6], entry_ptrs[7], entry_ptrs[8],
            entry_ptrs[9], entry_ptrs[10], entry_ptrs[11],
            state.counters.ctypes.data,
        ))

        self._flush_segment_stats(
            entries, n_done, ends, cpus,
            lines_arr, counts_arr, owners_arr, sf_u8,
            flags, l1_vo, l2_vo,
            out_l2_misses, counters, state,
        )

        results: List[Optional[BatchResult]] = []
        elapsed = 0
        for index in range(n_done):
            entry = entries[index]
            if entry.kind == SegmentEntry.DELAY or entry.batch is None:
                results.append(None)
                elapsed += entry.advance
                continue
            results.append(BatchResult(
                cycles=int(out_cycles[index]),
                instructions=int(instrs[index]),
                accesses=entry.batch.n_accesses,
                l1_misses=int(out_l1_misses[index]),
                l2_accesses=int(out_l1_misses[index]),
                l2_misses=int(out_l2_misses[index]),
                dram_lines=int(out_dram_lines[index]),
                bus_cycles=int(out_bus[index]),
                store_fills=int(out_sf[index]),
            ))
            elapsed += (
                entry.advance if entry.kind == SegmentEntry.SWITCH
                else int(out_cycles[index])
            )
        return n_done, results, elapsed

    def _flush_segment_stats(
        self, entries, n_done, ends, cpus,
        lines_arr, counts_arr, owners_arr, sf_u8,
        flags, l1_vo, l2_vo, out_l2_misses, counters, state,
    ) -> None:
        """Reduce the segment's per-run flags into the Python stats.

        One bincount flush per segment: L1 accounting per CPU present
        in the completed entries, L2 accounting over all completed runs,
        cold misses by batch-first occurrence against the seen-sets,
        DRAM traffic from the C counters.
        """
        run_end = int(ends[n_done - 1]) if n_done else 0
        traffic = self.memory.traffic
        dram_reads = int(out_l2_misses[:n_done].sum()) if n_done else 0
        traffic.line_reads += dram_reads
        traffic.line_writes += int(counters[0])
        traffic.bank_conflicts += int(counters[1]) + int(counters[2])
        if run_end == 0:
            return
        walker = state.walker
        dflags = flags[:run_end]
        downers = owners_arr[:run_end]
        dlines = lines_arr[:run_end]
        dcounts = counts_arr[:run_end]

        # Which CPUs the completed batch entries ran on (the collector
        # produces single-CPU segments; the general path stays correct
        # for mixed ones).
        done_cpus: List[int] = []
        for i in range(n_done):
            cpu = int(cpus[i])
            if int(ends[i]) > (int(ends[i - 1]) if i else 0) \
                    and cpu not in done_cpus:
                done_cpus.append(cpu)
        multi_cpu = len(done_cpus) > 1

        if not dflags.any():
            # Pure L1-hit stretch (the warm steady state): only the
            # per-owner access/hit counts move.
            empty = _EMPTY_I64
            for cpu in done_cpus:
                if multi_cpu:
                    lengths = np.diff(
                        np.concatenate(([0], ends[:n_done]))
                    )
                    mask = np.repeat(cpus[:n_done], lengths) == cpu
                    s_owners, s_counts = downers[mask], dcounts[mask]
                else:
                    s_owners, s_counts = downers, dcounts
                _flush_weighted_stats(
                    self.l1s[cpu].stats, s_owners, s_counts,
                    empty, empty, empty, empty, empty,
                )
            return

        dsf = sf_u8[:run_end]
        dl1_vo = l1_vo[:run_end]
        dl2_vo = l2_vo[:run_end]
        l1_miss_mask = (dflags & cwalker.FLAG_L1_MISS) != 0
        demand_mask = (dflags & cwalker.FLAG_L2_DEMAND_MISS) != 0
        l2_evict_mask = (dflags & cwalker.FLAG_L2_EVICT) != 0
        l2_wb_mask = (dflags & cwalker.FLAG_L2_WB) != 0
        probe_miss_mask = (dflags & cwalker.FLAG_L2_PROBE_MISS) != 0

        # -- L1 accounting, grouped by the CPU of each entry ----------------
        if multi_cpu:
            lengths = np.diff(np.concatenate(([0], ends[:n_done])))
            run_cpu = np.repeat(cpus[:n_done], lengths)
        for cpu in done_cpus:
            if multi_cpu:
                mask = run_cpu == cpu
                s_owners = downers[mask]
                s_counts = dcounts[mask]
                s_lines = dlines[mask]
                s_flags = dflags[mask]
                s_vo = dl1_vo[mask]
            else:
                s_owners, s_counts, s_lines = downers, dcounts, dlines
                s_flags, s_vo = dflags, dl1_vo
            s_miss = (s_flags & cwalker.FLAG_L1_MISS) != 0
            s_evict = (s_flags & cwalker.FLAG_L1_EVICT) != 0
            s_wb = (s_flags & cwalker.FLAG_L1_WB) != 0
            l1 = self.l1s[cpu]
            cold_runs, miss_lines = _first_misses(
                walker, np.ascontiguousarray(s_lines), s_miss, l1._seen
            )
            l1._seen.update(miss_lines)
            _flush_weighted_stats(
                l1.stats, s_owners, s_counts,
                s_owners[s_miss], s_owners[cold_runs],
                s_owners[s_evict], s_vo[s_evict], s_vo[s_wb],
            )

        # -- L2 accounting over every completed run -------------------------
        l2_cache = self.l2 if self.l2 is not None else self.l2_way
        cold2_candidates, miss_lines2 = _first_misses(
            walker, np.ascontiguousarray(dlines), probe_miss_mask,
            l2_cache._seen,
        )
        cold2_runs = cold2_candidates[dsf[cold2_candidates] == 0]
        l2_cache._seen.update(miss_lines2)
        _flush_probe_stats(
            l2_cache.stats,
            downers[l1_miss_mask], downers[demand_mask],
            downers[cold2_runs],
            downers[l2_evict_mask], dl2_vo[l2_evict_mask],
            dl2_vo[l2_wb_mask],
        )

    def _execute_batch_reference(
        self, cpu_id: int, task_owner: int, batch: AccessBatch, now: float
    ) -> BatchResult:
        """The oracle walk: one cache-model method call per run."""
        config = self.config
        l1 = self.l1s[cpu_id]
        line_shift = config.l1_geometry.line_shift
        l1_mask = config.l1_geometry.index_mask
        l2_mask = config.l2_geometry.index_mask
        resolve = self.resolver.resolve
        set_partitioned = self.mode is PartitionMode.SET_PARTITIONED
        way_partitioned = self.mode is PartitionMode.WAY_PARTITIONED
        translate = self.set_map.map_index
        ways_of = self.way_map.ways_of

        result = BatchResult(
            instructions=batch.instructions, accesses=batch.n_accesses
        )
        stall_cycles = 0.0
        transfers = 0
        # A write-only run touching at least this many spots filled the
        # whole line, so the allocation needs no fetch (write-validate).
        full_line_count = config.l1_geometry.line_size // 4

        line_addrs, counts, write_any, write_all = batch.runs(line_shift)
        for i in range(line_addrs.shape[0]):
            line = int(line_addrs[i])
            count = int(counts[i])
            write = bool(write_any[i])
            owner = resolve(line << line_shift, task_owner)

            l1_hit, _cold, l1_evicted = l1.access(
                line, line & l1_mask, write, owner, n=count
            )
            if l1_hit:
                continue
            result.l1_misses += 1
            transfers += 1

            # Dirty L1 victim is written back into the L2 first.  The
            # write-back is non-allocating: it updates the L2 copy when
            # present and otherwise goes straight to DRAM.
            if l1_evicted is not None and l1_evicted[2]:
                wb_line, wb_owner = l1_evicted[0], l1_evicted[1]
                if way_partitioned:
                    wb_hit = self.l2_way.probe_writeback(
                        wb_line, wb_line & l2_mask, wb_owner
                    )
                else:
                    wb_index = (
                        translate(wb_owner, wb_line)
                        if set_partitioned
                        else wb_line & l2_mask
                    )
                    wb_hit = self.l2.probe_writeback(wb_line, wb_index, wb_owner)
                if not wb_hit:
                    self.memory.access(wb_line, True, now)
                    result.dram_lines += 1
                transfers += 1

            # Full-line streaming stores allocate without a DRAM fetch
            # (write-validate).  The line is installed dirty in the L2
            # as well -- the L2 is the tile's communication point, so a
            # consumer on another CPU finds the producer's data there.
            # The allocation counts as an access but not as a miss.
            if bool(write_all[i]) and count >= full_line_count:
                result.store_fills += 1
                self._l2_store_fill(
                    line, owner, l2_mask, set_partitioned, way_partitioned,
                    translate, ways_of, now, result,
                )
                continue

            # The demand fill.
            l2_hit = self._l2_access(
                line,
                owner,
                write,
                l2_mask,
                set_partitioned,
                way_partitioned,
                translate,
                ways_of,
                now,
                result,
            )
            stall_cycles += config.l2_hit_cycles
            if not l2_hit:
                stall_cycles += self.memory.access(line, False, now)
                result.dram_lines += 1

        bus_cycles = self.bus.price_transfers(cpu_id, transfers, now)
        result.bus_cycles = bus_cycles
        result.cycles = int(
            round(batch.instructions * config.issue_cpi)
            + int(stall_cycles)
            + bus_cycles
        )
        return result

    def _l2_store_fill(
        self,
        line: int,
        owner: int,
        l2_mask: int,
        set_partitioned: bool,
        way_partitioned: bool,
        translate,
        ways_of,
        now: float,
        result: BatchResult,
    ) -> None:
        """Install a fully written line in the L2 without fetching.

        Uses the normal allocation path (so evictions and their
        attribution happen as usual) but cancels the miss/DRAM-read
        accounting: a write-validated allocation transfers nothing from
        memory.
        """
        result.l2_accesses += 1
        if way_partitioned:
            cache = self.l2_way
            hit, cold, evicted = cache.access(
                line, line & l2_mask, True, owner, ways_of(owner)
            )
        else:
            cache = self.l2
            index = translate(owner, line) if set_partitioned else line & l2_mask
            hit, cold, evicted = cache.access(line, index, True, owner)
        if not hit:
            # Not a demand miss: undo the miss counting of access().
            stats = cache.stats.owner(owner)
            stats.misses -= 1
            stats.hits += 1
            if cold:
                stats.cold_misses -= 1
        if evicted is not None and evicted[2]:
            self.memory.access(evicted[0], True, now)
            result.dram_lines += 1

    def _l2_access(
        self,
        line: int,
        owner: int,
        write: bool,
        l2_mask: int,
        set_partitioned: bool,
        way_partitioned: bool,
        translate,
        ways_of,
        now: float,
        result: BatchResult,
    ) -> bool:
        """One L2 probe; handles translation, way masks and writebacks."""
        result.l2_accesses += 1
        if way_partitioned:
            hit, _cold, evicted = self.l2_way.access(
                line, line & l2_mask, write, owner, ways_of(owner)
            )
        else:
            index = translate(owner, line) if set_partitioned else line & l2_mask
            hit, _cold, evicted = self.l2.access(line, index, write, owner)
        if not hit:
            result.l2_misses += 1
        if evicted is not None and evicted[2]:
            # Dirty L2 victim goes to DRAM; traffic only, no CPU stall.
            self.memory.access(evicted[0], True, now)
            result.dram_lines += 1
        return hit


# -- compiled-engine statistics flush -------------------------------------
#
# The C walk records outcomes as per-run flags and victim owners; these
# helpers reduce them to per-owner deltas in one vectorised pass.  The
# resulting OwnerStats values are identical to what the per-run
# reference accounting produces, because hit/miss/access counts are
# order-free sums.


def _bincount(owner_list, minlength=0) -> np.ndarray:
    """Per-owner occurrence counts of a flat owner-id list."""
    return np.bincount(
        np.asarray(owner_list, dtype=np.int64), minlength=minlength
    )


def _first_misses(walker, line_arr, miss_mask, seen):
    """Batch-first misses of not-yet-seen lines (cold misses of a C walk).

    Returns ``(cold_runs, missed_lines)``: the run indices whose miss
    is the line's first at this level *and* whose line is absent from
    ``seen`` (the reference marks a line seen at every miss, never at a
    hit), plus the distinct missed lines to add to the seen-set.
    """
    miss_runs = np.flatnonzero(miss_mask)
    n_misses = int(miss_runs.shape[0])
    if n_misses == 0:
        return miss_runs, []
    missed = line_arr[miss_runs]
    first_mask = np.zeros(n_misses, dtype=np.uint8)
    if walker.first_occurrence(
        missed.ctypes.data, n_misses, first_mask.ctypes.data,
    ):
        _, first_sub = np.unique(missed, return_index=True)
    else:
        first_sub = np.flatnonzero(first_mask)
    first_runs = miss_runs[first_sub]
    missed_lines = line_arr[first_runs].tolist()
    if seen.issuperset(missed_lines):
        # Warm steady state: every missed line was seen before, so no
        # run is cold -- skip the per-line membership scan.
        return first_runs[:0], missed_lines
    pre_seen = np.fromiter(
        (line in seen for line in missed_lines),
        dtype=bool, count=len(missed_lines),
    )
    return first_runs[~pre_seen], missed_lines


def _flush_events(stats, evictor_owners, victim_owners, wb_owners) -> None:
    """Apply eviction-attribution and writeback events to ``stats``.

    Events arrive as parallel evictor/victim owner lists; the
    ``(evictor, victim)`` matrix is aggregated by packing each pair into
    one integer key and running ``np.unique`` -- no per-event Python
    work.
    """
    if len(victim_owners):
        victims = np.asarray(victim_owners, dtype=np.int64)
        suffered = np.bincount(victims)
        for o in np.flatnonzero(suffered):
            stats.owner(int(o)).evictions_suffered += int(suffered[o])
        evictors = np.asarray(evictor_owners, dtype=np.int64)
        key_mod = int(victims.max()) + 1
        packed = evictors * key_mod + victims
        matrix = stats.eviction_matrix
        if int(evictors.max()) * key_mod < (1 << 22):
            # Dense owner ids (the normal case): bincount beats the
            # sort inside np.unique by an order of magnitude.
            counts = np.bincount(packed)
            for key in np.flatnonzero(counts):
                pair = (int(key) // key_mod, int(key) % key_mod)
                matrix[pair] = matrix.get(pair, 0) + int(counts[key])
        else:
            keys, counts = np.unique(packed, return_counts=True)
            for key, n in zip(keys.tolist(), counts.tolist()):
                pair = (key // key_mod, key % key_mod)
                matrix[pair] = matrix.get(pair, 0) + n
    if len(wb_owners):
        flushed = _bincount(wb_owners)
        for o in np.flatnonzero(flushed):
            stats.owner(int(o)).writebacks += int(flushed[o])


def _apply_owner_counts(stats, acc, miss_owners, cold_owners) -> None:
    """Fold per-owner access/miss/cold counts into ``stats``.

    ``hits`` is derived as ``accesses - misses`` -- exactly the
    reference model's ``hits += n`` / ``hits += n - 1`` bookkeeping,
    summed (only a run's first access can miss).
    """
    n_owners = len(acc)
    miss = _bincount(miss_owners, n_owners)
    cold = _bincount(cold_owners, n_owners)
    for o in np.flatnonzero(acc):
        owner_stats = stats.owner(int(o))
        a = int(acc[o])
        m = int(miss[o])
        owner_stats.accesses += a
        owner_stats.hits += a - m
        owner_stats.misses += m
        c = int(cold[o])
        if c:
            owner_stats.cold_misses += c


def _flush_weighted_stats(
    stats, owners_arr, count_arr, miss_owners, cold_owners,
    evictor_owners, victim_owners, wb_owners,
) -> None:
    """L1-style accounting: every run accesses with its full run length."""
    n_owners = int(owners_arr.max()) + 1
    acc = np.bincount(owners_arr, weights=count_arr, minlength=n_owners)
    _apply_owner_counts(stats, acc, miss_owners, cold_owners)
    _flush_events(stats, evictor_owners, victim_owners, wb_owners)


def _flush_probe_stats(
    stats, probe_owners, miss_owners, cold_owners,
    evictor_owners, victim_owners, wb_owners,
) -> None:
    """L2-style accounting: one single-access probe per L1-missing run.

    Store fills are probes that never count as demand misses (the
    reference path books then cancels the miss; the net effect is an
    access plus a hit, which is what omitting them from ``miss_owners``
    produces here).
    """
    if len(probe_owners):
        probes = np.asarray(probe_owners, dtype=np.int64)
        acc = np.bincount(probes, minlength=int(probes.max()) + 1)
        _apply_owner_counts(stats, acc, miss_owners, cold_owners)
    _flush_events(stats, evictor_owners, victim_owners, wb_owners)
