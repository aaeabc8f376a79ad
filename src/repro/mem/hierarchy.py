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
  plus delays and context-switch traffic -- in a single C call.  C
  reads each batch's raw address and store-flag arrays in place and
  does everything from there: run coalescing, owner resolution against
  the interval table (passed as arrays, memoized on the table's
  version), set indices, per-owner statistics and cold-miss
  classification.  The statistics are folded into the Python
  :class:`~repro.mem.cache.CacheStats` models only when read
  (:attr:`MemorySystem.l2_stats`, :meth:`MemorySystem.sync_state`).

Both engines produce bit-identical statistics, which the differential
test suite asserts.  The compiled engine runs the reference walk, and
says so once with a :class:`RuntimeWarning` and one ``repro.mem`` log
line, when it cannot run in C: no C walker could be built, the L2 uses
``random`` replacement (the reference walk owns the RNG stream), or a
batch resolves a negative owner id.  The reason is kept in
:attr:`MemorySystem.fallback_reason`.  The last degradation is
permanent for the system -- the owner registry never produces such
ids, and the C statistics blocks are indexed by owner id.
"""

from __future__ import annotations

import ctypes
import logging
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

_log = logging.getLogger("repro.mem")

#: Stand-in for the C arguments a call does not read (no translation
#: table).
_PLACEHOLDER = np.zeros(1, dtype=np.int64)


def _c_int64s(address: int, n: int) -> np.ndarray:
    """A writable view of ``n`` C-owned int64 values."""
    return np.ctypeslib.as_array((ctypes.c_int64 * n).from_address(address))


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
    statistics and the cold-miss seen sets live in the handle too: the
    Python seen sets are imported when it is built, and
    :meth:`fold_stats` adds the counters accumulated since the last
    fold to the :class:`~repro.mem.cache.CacheStats` models (and the
    newly seen lines to their seen sets), zeroing them C-side -- so
    folding is delta-based and idempotent.
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
            l1_geometry.line_size // 4, l1_geometry.line_shift,
        )
        if not handle:
            raise MemoryError("walker_state_new failed")
        self.handle = ctypes.c_void_p(handle)
        for level, cache in enumerate(mem.caches()):
            seen = np.fromiter(cache._seen, dtype=np.int64,
                               count=len(cache._seen))
            if seen.shape[0] and walker.seen_import(
                self.handle, level, seen.ctypes.data, seen.shape[0]
            ):
                self.close()
                raise MemoryError("walker_seen_import failed")

        # Reusable per-call scratch (the segment walker runs per
        # schedule step; allocating outputs per call dominates small
        # segments).
        self._entry_capacity = 0
        self._entry_scratch: tuple = ()
        self.counters = np.zeros(3, dtype=np.int64)
        self.counters_ptr = self.counters.ctypes.data
        self._count = ctypes.c_int64()

    def entry_scratch(self, n: int) -> tuple:
        """The fourteen per-entry arrays of ``walk_segment`` (plus their
        raw addresses): eight inputs -- two of them data pointers --
        then six outputs."""
        if n > self._entry_capacity or not self._entry_scratch:
            self._entry_capacity = max(2 * n, 64)
            arrays = tuple(
                np.zeros(self._entry_capacity, dtype=dtype)
                for dtype in (*[np.int64] * 4, np.uintp, np.uintp,
                              *[np.int64] * 8)
            )
            self._entry_scratch = (
                arrays, tuple(a.ctypes.data for a in arrays)
            )
        return self._entry_scratch

    def fold_stats(self, mem: "MemorySystem") -> None:
        """Add the C-side statistics to the Python models; zero them in C.

        Per level: the newly seen lines join the cache's seen set, and
        each owner's counters join its
        :class:`~repro.mem.cache.OwnerStats` (``hits`` is ``accesses -
        misses``: only the first access of a run can miss, and a store
        fill counts as a hit).  An owner gets a record when it accessed
        the level or lost a line there -- exactly when the reference
        walk creates one.
        """
        walker, handle, count = self.walker, self.handle, self._count
        caches = mem.caches()
        for level, cache in enumerate(caches):
            fresh = walker.seen_drain(handle, level, ctypes.byref(count))
            if count.value:
                cache._seen.update(_c_int64s(fresh, count.value).tolist())
        base = walker.stats(handle, ctypes.byref(count))
        n_owners = count.value
        rows = cwalker.STAT_ROWS + n_owners
        blocks = _c_int64s(base, len(caches) * rows * n_owners).reshape(
            len(caches), rows, n_owners
        )
        for cache, block in zip(caches, blocks):
            if not block.any():
                continue
            stats = cache.stats
            counters = block[:cwalker.STAT_ROWS]
            matrix = block[cwalker.STAT_ROWS:]
            active = (counters[cwalker.STAT_ACCESSES]
                      | counters[cwalker.STAT_EVICTED])
            for owner in np.flatnonzero(active).tolist():
                accesses, misses, cold, writebacks, evicted = \
                    counters[:, owner].tolist()
                record = stats.owner(owner)
                record.accesses += accesses
                record.hits += accesses - misses
                record.misses += misses
                record.cold_misses += cold
                record.writebacks += writebacks
                record.evictions_suffered += evicted
            evictors, victims = np.nonzero(matrix)
            pairs = stats.eviction_matrix
            for evictor, victim, n in zip(
                evictors.tolist(), victims.tolist(),
                matrix[evictors, victims].tolist(),
            ):
                pairs[evictor, victim] = pairs.get((evictor, victim), 0) + n
            block[...] = 0

    def sync_down(self, mem: "MemorySystem") -> None:
        """Write the C-resident state back into the Python models."""
        self.fold_stats(mem)
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
        #: (map versions, arrays, C arguments) memo of _l2_maps.
        self._l2_maps_memo: Optional[tuple] = None
        #: ((table, version), arrays, C arguments) memo of _interval_args.
        self._interval_memo: Optional[tuple] = None
        #: Why the compiled engine runs the reference walk; ``None``
        #: while it runs in C (and on the reference engine).
        self.fallback_reason: Optional[str] = None

    # -- configuration -----------------------------------------------------

    @property
    def l2_stats(self):
        """Per-owner stats of the L2 (whichever implementation is live).

        On the compiled engine this first folds the statistics the C
        handle accumulated since the last fold (see :meth:`sync_state`).
        """
        if self._compiled is not None:
            self._compiled.fold_stats(self)
        return self.caches()[-1].stats

    def caches(self) -> list:
        """Every cache level in walker order: the per-CPU L1s, then the L2."""
        return [*self.l1s, self.l2 if self.l2 is not None else self.l2_way]

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
        for cache in self.caches():
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
        for cache in self.caches():
            for owner in sorted(set(owners)):
                for line in cache.invalidate_owner(owner):
                    self.memory.access(line, True, now)
                    flushed += 1
        return flushed

    # -- compiled-tier state management ------------------------------------

    def sync_state(self) -> None:
        """Materialise C-resident state back into the Python models.

        A no-op unless the compiled tier is live.  Cache contents, DRAM
        bank timers, bus demand, per-owner statistics and the cold-miss
        seen sets live C-side between compiled calls; anything that
        wants the Python view (repartitioning, direct cache or
        ``l1s[i].stats`` inspection, the differential tests) calls this
        first.  Idempotent -- the arrays stay authoritative, statistics
        fold as deltas, and further compiled calls continue from them.
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
            reason = cwalker.load_error() or "no C compiler, or the build failed"
            return self._degrade(f"no C walker is available: {reason}")
        try:
            self._compiled = _CompiledState(self, walker)
        except MemoryError:
            return self._degrade("the C walker state could not be allocated")
        return self._compiled

    def _degrade(self, reason: str) -> None:
        """Switch this system to the reference walk for good, loudly.

        The results stay bit-identical (the reference walk is the
        oracle); only the speed changes, so the switch is reported once
        per system: as :attr:`fallback_reason`, a ``repro.mem`` log line
        and a :class:`RuntimeWarning`.
        """
        self._compiled_wanted = False
        self.fallback_reason = reason
        message = f"engine='compiled' is running the reference walk: {reason}"
        _log.warning(message)
        warnings.warn(message, RuntimeWarning)

    @property
    def segment_ready(self) -> bool:
        """Whether :meth:`execute_segment` runs through the C tier.

        The schedule collector in :mod:`repro.cake.processor` gates on
        this: with the compiled tier down, the per-op event loop is not
        slower than the sequential fallback segment walk.
        """
        return self._compiled_state() is not None

    def _l2_maps(self) -> tuple:
        """The L2 translation arguments of ``walk_segment`` (memoized).

        ``(use_table, n_table, base, size, pow2, way_table, way_rows)``
        with raw array addresses, rebuilt only when a partition map
        changes; the memo keeps the arrays alive.
        """
        key = (self.set_map.version, self.way_map._version)
        memo = self._l2_maps_memo
        if memo is not None and memo[0] == key:
            return memo[2]
        use_table, n_table, way_rows = 0, 0, 0
        base = size = pow2 = way_table = _PLACEHOLDER
        if self.mode is PartitionMode.SET_PARTITIONED:
            use_table = 1
            n_table, base, size, pow2 = self._set_translation_table()
        elif self.mode is PartitionMode.WAY_PARTITIONED:
            way_rows, way_table = self._way_allocation_table()
        arrays = (base, size, pow2, way_table)
        args = (use_table, n_table, base.ctypes.data, size.ctypes.data,
                pow2.ctypes.data, way_table.ctypes.data, way_rows)
        self._l2_maps_memo = (key, arrays, args)
        return args

    def _interval_args(self) -> tuple:
        """The interval-table arguments of ``walk_segment`` (memoized).

        ``(n, bases, ends, owners)`` with raw array addresses, rebuilt
        only when the table changes (its ``version``) or the resolver
        holds another table; the memo keeps the arrays alive.
        """
        table = self.resolver.intervals
        key = (table, table.version)
        memo = self._interval_memo
        if memo is not None and memo[0] == key:
            return memo[2]
        arrays = table.arrays()
        args = (len(table), *(array.ctypes.data for array in arrays))
        self._interval_memo = (key, arrays, args)
        return args

    def _set_translation_table(self):
        """Dense owner -> set-group table for the C walker.

        Row layout matches ``_walker.c``: rows ``0..n_table-1`` are the
        per-owner effective partitions (default mapping where none),
        row ``n_table`` is the default mapping itself; owners beyond
        the table use the default row, which is correct because every
        partitioned or aliased owner is covered by construction.
        """
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
        return n_table, tbl_base, tbl_size, tbl_pow2

    def _way_allocation_table(self):
        """Dense owner -> allocation-way table for the C walker.

        ``way_rows + 1`` rows of ``l2_ways`` slots, -1 padded, in the
        owner's allocation-preference order; the last row (and every
        uncovered owner) gets all ways -- the unpartitioned default.
        """
        ways = self.config.l2_geometry.ways
        assigned = self.way_map._ways_of
        way_rows = (max(assigned) + 1) if assigned else 0
        table = np.full((way_rows + 1) * ways, -1, dtype=np.int64)
        for owner in range(way_rows + 1):
            row = self.way_map.ways_of(owner) if owner < way_rows \
                else tuple(range(ways))
            for k, way in enumerate(row):
                table[owner * ways + k] = way
        return way_rows, table

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
        random L2), the segment resolves a negative owner id (the
        registry never produces one; the oracle path handles it), or
        the handle cannot grow its buffers for the segment.
        """
        state = self._compiled_state()
        if state is None or not entries:
            return None

        n_entries = len(entries)
        entry_arrays, entry_ptrs = state.entry_scratch(n_entries)
        (kinds, cpus, owners, accesses, addr_ptrs, write_ptrs, instrs,
         advances, out_cycles, out_l1_misses, out_l2_misses,
         out_dram_lines, out_bus, out_sf) = entry_arrays
        for index, entry in enumerate(entries):
            kinds[index] = entry.kind
            cpus[index] = entry.cpu_id
            owners[index] = entry.owner
            advances[index] = entry.advance
            batch = entry.batch
            if batch is None:
                accesses[index] = instrs[index] = 0
                continue
            instrs[index] = batch.instructions
            # C reads the batch arrays in place (C-contiguous int64 and
            # bool by AccessBatch's construction); `entries` keeps them
            # alive for the call.
            accesses[index] = batch.addrs.shape[0]
            addr_ptrs[index] = batch.addrs.ctypes.data
            write_ptrs[index] = batch.writes.ctypes.data

        counters = state.counters
        n_done = int(state.walker.walk_segment(
            state.handle, n_entries, *entry_ptrs[:8],
            *self._interval_args(),
            *self._l2_maps(),
            float(now),
            horizon if horizon != math.inf else 1e308,
            int(quantum), 1 if use_quantum else 0,
            *entry_ptrs[8:],
            state.counters_ptr,
        ))
        if n_done < 0:
            # Refused before walking anything.  Negative owner ids take
            # the oracle path for good (the C statistics blocks are
            # indexed by owner id).  Hand the authoritative state back
            # to the Python models first, otherwise the fallback would
            # walk a stale view and its mutations would never reach the
            # C arrays.
            self.quiesce()
            self._degrade(
                "a batch resolved a negative owner id"
                if n_done == cwalker.WALK_NEGATIVE_OWNER
                else "the C walker buffers could not grow"
            )
            return None

        traffic = self.memory.traffic
        traffic.line_reads += int(counters[0])
        traffic.line_writes += int(counters[1])
        traffic.bank_conflicts += int(counters[2])

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
