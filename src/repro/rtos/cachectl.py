"""Cache-allocation syscalls.

§4.2: "We have adapted the operating system, such that it manages the
necessary translation tables for the cache.  For this, it offers
primitives of cache allocation for tasks and for shared memory."

:class:`CacheController` is that OS service.  It owns:

- the **interval table** mapping shared-buffer address ranges to owner
  ids (loaded from the memory layout), and
- the **set-partition map** (or way map) of the L2, programmed from an
  allocation in *units* (a unit is a contiguous group of
  ``unit_sets`` cache sets -- the allocation granularity of Tables 1/2).

The controller is deliberately mechanism-only: deciding *how many* units
each owner receives is the optimizer's job (:mod:`repro.core`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import PartitionError
from repro.mem.hierarchy import MemorySystem
from repro.mem.partition import OwnerRegistry, PartitionMode
from repro.rtos.shmalloc import MemoryLayout, SHARED_REGION_NAMES

__all__ = ["CacheController"]


class CacheController:
    """The RTOS's view of the partitionable L2."""

    def __init__(
        self,
        mem_system: MemorySystem,
        registry: OwnerRegistry,
        layout: MemoryLayout,
        unit_sets: int = 8,
    ):
        if unit_sets <= 0:
            raise PartitionError("unit_sets must be positive")
        total_sets = mem_system.config.l2_geometry.sets
        if total_sets % unit_sets:
            raise PartitionError(
                f"unit_sets={unit_sets} does not divide {total_sets} L2 sets"
            )
        self.mem = mem_system
        self.registry = registry
        self.layout = layout
        self.unit_sets = unit_sets
        self.total_units = total_sets // unit_sets
        self._programmed: Dict[str, int] = {}

    # -- owner id helpers ---------------------------------------------------

    @staticmethod
    def task_owner_name(task_name: str) -> str:
        """Canonical owner name of a task."""
        return f"task:{task_name}"

    @staticmethod
    def fifo_owner_name(fifo_name: str) -> str:
        """Canonical owner name of a FIFO buffer."""
        return f"fifo:{fifo_name}"

    @staticmethod
    def frame_owner_name(frame_name: str) -> str:
        """Canonical owner name of a frame buffer."""
        return f"frame:{frame_name}"

    # -- interval table -----------------------------------------------------

    def load_interval_table(self) -> int:
        """Register every shared buffer/region with the resolver.

        Returns the number of intervals loaded.  Shared entities are the
        FIFO rings, the frame buffers and the four shared static regions
        -- everything that must not be attributed to the issuing task.
        """
        table = self.mem.resolver.intervals
        table.clear()
        count = 0
        for fifo_name, region in self.layout.fifo_regions.items():
            owner = self.registry.register(self.fifo_owner_name(fifo_name))
            table.add(region.base, region.end, owner)
            count += 1
        for frame_name, region in self.layout.frame_regions.items():
            owner = self.registry.register(self.frame_owner_name(frame_name))
            table.add(region.base, region.end, owner)
            count += 1
        for shared_name in SHARED_REGION_NAMES:
            region = self.layout.shared_regions[shared_name]
            owner = self.registry.register(shared_name)
            table.add(region.base, region.end, owner)
            count += 1
        return count

    # -- set partitioning -----------------------------------------------------

    def program_set_partitions(
        self, units_by_owner: Dict[str, int], flush: bool = False
    ) -> None:
        """Program the L2 translation table from a unit allocation.

        ``units_by_owner`` maps owner *names* to unit counts.  Units are
        packed contiguously in iteration order; the total must fit.
        Owners not mentioned keep conventional (shared) indexing.

        With ``flush=True`` the caches are flushed and invalidated
        first (:meth:`~repro.mem.hierarchy.MemorySystem.repartition`):
        required when reprogramming a *live* system, because index
        translation moves lines between sets and dirty residents would
        otherwise be lost.  Platforms that program partitions once,
        before any traffic, can skip it (the caches are still empty).
        """
        total = sum(units_by_owner.values())
        if total > self.total_units:
            raise PartitionError(
                f"allocation of {total} units exceeds {self.total_units}"
            )
        for owner_name, units in units_by_owner.items():
            if units <= 0:
                raise PartitionError(
                    f"owner {owner_name!r} allocated {units} units"
                )
        if flush:
            self.mem.repartition()
        # Always quiesce the compiled tier before mutating the maps:
        # a translation-table change against stale C-resident state
        # would diverge the engines (idempotent after repartition()).
        self.mem.quiesce()
        self.mem.set_map.clear()
        self.mem.set_map.clear_default_pool()
        base_unit = 0
        for owner_name, units in units_by_owner.items():
            owner = self.registry.register(owner_name)
            self.mem.set_map.assign(
                owner,
                base=base_unit * self.unit_sets,
                n_sets=units * self.unit_sets,
            )
            base_unit += units
        # Leftover units become the shared pool for unpartitioned
        # owners, so strays can never evict an exclusive partition.
        spare = self.total_units - base_unit
        if spare > 0:
            self.mem.set_map.set_default_pool(
                base=base_unit * self.unit_sets,
                n_sets=spare * self.unit_sets,
            )
        self.mem.set_map.validate_disjoint()
        self._programmed = dict(units_by_owner)

    def program_way_partitions(self, ways_by_owner: Dict[str, Tuple[int, ...]]) -> None:
        """Program way (column-caching) allocations by owner name."""
        self.mem.quiesce()
        for owner_name, ways in ways_by_owner.items():
            owner = self.registry.register(owner_name)
            self.mem.way_map.assign(owner, ways)

    def release_ways(self, owner_name: str) -> None:
        """Drop one owner's way allocation (online departure)."""
        self.mem.quiesce()
        self.mem.way_map.remove(self.registry.register(owner_name))

    def program_set_layout(
        self,
        ranges_by_owner: Dict[str, Tuple[int, int]],
        pool: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Program the set map from explicit ``(base_unit, units)`` ranges.

        Unlike :meth:`program_set_partitions`, which packs owners
        contiguously from unit 0, the caller controls each owner's base
        -- the contract the online engine needs: across a task
        departure, *surviving* owners keep their exact unit ranges (and
        therefore their cache residency).  ``pool`` optionally pins the
        default pool for unpartitioned owners to an explicit range, so
        it too survives transitions unmoved.  The whole request is
        checked before anything changes: a rejected layout leaves the
        previous partitions, pool and :attr:`programmed_units` intact.
        """
        spans = dict(ranges_by_owner)
        if pool is not None:
            spans["default pool"] = pool
        for owner_name, (base_unit, units) in spans.items():
            if units <= 0:
                raise PartitionError(
                    f"owner {owner_name!r} allocated {units} units"
                )
            if base_unit < 0 or base_unit + units > self.total_units:
                raise PartitionError(
                    f"owner {owner_name!r} range ({base_unit}, {units}) "
                    f"outside 0..{self.total_units}"
                )
        ordered = sorted(
            (base, base + units, name) for name, (base, units) in spans.items()
        )
        for (_, end1, name1), (base2, _, name2) in zip(ordered, ordered[1:]):
            if end1 > base2:
                raise PartitionError(
                    f"ranges of {name1!r} and {name2!r} overlap"
                )
        self.mem.quiesce()
        self.mem.set_map.clear()
        self.mem.set_map.clear_default_pool()
        for owner_name, (base_unit, units) in ranges_by_owner.items():
            owner = self.registry.register(owner_name)
            self.mem.set_map.assign(
                owner,
                base=base_unit * self.unit_sets,
                n_sets=units * self.unit_sets,
            )
        if pool is not None:
            pool_base, pool_units = pool
            self.mem.set_map.set_default_pool(
                base=pool_base * self.unit_sets,
                n_sets=pool_units * self.unit_sets,
            )
        self.mem.set_map.validate_disjoint()
        self._programmed = {
            owner_name: units
            for owner_name, (_base, units) in ranges_by_owner.items()
        }

    def assign_units(self, owner_name: str, base_unit: int, units: int) -> None:
        """Add one owner's partition at an explicit base (online arrival)."""
        if units <= 0:
            raise PartitionError(f"owner {owner_name!r} allocated {units} units")
        if base_unit < 0 or base_unit + units > self.total_units:
            raise PartitionError(
                f"owner {owner_name!r} range ({base_unit}, {units}) "
                f"outside 0..{self.total_units}"
            )
        self.mem.quiesce()
        owner = self.registry.register(owner_name)
        self.mem.set_map.assign(
            owner,
            base=base_unit * self.unit_sets,
            n_sets=units * self.unit_sets,
        )
        self.mem.set_map.validate_disjoint()
        self._programmed[owner_name] = units

    def release_units(self, owner_name: str) -> None:
        """Drop one owner's set partition (online departure).

        The caller is responsible for flushing the owner's residency
        first (:meth:`~repro.mem.hierarchy.MemorySystem.repartition_owners`);
        afterwards the owner falls back to default-pool indexing.
        """
        self.mem.quiesce()
        self.mem.set_map.remove(self.registry.register(owner_name))
        self._programmed.pop(owner_name, None)

    # -- §4.2 extensions -------------------------------------------------

    @staticmethod
    def task_region_owner_name(task_name: str, part: str) -> str:
        """Owner name of one region of a task (e.g. ``task:vld:code``)."""
        return f"task:{task_name}:{part}"

    def split_task_regions(
        self, task_name: str, parts: Tuple[str, ...] = ("code",)
    ) -> List[str]:
        """Give parts of a task's footprint their own owner ids.

        §4.2: the interval-table mechanism "easily allows for other
        experiments, like for example separating tasks' instructions,
        static initialized variables (data) and static uninitialized
        variables (bss) in the cache".  After splitting, the returned
        owner names can be allocated partitions like any other owner
        (the remaining task regions stay attributed to the task id).
        """
        table = self.mem.resolver.intervals
        names: List[str] = []
        regions = self.layout.task_regions[task_name]
        for part in parts:
            if part not in regions:
                raise PartitionError(
                    f"task {task_name!r} has no region part {part!r}"
                )
            region = regions[part]
            owner_name = self.task_region_owner_name(task_name, part)
            owner = self.registry.register(owner_name)
            table.add(region.base, region.end, owner)
            names.append(owner_name)
        return names

    def share_partition(self, owner_name: str, with_owner_name: str) -> None:
        """Alias ``owner_name`` onto another owner's partition.

        §4.2's "sharing some cache partitions": useful when two owners
        are known to have compatible contents (two instances of the
        same decoder sharing a code partition, say).  Compositionality
        between the *pair* is given up by construction; everyone else
        stays isolated.
        """
        owner = self.registry.register(owner_name)
        target = self.registry.register(with_owner_name)
        self.mem.quiesce()
        self.mem.set_map.alias(owner, target)

    def clear_partitions(self) -> None:
        """Back to a fully shared L2."""
        self.mem.quiesce()
        self.mem.set_map.clear()
        self._programmed = {}

    @property
    def programmed_units(self) -> Dict[str, int]:
        """The last allocation programmed (owner name -> units)."""
        return dict(self._programmed)

    def units_free(self) -> int:
        """Units not claimed by the current allocation."""
        return self.total_units - sum(self._programmed.values())
