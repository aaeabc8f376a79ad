"""Measuring miss curves by simulation.

§3.2: "The number of misses of task i with z^s cache sets can be
obtained by simulation or program analysis.  In our model we use an
average over the M_i^s obtained out of different simulations."

The profiler exploits the very property the method establishes --
compositionality: in a *fully partitioned* cache, each owner's misses
depend only on its own allocation.  So one simulation per candidate
size ``s`` (with every optimized item allocated ``s`` units, buffers at
their policy sizes) yields a full column of every item's miss curve.
Because the sum of the trial allocations can exceed the physical L2,
profiling runs on an enlarged *virtual* L2 with the same line size,
associativity and unit granularity -- per-owner miss counts in a
partitioned cache are independent of the total set count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cake.config import CakeConfig
from repro.cake.platform import Platform
from repro.core.allocation import SHARED_ITEMS, BufferPolicy, buffer_units
from repro.core.misscurve import MissCurve
from repro.errors import OptimizationError
from repro.kpn.graph import ProcessNetwork
from repro.mem.partition import PartitionMode

__all__ = [
    "ProfileResult",
    "check_sizes",
    "count_profiling_pass",
    "default_sizes",
    "merge_profile_columns",
    "optimized_item_names",
    "profile_column",
    "profile_miss_curves",
    "profiling_passes",
    "reset_profiling_passes",
    "resolve_sizes",
    "thread_profiling_passes",
]

#: Process-wide count of profiling sweeps executed (one per
#: :func:`profile_miss_curves` call, or per profile key whose columns a
#: runner fans out -- see :func:`count_profiling_pass`).  The cache
#: layers promise that a warm sweep re-profiles *nothing*; this counter
#: is the ground truth those assertions (smoke gate, differential
#: tests) check against -- memo-table bookkeeping could lie, an
#: unchanged counter cannot.
#: Locked because the async runner backend profiles on threads.
_PASS_COUNT = 0
_PASS_COUNT_LOCK = threading.Lock()
#: The calling thread's share of the count (see thread_profiling_passes).
_THREAD_PASSES = threading.local()


def profiling_passes() -> int:
    """How many profiling sweeps this process has executed."""
    return _PASS_COUNT


def thread_profiling_passes() -> int:
    """How many profiling sweeps the calling thread has executed.

    A task's before/after difference of this count is exact even when
    other threads of the process profile concurrently (sweep-service
    workers sharing a process).
    """
    return getattr(_THREAD_PASSES, "count", 0)


def reset_profiling_passes() -> None:
    """Zero the pass counter (test isolation)."""
    global _PASS_COUNT
    with _PASS_COUNT_LOCK:
        _PASS_COUNT = 0


def optimized_item_names(network: ProcessNetwork) -> List[str]:
    """Owner names the MCKP sizes: every task + the shared regions."""
    names = [f"task:{name}" for name in network.tasks]
    names.extend(SHARED_ITEMS)
    return names


@dataclass
class ProfileResult:
    """Miss curves plus per-owner execution-time curves."""

    curves: Dict[str, MissCurve] = field(default_factory=dict)
    #: owner -> {units: l2 accesses} (for the throughput/power models).
    accesses: Dict[str, Dict[int, float]] = field(default_factory=dict)
    #: task name -> instructions per run (size-independent).
    instructions: Dict[str, int] = field(default_factory=dict)
    sizes: List[int] = field(default_factory=list)

    def curve(self, owner: str) -> MissCurve:
        """Miss curve of one owner."""
        try:
            return self.curves[owner]
        except KeyError:
            raise OptimizationError(f"no curve for owner {owner!r}") from None

    def curve_list(self, owners: Sequence[str]) -> List[MissCurve]:
        """Curves for ``owners``, in order."""
        return [self.curve(owner) for owner in owners]


def _virtual_sets(
    config: CakeConfig, n_items: int, size: int, buffers_total: int
) -> int:
    """Set count of the profiling L2: fits every trial partition."""
    needed_units = n_items * size + buffers_total + 1
    needed_sets = needed_units * config.allocation_unit_sets
    sets = config.hierarchy.l2_geometry.sets
    while sets < needed_sets:
        sets *= 2
    return sets


def check_sizes(sizes: Sequence[int]) -> List[int]:
    """A sizes menu as a list, or :class:`OptimizationError`.

    The rules :class:`~repro.core.method.MethodConfig` enforces: at
    least one size, every size a positive integer, strictly ascending.
    """
    sizes = list(sizes)
    if not sizes:
        raise OptimizationError("sizes menu must not be empty")
    for size in sizes:
        if not isinstance(size, int) or size <= 0:
            raise OptimizationError(
                f"sizes must be positive integers, got {size!r}"
            )
    for small, large in zip(sizes, sizes[1:]):
        if large <= small:
            raise OptimizationError(
                f"sizes must be strictly ascending, got {sizes}"
            )
    return sizes


def default_sizes(config: CakeConfig) -> List[int]:
    """Powers of two from 1 up to a quarter of the allocatable units
    (the menu ``sizes=None`` stands for; it depends on the L2 set
    count)."""
    sizes = []
    size = 1
    while size <= config.n_allocation_units // 4:
        sizes.append(size)
        size *= 2
    return sizes


def resolve_sizes(
    config: CakeConfig, sizes: Optional[Sequence[int]] = None
) -> List[int]:
    """The checked size menu of a sweep (``None``: the default menu)."""
    return check_sizes(default_sizes(config) if sizes is None else sizes)


def count_profiling_pass() -> None:
    """Record one profiling sweep, process-wide and for this thread."""
    global _PASS_COUNT
    with _PASS_COUNT_LOCK:
        _PASS_COUNT += 1
    _THREAD_PASSES.count = thread_profiling_passes() + 1


def profile_column(
    network_builder: Callable[[], ProcessNetwork],
    config: CakeConfig,
    size: int,
    repeat: int = 0,
    fifo_policy: BufferPolicy = BufferPolicy.ALL_HIT,
) -> ProfileResult:
    """One column of a sweep: every optimized item at ``size`` units.

    A single platform run with seed ``config.seed + repeat``.  The
    result holds one sample per curve and the run's *raw* per-owner L2
    accesses; :func:`merge_profile_columns` averages them.  Pure and
    uncounted: the caller counts the sweep it belongs to.
    """
    network = network_builder()
    items = optimized_item_names(network)
    buffers = buffer_units(network, config.unit_bytes, fifo_policy)
    run_config = config.with_l2_sets(
        _virtual_sets(config, len(items), size, sum(buffers.values()))
    )
    if repeat:
        run_config = replace(run_config, seed=config.seed + repeat)
    platform = Platform(
        network, run_config, mode=PartitionMode.SET_PARTITIONED
    )
    allocation = dict(buffers)
    for item in items:
        allocation[item] = size
    platform.cache_controller.program_set_partitions(allocation)
    metrics = platform.run()
    column = ProfileResult(sizes=[size])
    for item in items:
        stats = metrics.l2_by_owner.get(item)
        column.curves[item] = MissCurve(item)
        column.curves[item].add_sample(size, stats.misses if stats else 0)
        column.accesses[item] = {size: stats.accesses if stats else 0}
    for task_name, stats in metrics.task_stats.items():
        column.instructions[task_name] = stats.instructions
    return column


def merge_profile_columns(
    columns: Mapping[Tuple[int, int], ProfileResult]
) -> ProfileResult:
    """Fold ``(size, repeat) -> column`` into the sweep's profile.

    Columns fold in ``(size, repeat)`` order whatever order they were
    measured in, so the result is bit-identical to a serial sweep:
    samples keep repeat order, accesses accumulate in repeat order, and
    instructions come from the last run.
    """
    keys = sorted(columns)
    sizes = sorted({size for size, _repeat in keys})
    repeats = len(keys) // max(len(sizes), 1)
    if not keys or keys != [(s, r) for s in sizes for r in range(repeats)]:
        raise OptimizationError(
            f"incomplete profile columns {keys}: need every "
            f"(size, repeat) of sizes x range(repeats)"
        )
    result = ProfileResult(sizes=sizes)
    for size, repeat in keys:
        column = columns[(size, repeat)]
        for item, curve in column.curves.items():
            result.curves.setdefault(item, MissCurve(item)).add_sample(
                size, curve.mean(size)
            )
            by_size = result.accesses.setdefault(item, {})
            by_size[size] = (
                by_size.get(size, 0.0) + column.accesses[item][size] / repeats
            )
        result.instructions.update(column.instructions)
    return result


def profile_miss_curves(
    network_builder: Callable[[], ProcessNetwork],
    config: CakeConfig,
    sizes: Optional[Sequence[int]] = None,
    fifo_policy: BufferPolicy = BufferPolicy.ALL_HIT,
    repeats: int = 1,
) -> ProfileResult:
    """Measure miss curves for every optimized item.

    ``network_builder`` must build a fresh network per call (platforms
    consume them).  ``sizes`` defaults to powers of two from 1 up to a
    quarter of the allocatable units.  ``repeats`` averages multiple
    runs with different seeds (the paper averages M_i^s over several
    simulations).  Bad arguments raise before the pass is counted.
    """
    sizes = resolve_sizes(config, sizes)
    if repeats < 1:
        raise OptimizationError(f"repeats must be >= 1, got {repeats}")
    count_profiling_pass()
    return merge_profile_columns({
        (size, repeat): profile_column(
            network_builder, config, size, repeat, fifo_policy
        )
        for size in sizes
        for repeat in range(repeats)
    })
