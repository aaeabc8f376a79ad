"""Tests for tasks, scheduling, the memory layout and cache syscalls."""

import pytest

from repro.apps.synthetic import make_pipeline
from repro.cake import CakeConfig, Platform
from repro.errors import ConfigurationError, PartitionError, SchedulingError
from repro.kpn import ProcessNetwork, TaskSpec
from repro.mem.partition import PartitionMode
from repro.rtos import Scheduler, Task, TaskState, build_memory_layout
from repro.rtos.shmalloc import SHARED_REGION_NAMES
from repro.sim import Simulator


def dummy_program(ctx):
    yield ctx.delay(1)


def make_tasks(n, affinities=None):
    tasks = []
    for i in range(n):
        affinity = affinities[i] if affinities else None
        spec = TaskSpec(f"t{i}", dummy_program, affinity=affinity)
        tasks.append(Task(spec, owner_id=i + 1, context=None))
    return tasks


# -- Task lifecycle ----------------------------------------------------------


def test_task_lifecycle():
    def counting(ctx):
        yield 1
        yield 2

    spec = TaskSpec("t", counting)
    task = Task(spec, owner_id=1, context=None)
    assert task.state is TaskState.NEW
    task.start()
    assert task.state is TaskState.READY
    assert task.advance() == 1
    assert task.advance() == 2
    assert task.advance() is None


def test_task_double_start_rejected():
    task = make_tasks(1)[0]
    task.start()
    with pytest.raises(SchedulingError):
        task.start()


def test_task_advance_before_start_rejected():
    task = make_tasks(1)[0]
    with pytest.raises(SchedulingError):
        task.advance()


# -- Scheduler ----------------------------------------------------------------


def test_migrate_policy_uses_global_queue():
    sim = Simulator()
    tasks = make_tasks(3)
    scheduler = Scheduler(sim, tasks, n_cpus=2, policy="migrate")
    scheduler.start_all()
    assert scheduler.next_task(0) is tasks[0]
    assert scheduler.next_task(1) is tasks[1]
    assert scheduler.next_task(0) is tasks[2]
    assert scheduler.next_task(1) is None


def test_static_policy_respects_affinity_and_round_robin():
    sim = Simulator()
    tasks = make_tasks(4, affinities=[1, None, None, None])
    scheduler = Scheduler(sim, tasks, n_cpus=2, policy="static")
    assert scheduler.assignment["t0"] == 1
    # Remaining tasks round-robin over cpus 0,1,0.
    scheduler.start_all()
    assert scheduler.next_task(1) is tasks[0]
    assert scheduler.next_task(0) is tasks[1]


def test_invalid_affinity_rejected():
    sim = Simulator()
    tasks = make_tasks(1, affinities=[5])
    with pytest.raises(SchedulingError):
        Scheduler(sim, tasks, n_cpus=2, policy="static")


def test_unknown_policy_rejected():
    sim = Simulator()
    with pytest.raises(SchedulingError):
        Scheduler(sim, [], n_cpus=1, policy="lottery")


def test_migration_counting():
    sim = Simulator()
    tasks = make_tasks(1)
    scheduler = Scheduler(sim, tasks, n_cpus=2, policy="migrate")
    scheduler.start_all()
    task = scheduler.next_task(0)
    scheduler.make_ready(task)
    task = scheduler.next_task(1)
    assert task.stats.migrations == 1


def test_wait_for_work_wakes_on_ready():
    sim = Simulator()
    tasks = make_tasks(1)
    scheduler = Scheduler(sim, tasks, n_cpus=1, policy="migrate")
    scheduler.start_all()
    task = scheduler.next_task(0)
    event = scheduler.wait_for_work(0)
    assert not event.triggered
    scheduler.make_ready(task)
    assert event.triggered


def test_task_done_accounting():
    sim = Simulator()
    tasks = make_tasks(2)
    scheduler = Scheduler(sim, tasks, n_cpus=1)
    scheduler.start_all()
    assert scheduler.live_tasks == 2
    scheduler.task_done(tasks[0])
    assert scheduler.live_tasks == 1
    with pytest.raises(SchedulingError):
        scheduler.make_ready(tasks[0])


# -- Memory layout -------------------------------------------------------------


def test_layout_contains_every_role():
    network = make_pipeline(n_stages=3, frame_bytes=4096)
    layout = build_memory_layout(network, placement="bump")
    assert set(layout.task_regions) == set(network.tasks)
    for parts in layout.task_regions.values():
        assert set(parts) == {"code", "data", "bss", "stack", "heap"}
    assert set(layout.shared_regions) == set(SHARED_REGION_NAMES)
    assert set(layout.fifo_regions) == set(network.fifos)
    assert set(layout.frame_regions) == {"scratch"}
    assert len(layout.fifo_admin_offsets) == len(network.fifos)


def test_layout_rt_data_fits_admin_blocks():
    network = make_pipeline(n_stages=6)
    layout = build_memory_layout(network)
    rt_data = layout.shared_regions["rt.data"]
    worst = max(layout.fifo_admin_offsets.values()) + 64
    assert worst <= rt_data.size


def test_layout_order_permutation_checked():
    network = make_pipeline(n_stages=3)
    with pytest.raises(ConfigurationError):
        build_memory_layout(network, order=["bogus"])


def test_layout_order_permutation_applies():
    network = make_pipeline(n_stages=3)
    default = build_memory_layout(network, placement="bump")
    reordered = build_memory_layout(
        network, placement="bump",
        order=list(reversed(default.allocation_order)),
    )
    name = default.allocation_order[0]
    assert default.memory_map.space.region(name).base != \
        reordered.memory_map.space.region(name).base


def test_layout_deterministic():
    network1 = make_pipeline(n_stages=3)
    network2 = make_pipeline(n_stages=3)
    bases1 = [r.base for r in build_memory_layout(network1, seed=5).memory_map.space]
    bases2 = [r.base for r in build_memory_layout(network2, seed=5).memory_map.space]
    assert bases1 == bases2


# -- Cache controller ----------------------------------------------------------


def make_platform():
    network = make_pipeline(n_stages=3, n_tokens=2)
    return Platform(network, CakeConfig(n_cpus=1),
                    mode=PartitionMode.SET_PARTITIONED)


def test_interval_table_loaded():
    platform = make_platform()
    controller = platform.cache_controller
    table = platform.mem.resolver.intervals
    # fifos + frames + 4 shared regions.
    expected = len(platform.network.fifos) + len(platform.network.frames) + 4
    assert len(table) == expected
    fifo_region = platform.layout.fifo_regions["link0"]
    owner = table.lookup(fifo_region.base)
    assert platform.registry.name_of(owner) == "fifo:link0"


def test_program_partitions_packs_contiguously():
    platform = make_platform()
    controller = platform.cache_controller
    controller.program_set_partitions({"task:stage0": 4, "task:stage1": 2})
    set_map = platform.mem.set_map
    p0 = set_map.partition_of(platform.registry.id_of("task:stage0"))
    p1 = set_map.partition_of(platform.registry.id_of("task:stage1"))
    assert p0.base == 0 and p0.n_sets == 4 * controller.unit_sets
    assert p1.base == p0.end
    assert controller.units_free() == controller.total_units - 6


def test_program_partitions_overflow_rejected():
    platform = make_platform()
    controller = platform.cache_controller
    with pytest.raises(PartitionError):
        controller.program_set_partitions(
            {"task:stage0": controller.total_units + 1}
        )
    with pytest.raises(PartitionError):
        controller.program_set_partitions({"task:stage0": 0})


def test_clear_partitions():
    platform = make_platform()
    controller = platform.cache_controller
    controller.program_set_partitions({"task:stage0": 2})
    controller.clear_partitions()
    assert controller.programmed_units == {}
    assert platform.mem.set_map.allocated_sets() == 0


def test_rejected_set_layout_changes_nothing():
    """An overlapping layout is refused before the map is touched: the
    previous partitions, default pool and programmed units survive."""
    platform = make_platform()
    controller = platform.cache_controller
    set_map = platform.mem.set_map
    controller.program_set_layout(
        {"task:stage0": (0, 8), "task:stage1": (8, 8)}, pool=(250, 6)
    )
    before = (
        set_map.partitions, set_map.default_pool,
        controller.programmed_units,
    )
    for ranges, pool in (
        ({"task:stage0": (0, 4), "task:stage1": (2, 4)}, None),
        ({"task:stage0": (0, 4)}, (3, 6)),
    ):
        with pytest.raises(PartitionError, match="overlap"):
            controller.program_set_layout(ranges, pool=pool)
        after = (
            set_map.partitions, set_map.default_pool,
            controller.programmed_units,
        )
        assert after == before
