"""Differential tests: the compiled engine against the oracle.

The compiled engine (persistent C state handle + ``walk_segment``) must
produce *bit-identical* statistics to the reference engine: every
``BatchResult``, every per-owner ``OwnerStats`` at both cache levels,
the eviction-attribution matrices, DRAM traffic and bus accounting --
whether it runs in C or has degraded to the reference walk (no C
walker, a ``random`` L2, a negative owner id).  The streams below mix
reads and writes, random and streaming access (store-fill path),
shared-buffer traffic (interval owners) and private task footprints,
across all three partition modes and the LRU/FIFO L2 policies.

Task address regions are disjoint per task: the model requires a
stable line-to-set mapping, so a line not covered by the interval
table must always be issued by the same owner (the seed model shares
this contract -- violating it corrupts its bookkeeping too).
"""

import contextlib
import logging
import math
import random

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mem import cwalker
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig, MemorySystem, SegmentEntry
from repro.mem.partition import PartitionMode
from repro.mem.trace import AccessBatch

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs no hypothesis
    HAVE_HYPOTHESIS = False

C_AVAILABLE = cwalker.load() is not None


def build_system(engine, mode, l2_policy="lru"):
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=32, ways=4, line_size=64),
        engine=engine,
        l2_policy=l2_policy,
    )
    mem = MemorySystem(2, config, mode=mode)
    mem.resolver.intervals.add(0, 4096, owner=7)
    mem.resolver.intervals.add(1 << 20, (1 << 20) + 8192, owner=8)
    if mode is PartitionMode.SET_PARTITIONED:
        mem.set_map.assign(1, base=0, n_sets=8)
        mem.set_map.assign(7, base=8, n_sets=3)  # non-power-of-two group
        mem.set_map.set_default_pool(base=16, n_sets=16)
        mem.set_map.alias(8, 7)
    if mode is PartitionMode.WAY_PARTITIONED:
        mem.way_map.assign(1, (0, 1))
        mem.way_map.assign(7, (2,))
    return mem


def generate_batch(rng, step, task):
    n = int(rng.integers(100, 600))
    private_base = 0 if task == 1 else 1 << 21
    if step % 3 == 2:
        # Streaming full-line stores: exercises write-validate fills.
        start = private_base + (int(rng.integers(0, 1 << 16)) & ~63)
        addrs = start + 4 * np.arange(n)
        writes = np.ones(n, dtype=bool)
    elif step % 3 == 1:
        # Hammer the shared buffers (interval-table owners).
        if step % 2:
            addrs = (1 << 20) + (rng.integers(0, 8192, n) & ~3)
        else:
            addrs = rng.integers(0, 4096, n) & ~3
        writes = rng.random(n) < 0.5
    else:
        # Random traffic over the task's private region.
        addrs = private_base + (rng.integers(0, 1 << 18, n) & ~3)
        writes = rng.random(n) < 0.4
    return AccessBatch.from_addresses(addrs, writes=writes)


def assert_systems_identical(reference, compiled, context):
    compiled.sync_state()  # materialise C-resident state (no-op otherwise)
    for cpu in range(reference.n_cpus):
        ref_l1, comp_l1 = reference.l1s[cpu].stats, compiled.l1s[cpu].stats
        assert ref_l1.per_owner == comp_l1.per_owner, (context, "l1", cpu)
        assert ref_l1.eviction_matrix == comp_l1.eviction_matrix, (
            context, "l1 matrix", cpu,
        )
        assert reference.l1s[cpu]._seen == compiled.l1s[cpu]._seen, (
            context, "l1 seen", cpu,
        )
    assert reference.l2_stats.per_owner == compiled.l2_stats.per_owner, \
        context
    assert (reference.l2_stats.eviction_matrix
            == compiled.l2_stats.eviction_matrix), context
    assert (reference.caches()[-1]._seen
            == compiled.caches()[-1]._seen), (context, "l2 seen")
    assert vars(reference.memory.traffic) == \
        vars(compiled.memory.traffic), context
    assert reference.bus.total_transfers == compiled.bus.total_transfers, \
        context
    assert (reference.bus.total_surcharge_cycles
            == compiled.bus.total_surcharge_cycles), context
    if reference.l2 is not None:
        # Same resident lines, owners and dirty bits, per set.
        assert reference.l2._owner_of == compiled.l2._owner_of, context
        assert reference.l2._dirty == compiled.l2._dirty, context
        for set_index in range(reference.l2.geometry.sets):
            assert (reference.l2.set_contents(set_index)
                    == compiled.l2.set_contents(set_index)), (
                context, set_index,
            )
    else:
        # Way-managed L2: same occupied slots, owners, stamps, clock.
        # (Owner/stamp of an *empty* slot is dead state the model never
        # reads; the engines may differ there.)
        ref_way, comp_way = reference.l2_way, compiled.l2_way
        assert ref_way._line == comp_way._line, context
        assert ref_way._dirty == comp_way._dirty, context
        assert ref_way._clock == comp_way._clock, context
        for si, slot_lines in enumerate(ref_way._line):
            for way, line in enumerate(slot_lines):
                if line is None:
                    continue
                assert (ref_way._owner[si][way]
                        == comp_way._owner[si][way]), (context, si, way)
                assert (ref_way._stamp[si][way]
                        == comp_way._stamp[si][way]), (context, si, way)


def run_differential(mode, l2_policy, seed):
    """Twelve batches, alternating CPUs and tasks, on both engines."""
    reference = build_system("reference", mode, l2_policy)
    compiled = build_system("compiled", mode, l2_policy)
    rng = np.random.default_rng(seed)
    for step in range(12):
        task = 1 + step % 2
        batch = generate_batch(rng, step, task)
        ref_result = reference.execute_batch(
            step % 2, task, batch, now=step * 500.0
        )
        comp_result = compiled.execute_batch(
            step % 2, task, batch, now=step * 500.0
        )
        assert ref_result == comp_result, (mode, l2_policy, seed, step)
    assert_systems_identical(reference, compiled, (mode, l2_policy, seed))
    return compiled


@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("l2_policy", ["lru", "fifo"])
@pytest.mark.parametrize("seed", [99, 7, 2024])
def test_python_walker_matches_reference(mode, l2_policy, seed, monkeypatch):
    """Without a C walker the compiled engine runs the pure-Python
    reference walk: loudly (one RuntimeWarning naming the reason) and
    bit-identically, in every mode and policy."""
    monkeypatch.setattr(cwalker, "load", lambda: None)
    with pytest.warns(RuntimeWarning, match="no C walker") as record:
        compiled = run_differential(mode, l2_policy, seed)
    assert len(record) == 1
    assert compiled._compiled is None
    assert not compiled.segment_ready


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize(
    "mode", [PartitionMode.SHARED, PartitionMode.SET_PARTITIONED]
)
@pytest.mark.parametrize("l2_policy", ["lru", "fifo"])
@pytest.mark.parametrize("seed", [99, 7, 2024])
def test_c_walker_matches_reference(mode, l2_policy, seed):
    """The C walker fed multi-entry segments (both CPUs, delays,
    switch traffic) vs the op-by-op oracle, per L2 policy: one
    ``walk_segment`` call must equal the sequential reference walk."""
    reference = build_system("reference", mode, l2_policy)
    compiled = build_system("compiled", mode, l2_policy)
    rng = np.random.default_rng(seed)
    now = 0.0
    for _ in range(3):
        entries = build_segment(rng)
        ref = reference.execute_segment(entries, now)
        comp = compiled.execute_segment(entries, now)
        assert ref == comp, (mode, l2_policy, seed)
        now += ref[2]
    assert compiled._compiled is not None  # really ran the C walker
    assert_systems_identical(reference, compiled, (mode, l2_policy, seed))


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("l2_policy", ["lru", "fifo"])
@pytest.mark.parametrize("seed", [99, 7, 2024])
def test_compiled_engine_matches_reference(mode, l2_policy, seed):
    """Compiled engine vs oracle, batch by batch, every partition mode
    (the way-partitioned column cache is walked inline in C too)."""
    if mode is PartitionMode.WAY_PARTITIONED and l2_policy == "fifo":
        pytest.skip("way-managed L2 has no replacement-policy knob")
    compiled = run_differential(mode, l2_policy, seed)
    assert compiled._compiled is not None  # really ran the C walker


# -- schedule segments ---------------------------------------------------------


def build_segment(rng, n_cpus=2, n_computes=8, with_switch=True):
    """A mixed compute/delay segment (plus context-switch traffic)."""
    entries = []
    if with_switch:
        entries.append(SegmentEntry.switch(
            0, 1, generate_batch(rng, 0, 1), 400
        ))
    for step in range(n_computes):
        task = 1 + step % 2
        entries.append(SegmentEntry.compute(
            step % n_cpus, task, generate_batch(rng, step, task)
        ))
        if step % 3 == 0:
            entries.append(SegmentEntry.delay(250 * (step % 2)))
    return entries


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("mode", list(PartitionMode))
@pytest.mark.parametrize("seed", [13, 512])
def test_segment_walk_matches_sequential_reference(mode, seed):
    """One C segment call == the op-by-op reference walk."""
    reference = build_system("reference", mode)
    compiled = build_system("compiled", mode)
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    segment_a = build_segment(rng_a)
    segment_b = build_segment(rng_b)
    done_a, results_a, elapsed_a = reference.execute_segment(
        segment_a, now=1000.0
    )
    done_b, results_b, elapsed_b = compiled.execute_segment(
        segment_b, now=1000.0
    )
    assert compiled._compiled is not None  # really ran the C tier
    assert (done_a, elapsed_a) == (done_b, elapsed_b)
    assert results_a == results_b
    assert done_a == len(segment_a)
    assert_systems_identical(reference, compiled, (mode, seed))


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("horizon_offset", [0.5, 1.0, 5000.0, math.inf])
def test_segment_stops_at_the_event_horizon(horizon_offset):
    """Entry k >= 1 may not start at/after the horizon; entry 0 always
    runs; cut-off entries leave no trace on any state."""
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    rng = np.random.default_rng(77)
    entries = [
        SegmentEntry.compute(0, 1, generate_batch(rng, s, 1))
        for s in range(6)
    ]
    horizon = 1000.0 + horizon_offset
    ref = reference.execute_segment(entries, 1000.0, horizon=horizon)
    comp = compiled.execute_segment(entries, 1000.0, horizon=horizon)
    assert ref == comp
    if horizon_offset == math.inf:
        assert ref[0] == len(entries)
    else:
        assert ref[0] < len(entries)
    assert_systems_identical(reference, compiled, horizon)


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_segment_stops_on_quantum_expiry():
    """use_quantum stops after the op that exhausts the quantum --
    exactly the reference loop's preemption boundary."""
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    rng = np.random.default_rng(5)
    entries = [
        SegmentEntry.compute(0, 1, generate_batch(rng, s, 1))
        for s in range(6)
    ]
    ref = reference.execute_segment(
        entries, 0.0, quantum=1, use_quantum=True
    )
    comp = compiled.execute_segment(
        entries, 0.0, quantum=1, use_quantum=True
    )
    assert ref == comp
    assert ref[0] == 1  # the first op exhausts a 1-cycle quantum
    # Without use_quantum the same budget is ignored.
    ref_all = reference.execute_segment(entries, 1e6, quantum=1)
    comp_all = compiled.execute_segment(entries, 1e6, quantum=1)
    assert ref_all == comp_all
    assert ref_all[0] == len(entries)
    assert_systems_identical(reference, compiled, "quantum")


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_compiled_engine_survives_negative_owner_fallback():
    """A negative *task* owner takes the oracle path mid-run; the
    compiled tier must hand its resident state down first and
    re-export after, so mixed positive/negative batches stay
    bit-identical.  (Negative ids never leave the owner registry; a
    negative task owner is the supported out-of-contract escape hatch
    every engine funnels to the reference walk.)"""
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    rng = np.random.default_rng(21)
    for step in range(9):
        if step % 3 == 2:
            # Private traffic issued on behalf of a negative owner.
            addrs = (1 << 24) + (rng.integers(0, 1 << 16, 300) & ~3)
            batch = AccessBatch.from_addresses(addrs)
            task = -3
        else:
            task = 1 + step % 2
            batch = generate_batch(rng, step, task)
        if step == 2:
            # The first negative owner degrades the system, loudly.
            with pytest.warns(RuntimeWarning, match="negative owner"):
                got = compiled.execute_batch(0, task, batch, step * 500.0)
        else:
            got = compiled.execute_batch(0, task, batch, step * 500.0)
        assert got == reference.execute_batch(
            0, task, batch, step * 500.0
        ), step
    assert not compiled.segment_ready
    assert_systems_identical(reference, compiled, "negative owners")


def random_l2_config(engine):
    return HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
        l2_policy="random",
        engine=engine,
    )


# The ``fast`` id names the accelerated engine, which is ``compiled``.
@pytest.mark.parametrize("engine", ["compiled", "reference"],
                         ids=["fast", "reference"])
def test_random_l2_policy_replays_the_reference_rng(engine):
    """A random L2 on either engine replays the oracle's RNG stream
    draw for draw: same results, same owners, and the generators march
    in lockstep."""
    system = MemorySystem(1, random_l2_config(engine),
                          rng=np.random.default_rng(0))
    reference = MemorySystem(1, random_l2_config("reference"),
                             rng=np.random.default_rng(0))
    warns = (pytest.warns(RuntimeWarning, match="random replacement")
             if engine == "compiled" else contextlib.nullcontext())
    rng = np.random.default_rng(5)
    with warns:
        for step in range(10):
            addrs = rng.integers(0, 1 << 16, 500) & ~3
            writes = rng.random(500) < 0.4
            batch = AccessBatch.from_addresses(addrs, writes=writes)
            assert system.execute_batch(0, 1, batch, step * 100.0) == \
                reference.execute_batch(0, 1, batch, step * 100.0), step
    assert system.l2_stats.per_owner == reference.l2_stats.per_owner
    assert system.l2._owner_of == reference.l2._owner_of
    # The generators marched in lockstep: same state after the run.
    assert (system.l2._rng.bit_generator.state
            == reference.l2._rng.bit_generator.state)


def test_compiled_engine_degrades_for_random_l2():
    """random replacement runs the reference walk (which owns the RNG
    stream), says so once, and stays bit-identical."""
    system = MemorySystem(1, random_l2_config("compiled"),
                          rng=np.random.default_rng(0))
    with pytest.warns(RuntimeWarning, match="random replacement") as record:
        assert not system.segment_ready
    assert len(record) == 1
    reference = MemorySystem(1, random_l2_config("reference"),
                             rng=np.random.default_rng(0))
    rng = np.random.default_rng(9)
    addrs = rng.integers(0, 1 << 16, 400) & ~3
    batch = AccessBatch.from_addresses(addrs)
    assert system.execute_batch(0, 1, batch, 0.0) == \
        reference.execute_batch(0, 1, batch, 0.0)
    assert not system.segment_ready


def _reset_walker_load(monkeypatch, tmp_path):
    """Make the next cwalker.load() compile afresh into ``tmp_path``."""
    monkeypatch.setattr(cwalker, "_BUILD_DIR", str(tmp_path / "build"))
    monkeypatch.setattr(cwalker, "_walker", None)
    monkeypatch.setattr(cwalker, "_load_attempted", False)
    monkeypatch.setattr(cwalker, "_load_error", None)


def test_fallback_warning_names_the_compiler_failure(tmp_path, monkeypatch):
    """A failing compiler's exit status and stderr tail reach the
    compiled engine's fallback warning."""
    fake_cc = tmp_path / "fake-cc"
    fake_cc.write_text(
        "#!/bin/sh\necho '_walker.c:1: error: simulated failure' >&2\n"
        "exit 3\n"
    )
    fake_cc.chmod(0o755)
    monkeypatch.setenv("CC", str(fake_cc))
    _reset_walker_load(monkeypatch, tmp_path)
    assert cwalker.load() is None
    reason = cwalker.load_error()
    assert "exited with status 3" in reason, reason
    assert "simulated failure" in reason, reason
    mem = MemorySystem(1, HierarchyConfig(engine="compiled"))
    with pytest.warns(RuntimeWarning, match="no C walker") as record:
        mem.execute_batch(0, 1, AccessBatch.from_addresses([0, 64]), 0.0)
    assert len(record) == 1
    assert "simulated failure" in str(record[0].message)


def test_fallback_warning_names_a_missing_compiler(tmp_path, monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))  # no compiler on PATH
    _reset_walker_load(monkeypatch, tmp_path)
    assert cwalker.load() is None
    assert "no C compiler found" in cwalker.load_error()
    mem = MemorySystem(1, HierarchyConfig(engine="compiled"))
    with pytest.warns(RuntimeWarning, match="no C compiler found"):
        assert not mem.segment_ready


def test_engine_config_validated():
    assert HierarchyConfig.ENGINES == ("reference", "compiled")
    assert HierarchyConfig().engine == "compiled"
    for engine in ("warp", "fast"):
        with pytest.raises(ConfigurationError):
            HierarchyConfig(engine=engine)
    for engine in HierarchyConfig.ENGINES:
        assert HierarchyConfig(engine=engine).engine == engine


@pytest.mark.parametrize(
    "walker", ["python", "c"][: 1 + C_AVAILABLE],
)
def test_cold_misses_after_forget_history(walker, monkeypatch):
    """Regression: across a forget_history() epoch, lines can be
    resident yet unseen; the compiled engine's cold classification
    must count the first *miss* of such lines, not their first
    occurrence -- in C, and in the pure-Python walk it degrades to
    without a C walker."""
    def run(engine):
        mem = MemorySystem(1, HierarchyConfig(engine=engine))
        mem.execute_batch(
            0, 1, AccessBatch.from_addresses(np.arange(200) * 64), 0.0
        )
        # Only the cold classifiers forget: the lines stay resident
        # (C-side on the compiled engine) yet become unseen.  Seen sets
        # live in the C handle too, so the Python-side mutation is
        # preceded by quiesce() -- the documented mutation contract.
        mem.quiesce()
        mem.l1s[0].forget_history()
        mem.l2.forget_history()
        rng = np.random.default_rng(3)
        batch = AccessBatch.from_addresses(rng.integers(0, 300, 5000) * 64)
        mem.execute_batch(0, 1, batch, 100.0)
        mem.sync_state()  # fold C-side statistics and seen sets
        return (
            mem.l1s[0].stats.per_owner,
            mem.l2_stats.per_owner,
            sorted(mem.l1s[0]._seen),
            sorted(mem.l2._seen),
        )

    expected = run("reference")
    if walker == "python":
        monkeypatch.setattr(cwalker, "load", lambda: None)
        with pytest.warns(RuntimeWarning, match="no C walker"):
            assert run("compiled") == expected
    else:
        assert run("compiled") == expected


def test_repartition_flushes_dirty_lines_to_dram():
    mem = build_system("compiled", PartitionMode.SHARED)
    writes = AccessBatch.from_addresses([0, 64, 1 << 21], writes=True)
    mem.execute_batch(0, 1, writes, now=0.0)
    before = mem.memory.traffic.line_writes
    flushed = mem.repartition()
    # Each of the three written lines is dirty in its L1 *and* in the L2
    # (store misses install the line dirty at both levels).
    assert flushed == 6
    assert mem.memory.traffic.line_writes == before + 6
    assert mem.l2.resident_lines == 0
    for l1 in mem.l1s:
        assert l1.resident_lines == 0
    # The next access must miss again (caches really were invalidated)
    # but is not cold (the history survives a repartition).
    result = mem.execute_batch(0, 1, AccessBatch.from_addresses([0]), 10.0)
    assert result.l1_misses == 1


def test_repartition_in_way_mode():
    mem = build_system("compiled", PartitionMode.WAY_PARTITIONED)
    writes = AccessBatch.from_addresses([0, 64], writes=True)
    mem.execute_batch(0, 1, writes, now=0.0)
    assert mem.repartition() == 4  # two dirty lines per level


# -- per-owner statistics: generated segments ---------------------------------
#
# The compiled engine keeps per-owner counters, eviction matrices and
# cold-miss seen sets in the C handle and folds them into the Python
# models on demand.  These properties drive both engines with generated
# multi-entry segments and compare every level after each run.

#: Task owner ids in order of appearance: later segments bring larger
#: ids, so the C statistics blocks must grow mid-run.
TASK_POOL = (1, 2, 23, 40, 77)

#: Set-partitioned maps over the 32-set L2: aliases, non-power-of-two
#: groups, a default pool, a late owner with its own partition.
SET_MAPS = (
    dict(assign=[(1, 0, 8), (7, 8, 3)], alias=[(8, 7)], pool=(16, 16)),
    dict(assign=[(2, 0, 4), (23, 4, 5), (77, 9, 7)], alias=[(40, 23)],
         pool=None),
    dict(assign=[(8, 0, 6), (40, 6, 2)], alias=[(7, 8), (1, 40)],
         pool=(8, 24)),
)
WAY_MAPS = (
    {1: (0, 1), 7: (2,)},
    {23: (3,), 40: (0, 1), 8: (2,)},
)


#: The two shared regions every task's shared-buffer traffic hits.
SHARED_REGIONS = ((0, 4096), (1 << 20, (1 << 20) + 8192))


def interval_layout(rnd):
    """An interval table over the shared regions (plus, sometimes, part
    of task 1's private region).

    Every line base of a shared region stays covered -- several tasks
    issue those lines, and an uncovered line would change owner (and
    L2 set) with the issuer.  Boundaries may fall mid-line, where the
    owner comes from the run's line base address, not from its first
    access; the 8 KB region may be cut into many small adjacent
    intervals.
    """
    kind = rnd.randrange(3)
    (lo, hi), (lo2, hi2) = SHARED_REGIONS
    if kind == 0:
        return [(lo, hi, 7), (lo2, hi2, 8)]
    if kind == 1:
        # Mid-line cuts, and a private interval starting mid-line (its
        # first line resolves to the issuing task).
        cuts = sorted(rnd.sample(range(lo + 1, hi), 3))
        bounds = [lo, *cuts, hi]
        layout = [(bounds[i], bounds[i + 1], (7, 9, 10, 11)[i])
                  for i in range(4)]
        private = (1 << 22) + 64 * rnd.randrange(64) + rnd.randrange(1, 64)
        return layout + [(lo2, hi2, 8), (private, private + 2000, 30)]
    layout = [(lo, hi, 7)]
    base = lo2
    while base < hi2:
        end = min(base + rnd.randint(8, 300), hi2)
        layout.append((base, end, rnd.choice((8, 9, 11, 12))))
        base = end
    return layout


def mutate_intervals(rnd, table, owners):
    """One OS update of the interval table, as ``(op, args)`` calls to
    replay on every system's table: add an interval over part of a
    task's private region, remove one (a shared one is re-added under
    another owner, keeping its lines covered), or clear and load a new
    layout."""
    op = rnd.choice(("add", "remove", "clear"))
    if op == "add":
        base = (rnd.choice(owners) << 22) + rnd.randrange(1 << 15)
        end = base + rnd.randint(1, 4096)
        if any(b < end and base < e for b, e, _ in table):
            return []
        return [("add", (base, end, rnd.choice((30, 91))))]
    if op == "remove":
        base, end, owner = rnd.choice(list(table))
        calls = [("remove", (base,))]
        if any(lo <= base < hi for lo, hi in SHARED_REGIONS):
            calls.append(("add", (base, end, 9 if owner != 9 else 12)))
        return calls
    return [("clear", ())] + [("add", spec) for spec in interval_layout(rnd)]


def build_generated_system(engine, mode, l2_policy, n_cpus, maps,
                           intervals=None):
    config = HierarchyConfig(
        l1_geometry=CacheGeometry(sets=4, ways=2, line_size=64),
        l2_geometry=CacheGeometry(sets=32, ways=4, line_size=64),
        engine=engine,
        l2_policy=l2_policy,
    )
    mem = MemorySystem(n_cpus, config, mode=mode)
    if intervals is None:
        intervals = [(0, 4096, 7), (1 << 20, (1 << 20) + 8192, 8)]
    for base, end, owner in intervals:
        mem.resolver.intervals.add(base, end, owner=owner)
    if mode is PartitionMode.SET_PARTITIONED:
        for owner, base, n_sets in maps["assign"]:
            mem.set_map.assign(owner, base=base, n_sets=n_sets)
        for owner, target in maps["alias"]:
            mem.set_map.alias(owner, target)
        if maps["pool"] is not None:
            mem.set_map.set_default_pool(*maps["pool"])
    elif mode is PartitionMode.WAY_PARTITIONED:
        for owner, ways in maps.items():
            mem.way_map.assign(owner, ways)
    return mem


def generated_batch(rnd, owner, first_addr=None):
    """Private traffic (the owner's own region), shared-buffer traffic
    or full-line streaming stores, reads and writes mixed; sometimes a
    single access or none.  ``first_addr`` is prepended."""
    rng = np.random.default_rng(rnd.getrandbits(32))
    roll = rnd.random()
    n = 0 if roll < 0.1 else 1 if roll < 0.2 else rnd.randint(20, 300)
    kind = rnd.randrange(3)
    private_base = owner << 22
    if n == 0:
        addrs = np.zeros(0, dtype=np.int64)
        writes = np.zeros(0, dtype=bool)
    elif kind == 0:
        addrs = private_base + (rng.integers(0, 1 << 15, n) & ~3)
        writes = rng.random(n) < 0.4
    elif kind == 1:
        addrs = np.where(rng.random(n) < 0.5,
                         rng.integers(0, 4096, n),
                         (1 << 20) + rng.integers(0, 8192, n)) & ~3
        writes = rng.random(n) < 0.5
    else:
        start = private_base + (rnd.randrange(1 << 14) & ~63)
        addrs = start + 4 * np.arange(n)
        writes = np.ones(n, dtype=bool)
    if first_addr is not None:
        addrs = np.concatenate(([first_addr], addrs))
        writes = np.concatenate(([rnd.random() < 0.5], writes))
    return AccessBatch.from_addresses(addrs, writes=writes,
                                      instructions=rnd.randint(0, 2000))


def generated_segment(rnd, n_cpus, owners):
    entries = []
    last = None  # (owner, last address) of the latest traffic entry
    for _ in range(rnd.randint(1, 7)):
        kind = rnd.randrange(5)
        cpu = rnd.randrange(n_cpus)
        owner = rnd.choice(owners)
        first_addr = None
        if last is not None and rnd.random() < 0.3:
            # Start on the line the previous traffic entry ended on: the
            # two entries' runs must stay separate.
            owner, first_addr = last[0], (last[1] & ~63) + rnd.randrange(64)
        if kind == 0:
            entries.append(SegmentEntry.delay(rnd.randint(0, 400)))
            continue
        batch = generated_batch(rnd, owner, first_addr)
        if kind == 1:
            entries.append(SegmentEntry.switch(
                cpu, owner, batch, rnd.randint(1, 500)
            ))
        else:
            entries.append(SegmentEntry.compute(cpu, owner, batch))
        if batch.n_accesses:
            last = (owner, int(batch.addrs[-1]))
    return entries


def _check_stats_differential(rnd, quiesce_at=None):
    """Both engines over generated segments; every level's statistics,
    seen sets and DRAM traffic must agree, mid-run folds, interval-table
    updates between segments and an optional mid-run quiesce included."""
    mode = rnd.choice(list(PartitionMode))
    l2_policy = rnd.choice(["lru", "fifo"])
    n_cpus = rnd.randint(1, 3)
    maps = rnd.choice(
        SET_MAPS if mode is PartitionMode.SET_PARTITIONED else WAY_MAPS
    )
    intervals = interval_layout(rnd)
    context = (mode, l2_policy, n_cpus, maps, intervals)
    reference = build_generated_system(
        "reference", mode, l2_policy, n_cpus, maps, intervals
    )
    compiled = build_generated_system(
        "compiled", mode, l2_policy, n_cpus, maps, intervals
    )
    n_segments = rnd.randint(2, 6)
    if quiesce_at is None and rnd.random() < 0.3:
        quiesce_at = rnd.randrange(n_segments - 1)
    now = 0.0
    for index in range(n_segments):
        owners = TASK_POOL[:2 + index]
        entries = generated_segment(rnd, n_cpus, owners)
        ref = reference.execute_segment(entries, now)
        comp = compiled.execute_segment(entries, now)
        assert ref == comp, (context, index)
        now += ref[2] + 1
        if rnd.random() < 0.4:
            # A mid-run read folds the C counters; folding again (and
            # later) must neither lose nor double-count anything.
            assert (compiled.l2_stats.per_owner
                    == reference.l2_stats.per_owner), (context, index)
            compiled.sync_state()
        if index == quiesce_at:
            compiled.quiesce()  # continue on a rebuilt handle
        if index < n_segments - 1 and rnd.random() < 0.4:
            # The OS updates the interval table between segments; the
            # compiled engine must not walk a stale memo of it.
            calls = mutate_intervals(rnd, reference.resolver.intervals,
                                     owners)
            for mem in (reference, compiled):
                table = mem.resolver.intervals
                for op, args in calls:
                    getattr(table, op)(*args)
            if calls and mode is PartitionMode.SET_PARTITIONED:
                # Lines changed owner, hence L2 set: flush first.
                assert (reference.repartition(now)
                        == compiled.repartition(now)), (context, index)
    assert compiled._compiled is not None  # really ran the C walker
    assert_systems_identical(reference, compiled, context)
    # A second fold adds nothing.
    assert_systems_identical(reference, compiled, context)


if HAVE_HYPOTHESIS:

    @pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rnd=st.randoms(use_true_random=False))
    def test_generated_segments_fold_identical_stats(rnd):
        _check_stats_differential(rnd)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
    def test_generated_segments_fold_identical_stats():
        for case in range(40):
            _check_stats_differential(random.Random(f"20050307-{case}"))


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("seed", [3, 11])
def test_quiesce_mid_run_keeps_stats_exact(seed):
    """Quiesce after the first segment and continue on a rebuilt
    handle: no statistic is double-counted and no line seen before the
    rebuild is classified cold again."""
    rnd = random.Random(seed)
    _check_stats_differential(rnd, quiesce_at=0)


# -- raw access streams: dtypes and layouts ------------------------------------


def _int32_addresses(n):
    return (np.arange(n) * 4).astype(np.int32)


#: Batches whose arrays are not C-contiguous int64 / bool as given: the
#: compiled walker reads the raw buffers, so construction normalises
#: them (an 8000-access int32 stream once walked garbage silently).
ODD_BATCHES = {
    "int32-addrs": lambda n: AccessBatch(
        addrs=_int32_addresses(n), writes=np.arange(n) % 3 == 0,
        instructions=n,
    ),
    "int-mask": lambda n: AccessBatch(
        addrs=np.arange(n, dtype=np.int64) * 4,
        writes=np.arange(n) % 5 * 2, instructions=n,
    ),
    "uint8-mask": lambda n: AccessBatch(
        addrs=_int32_addresses(n),
        writes=(np.arange(n) % 2).astype(np.uint8) * 3, instructions=n,
    ),
    "strided": lambda n: AccessBatch(
        addrs=(np.arange(3 * n, dtype=np.int64) * 4)[::3],
        writes=np.tile([True, False, False], n)[::3][::-1], instructions=n,
    ),
}


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
@pytest.mark.parametrize("kind", sorted(ODD_BATCHES))
def test_engines_agree_on_non_int64_batches(kind):
    batch = ODD_BATCHES[kind](8000)
    assert batch.addrs.dtype == np.int64 and batch.writes.dtype == bool
    assert batch.addrs.flags.c_contiguous and batch.writes.flags.c_contiguous
    reference = build_system("reference", PartitionMode.SHARED)
    compiled = build_system("compiled", PartitionMode.SHARED)
    for step in range(2):
        ref = reference.execute_batch(step, 1, batch, step * 1000.0)
        assert compiled.execute_batch(step, 1, batch, step * 1000.0) == ref
    assert ref.l1_misses > 0
    assert compiled._compiled is not None  # really ran the C walker
    assert_systems_identical(reference, compiled, kind)


def test_batch_arrays_in_canonical_form_are_not_copied():
    addrs = np.arange(10, dtype=np.int64)
    writes = np.zeros(10, dtype=bool)
    batch = AccessBatch(addrs=addrs, writes=writes, instructions=10)
    assert batch.addrs is addrs and batch.writes is writes


# -- fallback observability ----------------------------------------------------


def _fallback_records(caplog):
    return [r for r in caplog.records if r.name == "repro.mem"]


@pytest.mark.skipif(not C_AVAILABLE, reason="no C compiler available")
def test_negative_owner_fallback_is_recorded_and_logged(caplog):
    mem = build_system("compiled", PartitionMode.SHARED)
    batch = AccessBatch.from_addresses([1 << 24, (1 << 24) + 64])
    with caplog.at_level(logging.WARNING, logger="repro.mem"):
        mem.execute_batch(0, 1, batch, 0.0)
        assert mem.fallback_reason is None  # still running in C
        with pytest.warns(RuntimeWarning, match="negative owner"):
            mem.execute_batch(0, -3, batch, 10.0)
        mem.execute_batch(0, -3, batch, 20.0)  # reported once only
    assert "negative owner" in mem.fallback_reason
    (record,) = _fallback_records(caplog)
    assert record.levelno == logging.WARNING
    assert mem.fallback_reason in record.getMessage()


def test_missing_c_walker_fallback_is_recorded_and_logged(
    caplog, monkeypatch
):
    monkeypatch.setattr(cwalker, "load", lambda: None)
    mem = MemorySystem(1, HierarchyConfig(engine="compiled"))
    with caplog.at_level(logging.WARNING, logger="repro.mem"):
        with pytest.warns(RuntimeWarning, match="no C walker"):
            assert not mem.segment_ready
    assert mem.fallback_reason.startswith("no C walker is available")
    (record,) = _fallback_records(caplog)
    assert mem.fallback_reason in record.getMessage()
    assert MemorySystem(1, HierarchyConfig(engine="reference")) \
        .fallback_reason is None
