"""Profiling as independent columns: validation, merge, fan-out parity.

A sweep is one platform run per ``(size, repeat)`` column, merged in
``(size, repeat)`` order.  The contracts:

- a bad sweep (empty or non-integer sizes, a zero size, zero repeats)
  is rejected *before* a pass is counted or a platform is built;
- the merged profile is byte-identical (``profile_to_payload``) to the
  serial :func:`profile_miss_curves`, whatever order the columns
  complete in and whichever runner backend measured them;
- one cold profile key costs exactly one profiling pass, a warm one
  none.
"""

import json
import multiprocessing
import random

import pytest

import repro.core.profiling as profiling
import repro.exp.runner as runner_module
from repro.analysis.export import profile_to_payload
from repro.cake import CakeConfig
from repro.core import MethodConfig
from repro.core.profiling import (
    merge_profile_columns,
    profile_column,
    profile_miss_curves,
    profiling_passes,
)
from repro.errors import OptimizationError
from repro.exp import (
    ExperimentRunner,
    ProfileCache,
    Scenario,
    WorkloadSpec,
    clear_caches,
)
from repro.exp.cache import KIND_PROFILE
from repro.mem.cache import CacheGeometry
from repro.mem.hierarchy import HierarchyConfig

SIZES = [1, 3]
REPEATS = 2


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def small_cake():
    return CakeConfig(
        n_cpus=2,
        hierarchy=HierarchyConfig(
            l1_geometry=CacheGeometry(sets=16, ways=2, line_size=64),
            l2_geometry=CacheGeometry(sets=1024, ways=4, line_size=64),
        ),
    )


def scenario():
    """A seed-sensitive workload (repeats differ), non-default sizes."""
    return Scenario(
        workload=WorkloadSpec("two_jpeg_canny", {"scale": "test"}),
        cake=small_cake(),
        method=MethodConfig(sizes=SIZES, profile_repeats=REPEATS),
    )


def as_bytes(profile):
    return json.dumps(profile_to_payload(profile))


def serial_profile(spec):
    return profile_miss_curves(
        spec.workload.build(), spec.effective_cake, sizes=SIZES,
        fifo_policy=spec.method.fifo_policy, repeats=REPEATS,
    )


def measured_columns(spec):
    return [
        ((size, repeat), profile_column(
            spec.workload.build(), spec.effective_cake, size, repeat,
            spec.method.fifo_policy,
        ))
        for size in SIZES
        for repeat in range(REPEATS)
    ]


# -- a bad sweep is rejected before it is counted ------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [{"sizes": []}, {"sizes": [0, 1]}, {"sizes": [1.7, 2]}, {"repeats": 0}],
    ids=["empty-sizes", "zero-size", "fractional-size", "zero-repeats"],
)
def test_bad_sweep_is_rejected_before_counting(kwargs, monkeypatch):
    def no_platform(*_args, **_kwargs):
        raise AssertionError("a rejected sweep must not build a platform")

    monkeypatch.setattr(profiling, "Platform", no_platform)
    built = []
    spec = scenario()
    build = spec.workload.build()

    def builder():
        built.append(True)
        return build()

    before = profiling_passes()
    with pytest.raises(OptimizationError):
        profile_miss_curves(builder, spec.effective_cake, **kwargs)
    assert profiling_passes() == before
    assert built == []


# -- the merge ---------------------------------------------------------------


def test_merge_ignores_column_completion_order():
    spec = scenario()
    columns = measured_columns(spec)
    expected = as_bytes(serial_profile(spec))
    assert as_bytes(merge_profile_columns(dict(columns))) == expected
    for seed in range(4):
        shuffled = list(columns)
        random.Random(seed).shuffle(shuffled)
        assert as_bytes(merge_profile_columns(dict(shuffled))) == expected


def test_merge_keeps_repeat_order_and_the_last_runs_instructions():
    spec = scenario()
    columns = dict(measured_columns(spec))
    merged = merge_profile_columns(columns)
    last = columns[(SIZES[-1], REPEATS - 1)]
    assert merged.instructions == last.instructions
    assert merged.sizes == SIZES
    for item, curve in merged.curves.items():
        for size in SIZES:
            runs = [columns[(size, repeat)] for repeat in range(REPEATS)]
            assert curve._samples[size] == [
                run.curves[item].mean(size) for run in runs
            ]
            total = 0.0
            for run in runs:
                total += run.accesses[item][size] / REPEATS
            assert merged.accesses[item][size] == total
    # The workload is seed-sensitive, so repeats are not mere copies.
    assert any(
        len(set(curve._samples[size])) > 1
        for curve in merged.curves.values()
        for size in SIZES
    )


def test_merge_rejects_an_incomplete_column_set():
    columns = dict(measured_columns(scenario()))
    del columns[(SIZES[0], 1)]
    with pytest.raises(OptimizationError):
        merge_profile_columns(columns)
    with pytest.raises(OptimizationError):
        merge_profile_columns({})


# -- fan-out parity across backends --------------------------------------------


@pytest.mark.parametrize("backend", ["inline", "pool", "async"])
def test_fanned_out_profile_matches_the_serial_sweep(backend, tmp_path):
    spec = scenario()
    expected = serial_profile(spec)
    clear_caches()
    runner = ExperimentRunner(workers=2, backend=backend, cache=str(tmp_path))
    runner.run([spec])
    assert runner.last_stats["profiles_computed"] == 1
    memo = runner_module._PROFILE_CACHE[spec.profile_key]
    assert as_bytes(memo) == as_bytes(expected)
    on_disk = ProfileCache(tmp_path).get(KIND_PROFILE, spec.profile_key)
    assert json.dumps(on_disk, sort_keys=True) == \
        json.dumps(profile_to_payload(expected), sort_keys=True)


# -- one profiling pass per key ------------------------------------------------


@pytest.mark.parametrize("backend", ["inline", "async"])
def test_in_process_backends_count_one_pass_per_key(backend, tmp_path):
    spec = scenario()
    runner = ExperimentRunner(workers=2, backend=backend, cache=str(tmp_path))
    before = profiling_passes()
    runner.run([spec])
    assert profiling_passes() - before == 1  # cold
    before = profiling_passes()
    runner.run([spec])
    assert profiling_passes() - before == 0  # warm memo
    clear_caches()
    before = profiling_passes()
    runner.run([spec])
    assert profiling_passes() - before == 0  # warm disk


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="counts through a fork-inherited seam",
)
def test_pool_workers_count_one_pass_per_key(monkeypatch):
    """Columns run in pool workers; only the first column's counts."""
    counted = multiprocessing.get_context("fork").Value("q", 0)

    def counting(_scenario):
        with counted.get_lock():
            counted.value += 1

    monkeypatch.setattr(runner_module, "_count_profile", counting)
    spec = scenario()
    runner = ExperimentRunner(workers=2)
    runner.run([spec])
    assert counted.value == 1
    runner.run([spec])
    assert counted.value == 1
