"""Contract tests for the process-wide access-batch memo."""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.cake.platform import Platform
from repro.cake.processor import CpuRunner
from repro.exp import clear_caches
from repro.exp.scenario import run_metrics_to_payload
from repro.exp.workloads import workload_builder
from repro.kpn.fifo import FifoChannel
from repro.mem.address import Region, RegionKind
from repro.patterns import loop_code, memo, stencil, stream


def region(size=1 << 16, base=0x10000):
    return Region("heap", base=base, size=size, kind=RegionKind.HEAP)


@pytest.fixture(autouse=True)
def cleared_memo():
    memo.clear()
    yield
    memo.clear()


def test_repeat_call_returns_the_stored_read_only_batch():
    first = stream(region(), 0, 512, elem=4, write=True)
    # An equal region built separately hits the same entry.
    assert stream(region(), 0, 512, elem=4, write=True) is first
    assert memo.entries() == 1
    assert memo.nbytes() == first.addrs.nbytes + first.writes.nbytes
    with pytest.raises(ValueError):
        first.addrs[0] = 0
    with pytest.raises(ValueError):
        first.writes[0] = False
    # Different arguments are a different batch.
    other = stream(region(), 0, 512, elem=8, write=True)
    assert other is not first
    assert memo.entries() == 2


def test_clear_caches_empties_the_memo():
    loop_code(region(), 0, 256, 100)
    src = region(size=64 * 32)
    dst = region(size=64 * 32, base=0x90000)
    stencil(src, dst, row_stride=64, width=16, rows=4)
    assert memo.entries() == 2 and memo.nbytes() > 0
    clear_caches()
    assert memo.entries() == 0 and memo.nbytes() == 0


def test_filling_past_the_budget_resets_and_stays_within_it():
    big = region(size=4 << 20)
    chunk = 1 << 20  # 256 Ki accesses, 2.25 MiB of arrays each
    peak_entries = 0
    reset_seen = False
    for i in range(8):  # 18 MiB of distinct batches
        before = memo.entries()
        stream(big, (i % 4) * chunk, chunk, elem=4, write=i >= 4)
        assert memo.nbytes() <= memo.BUDGET_BYTES
        peak_entries = max(peak_entries, memo.entries())
        reset_seen |= memo.entries() <= before
    assert reset_seen
    assert peak_entries >= 2
    # A batch larger than the whole budget is built but never stored.
    memo.clear()
    huge = stream(big, 0, 4 << 20, elem=4)
    assert huge.n_accesses == 1 << 20
    assert not huge.addrs.flags.writeable
    assert memo.entries() == 0 and memo.nbytes() == 0


def test_threads_building_the_same_keys_share_one_batch_per_key():
    keys = [(offset, nbytes) for offset in range(0, 4096, 256)
            for nbytes in (64, 512, 2048)]
    n_threads = 6  # more threads than cores
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads

    def build(slot):
        barrier.wait(timeout=10)
        results[slot] = [stream(region(), offset, nbytes)
                         for offset, nbytes in keys]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for batches in zip(*results):
        assert all(batch is batches[0] for batch in batches)
    for batch, (offset, nbytes) in zip(results[0], keys):
        expected = region().base + offset + np.arange(nbytes // 4) * 4
        assert np.array_equal(batch.addrs, expected)
    # A lost update to the byte count would break this sum.
    assert memo.entries() == len(keys)
    assert memo.nbytes() == sum(b.addrs.nbytes + b.writes.nbytes
                                for b in results[0])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_child_forked_while_the_lock_is_held_can_still_insert():
    with memo._lock:
        pid = os.fork()
        if pid == 0:  # child: build and store one batch, then leave
            os._exit(0 if stream(region(), 0, 64) is stream(region(), 0, 64)
                     else 1)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.01)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("forked child blocked on the memo lock")
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_warm_memo_run_is_bit_identical_and_reuses_stored_batches(
        engine, monkeypatch):
    built = []

    def recording(kind, builder):
        def wrapper(*args, **kwargs):
            batch = builder(*args, **kwargs)
            built[-1].append((kind, batch))
            return batch
        return wrapper

    for attr in ("read_batch", "write_batch"):
        monkeypatch.setattr(FifoChannel, attr,
                            recording("fifo", getattr(FifoChannel, attr)))
    monkeypatch.setattr(CpuRunner, "_switch_batch", staticmethod(
        recording("switch", CpuRunner._switch_batch)))

    def run():
        built.append([])
        network = workload_builder("two_jpeg_canny", scale="test", frames=1)()
        return run_metrics_to_payload(Platform(network, engine=engine).run())

    # Every batch freshly built: the result an aliasing bug would change.
    with monkeypatch.context() as patch:
        patch.setattr(memo, "_store", lambda key, batch: batch)
        unshared = run()
    assert memo.entries() == 0
    built.clear()
    payloads = [run(), run()]
    cold, warm = built
    assert payloads[0] == payloads[1] == unshared
    assert {kind for kind, _ in cold} == {"fifo", "switch"}
    assert len(warm) == len(cold)
    stored = {id(batch) for _, batch in cold}
    assert all(id(batch) in stored for _, batch in warm)
