"""Tests for the address-pattern construction kit."""

import numpy as np
import pytest

from repro.errors import MemoryModelError
from repro.mem.address import Region, RegionKind
from repro.mem.trace import AccessBatch
from repro.patterns import (
    memo,
    block2d,
    gather_blocks,
    loop_code,
    ring,
    stencil,
    stream,
    table_lookup,
    zipf_indices,
)


def region(size=4096, base=0x1000, kind=RegionKind.HEAP):
    return Region("r", base=base, size=size, kind=kind)


def test_stream_dense():
    batch = stream(region(), offset=0, nbytes=64, elem=4)
    assert batch.n_accesses == 16
    assert batch.addrs[0] == 0x1000
    assert batch.addrs[-1] == 0x1000 + 60
    assert not batch.writes.any()


def test_stream_strided_and_write():
    batch = stream(region(), offset=128, nbytes=256, elem=4, stride=64,
                   write=True)
    assert batch.n_accesses == 4
    assert (np.diff(batch.addrs) == 64).all()
    assert batch.writes.all()


def test_stream_bounds_checked():
    with pytest.raises(MemoryModelError):
        stream(region(size=128), offset=64, nbytes=128)
    with pytest.raises(MemoryModelError):
        stream(region(), offset=-4)


def test_ring_wraps():
    fifo_region = region(size=256)
    batch = ring(fifo_region, head=192, nbytes=128, elem=4)
    assert batch.n_accesses == 32
    assert batch.addrs.max() < fifo_region.end
    assert batch.addrs.min() >= fifo_region.base
    # Wrap: both the tail and the head of the region are touched.
    assert (batch.addrs >= fifo_region.base + 192).any()
    assert (batch.addrs < fifo_region.base + 64).any()


def test_ring_oversize_rejected():
    memo.clear()
    with pytest.raises(MemoryModelError):
        ring(region(size=128), head=0, nbytes=256)
    with pytest.raises(MemoryModelError):
        ring(region(size=128), head=0, nbytes=64, elem=0)
    with pytest.raises(MemoryModelError):
        ring(region(size=128), head=0, nbytes=-8)
    assert memo.entries() == 0  # a rejected call stores nothing


def test_loop_code_cycles_loop_body():
    code = region(size=8192, kind=RegionKind.CODE)
    batch = loop_code(code, loop_offset=0, loop_bytes=256, n_instructions=64,
                      bytes_per_instr=16)
    assert batch.instructions == 64
    assert batch.n_accesses == 64
    assert batch.addrs.max() < code.base + 256
    assert len(np.unique(batch.addrs)) == 16  # 256 / 16


def test_loop_code_bounds():
    code = region(size=512, kind=RegionKind.CODE)
    with pytest.raises(MemoryModelError):
        loop_code(code, loop_offset=0, loop_bytes=1024, n_instructions=8)
    assert loop_code(code, 0, 256, 0).n_accesses == 0


def test_block2d_rowmajor():
    batch = block2d(region(), row_stride=64, x0=2, y0=1, width=4, height=2,
                    elem=1)
    expected = [0x1000 + 64 + 2 + dx for dx in range(4)]
    expected += [0x1000 + 128 + 2 + dx for dx in range(4)]
    assert batch.addrs.tolist() == expected


def test_block2d_passes_repeat():
    one = block2d(region(), 64, 0, 0, 4, 4, passes=1)
    two = block2d(region(), 64, 0, 0, 4, 4, passes=2)
    assert two.n_accesses == 2 * one.n_accesses


def test_block2d_bounds():
    memo.clear()
    with pytest.raises(MemoryModelError):
        block2d(region(size=128), row_stride=64, x0=0, y0=1, width=65,
                height=1)
    with pytest.raises(MemoryModelError):
        block2d(region(), 64, 0, 0, 0, 4)
    with pytest.raises(MemoryModelError):
        block2d(region(), 64, 0, 0, 8, 8, passes=0)
    assert memo.entries() == 0  # a rejected call stores nothing


def test_gather_blocks_concatenates():
    batch = gather_blocks(region(), 64, [(0, 0), (8, 8)], 4, 4)
    assert batch.n_accesses == 32
    assert gather_blocks(region(), 64, [], 4, 4).n_accesses == 0
    # Equal to one block2d walk per origin, instruction counts included.
    positions = [(0, 0), (8, 8), (3, 17), (50, 2), (3, 17), (0, 40)]
    for width, height, elem, write in [(4, 4, 1, False), (17, 17, 1, False),
                                       (5, 3, 2, True)]:
        gathered = gather_blocks(region(), 64, positions, width, height,
                                 elem=elem, write=write)
        expected = AccessBatch.concat(
            block2d(region(), 64, x, y, width, height, elem=elem, write=write)
            for x, y in positions
        )
        assert np.array_equal(gathered.addrs, expected.addrs)
        assert np.array_equal(gathered.writes, expected.writes)
        assert gathered.instructions == expected.instructions
    # An out-of-range tile is named: the first one, in position order.
    with pytest.raises(MemoryModelError, match=r"block \(0,100,4x4\)"):
        gather_blocks(region(), 64, [(0, 0), (0, 100), (-1, 0)], 4, 4)
    with pytest.raises(MemoryModelError, match=r"block \(-1,0,4x4\)"):
        gather_blocks(region(), 64, [(0, 0), (-1, 0), (0, 100)], 4, 4)


def test_stencil_traffic_and_bounds():
    src = region(size=64 * 32)
    dst = Region("dst", base=0x9000, size=64 * 32, kind=RegionKind.BSS)
    batch = stencil(src, dst, row_stride=64, width=16, rows=4, taps_x=3,
                    taps_y=3, elem=1)
    # Per output row: 3 source rows of 16 reads + 16 writes.
    assert batch.n_accesses == 4 * (3 * 16 + 16)
    assert batch.instructions == 4 * 16 * 9
    assert batch.writes.sum() == 4 * 16
    with pytest.raises(MemoryModelError):
        stencil(src, dst, row_stride=64, width=16, rows=31, taps_y=3)


def test_table_lookup_within_table():
    rng = np.random.default_rng(0)
    table_region = region(size=1024, kind=RegionKind.BSS)
    batch = table_lookup(table_region, rng, n=500, entry_bytes=8,
                         table_bytes=512)
    assert batch.n_accesses == 500
    assert batch.addrs.max() < table_region.base + 512
    assert (batch.addrs - table_region.base) .min() >= 0


def test_table_lookup_zipf_is_skewed():
    rng = np.random.default_rng(1)
    idx = zipf_indices(rng, 5000, table_entries=256, skew=1.3)
    head_share = (idx < 26).mean()
    assert head_share > 0.4  # hot head
    assert idx.max() < 256 and idx.min() >= 0


def test_table_lookup_uniform_spreads():
    rng = np.random.default_rng(2)
    table_region = region(size=4096, kind=RegionKind.BSS)
    batch = table_lookup(table_region, rng, n=4000, entry_bytes=8,
                         uniform=True)
    offsets = (batch.addrs - table_region.base) // 8
    head_share = (offsets < 51).mean()
    assert head_share < 0.2


def test_zipf_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(MemoryModelError):
        zipf_indices(rng, 10, table_entries=0)
    assert zipf_indices(rng, 0, 16).shape == (0,)
