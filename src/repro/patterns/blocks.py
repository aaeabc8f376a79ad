"""2-D block (tile) access patterns.

These model the blocked data movement of transform coders: an 8x8 IDCT
reads a block row-wise several times (row pass, column pass), a motion
compensator gathers prediction blocks from arbitrary positions inside a
reference frame.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.errors import MemoryModelError
from repro.mem.address import Region
from repro.mem.trace import AccessBatch
from repro.patterns.memo import memoized

__all__ = ["block2d", "gather_blocks"]


def _tile_offsets(row_stride: int, width: int, height: int, elem: int) -> np.ndarray:
    """Row-major byte offsets of a ``width x height`` tile from its origin."""
    if width <= 0 or height <= 0:
        raise MemoryModelError("block dimensions must be positive")
    cols = np.arange(width, dtype=np.int64) * elem
    rows = np.arange(height, dtype=np.int64) * row_stride
    return (rows[:, None] + cols[None, :]).ravel()


@memoized
def block2d(
    region: Region,
    row_stride: int,
    x0: int,
    y0: int,
    width: int,
    height: int,
    elem: int = 1,
    write: bool = False,
    passes: int = 1,
    instructions: Optional[int] = None,
) -> AccessBatch:
    """Row-major walk of a ``width x height`` tile at ``(x0, y0)``.

    ``row_stride`` is the byte distance between consecutive rows of the
    underlying 2-D array; ``elem`` the bytes touched per element.
    ``passes`` repeats the walk (e.g. separable transforms touch the
    block twice).
    """
    if passes < 1:
        raise MemoryModelError(f"block passes must be at least 1, got {passes}")
    tile = _tile_offsets(row_stride, width, height, elem)
    last_byte = (y0 + height - 1) * row_stride + (x0 + width) * elem
    if x0 < 0 or y0 < 0 or last_byte > region.size:
        raise MemoryModelError(
            f"block ({x0},{y0},{width}x{height}) outside region {region.name!r}"
        )
    if passes > 1:
        tile = np.tile(tile, passes)
    addrs = region.base + y0 * row_stride + x0 * elem + tile
    return AccessBatch.from_addresses(addrs, writes=write, instructions=instructions)


def gather_blocks(
    region: Region,
    row_stride: int,
    positions: Iterable[Tuple[int, int]],
    width: int,
    height: int,
    elem: int = 1,
    write: bool = False,
) -> AccessBatch:
    """Fetch several tiles (motion-compensation style).

    ``positions`` is an iterable of ``(x, y)`` block origins -- for a
    motion compensator these are the motion-vector-displaced positions
    in the reference frame.  The result equals the concatenation of one
    :func:`block2d` walk per origin, instruction counts included.
    """
    origins = np.array(list(positions), dtype=np.int64).reshape(-1, 2)
    if origins.shape[0] == 0:
        return AccessBatch.empty()
    tile = _tile_offsets(row_stride, width, height, elem)
    xs, ys = origins[:, 0], origins[:, 1]
    last_byte = (ys + height - 1) * row_stride + (xs + width) * elem
    bad = np.flatnonzero((xs < 0) | (ys < 0) | (last_byte > region.size))
    if bad.size:
        x0, y0 = origins[bad[0]].tolist()
        raise MemoryModelError(
            f"block ({x0},{y0},{width}x{height}) outside region {region.name!r}"
        )
    starts = region.base + ys * row_stride + xs * elem
    addrs = (starts[:, None] + tile[None, :]).ravel()
    instructions = origins.shape[0] * AccessBatch.default_instructions(tile.shape[0])
    return AccessBatch.from_addresses(addrs, writes=write, instructions=instructions)
