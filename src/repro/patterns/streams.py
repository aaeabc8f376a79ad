"""Sequential, strided, ring-buffer and instruction-fetch patterns."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import MemoryModelError
from repro.mem.address import Region
from repro.mem.trace import AccessBatch
from repro.patterns.memo import memoized

__all__ = ["loop_code", "ring", "ring_addresses", "stream"]


@memoized
def stream(
    region: Region,
    offset: int = 0,
    nbytes: Optional[int] = None,
    elem: int = 4,
    stride: Optional[int] = None,
    write: bool = False,
    instructions: Optional[int] = None,
) -> AccessBatch:
    """Sequential (or strided) walk over ``nbytes`` of ``region``.

    ``elem`` is the element size touched at each step; ``stride``
    defaults to ``elem`` (dense streaming).  The walk must stay inside
    the region.
    """
    if nbytes is None:
        nbytes = region.size - offset
    if nbytes < 0 or offset < 0 or offset + nbytes > region.size:
        raise MemoryModelError(
            f"stream [{offset}, {offset + nbytes}) outside region {region.name!r}"
        )
    if elem <= 0:
        raise MemoryModelError("elem must be positive")
    step = stride if stride is not None else elem
    if step <= 0:
        raise MemoryModelError("stride must be positive")
    n = max(0, nbytes) // step
    addrs = region.base + offset + np.arange(n, dtype=np.int64) * step
    return AccessBatch.from_addresses(addrs, writes=write, instructions=instructions)


def ring_addresses(region: Region, head: int, nbytes: int, elem: int) -> np.ndarray:
    """Addresses of an ``nbytes`` walk from ``head`` with wrap-around."""
    size = region.size
    if nbytes < 0 or nbytes > size:
        raise MemoryModelError(
            f"ring access of {nbytes} bytes outside region {region.name!r}"
        )
    if elem <= 0:
        raise MemoryModelError("elem must be positive")
    offsets = (head % size + np.arange(nbytes // elem, dtype=np.int64) * elem) % size
    return region.base + offsets


@memoized
def ring(
    region: Region,
    head: int,
    nbytes: int,
    elem: int = 4,
    write: bool = False,
    instructions: Optional[int] = None,
) -> AccessBatch:
    """Walk ``nbytes`` starting at ``head`` with wrap-around.

    Used for FIFO payloads: the FIFO's ring buffer occupies the whole
    region and ``head`` is the current read or write pointer.
    """
    addrs = ring_addresses(region, head, nbytes, elem)
    return AccessBatch.from_addresses(addrs, writes=write, instructions=instructions)


@memoized
def loop_code(
    region: Region,
    loop_offset: int,
    loop_bytes: int,
    n_instructions: int,
    bytes_per_instr: int = 16,
) -> AccessBatch:
    """Instruction fetch of a loop body.

    Walks ``loop_bytes`` of the code region cyclically until
    ``n_instructions`` instructions have been fetched.  The returned
    batch carries ``instructions=n_instructions`` (the caller should not
    add a separate instruction count for the same work).

    Fetches are modelled at one access per instruction word;
    ``bytes_per_instr`` approximates the (compressed) VLIW instruction
    size.
    """
    if loop_bytes <= 0 or loop_offset < 0 or loop_offset + loop_bytes > region.size:
        raise MemoryModelError(
            f"loop [{loop_offset}, {loop_offset + loop_bytes}) outside "
            f"code region {region.name!r}"
        )
    if n_instructions <= 0:
        return AccessBatch.empty()
    offsets = (
        np.arange(n_instructions, dtype=np.int64) * bytes_per_instr
    ) % loop_bytes
    addrs = region.base + loop_offset + offsets
    return AccessBatch.from_addresses(
        addrs, writes=False, instructions=n_instructions
    )
