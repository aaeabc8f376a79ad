"""Address-pattern construction kit.

Task programs describe their memory behaviour as compositions of a small
number of archetypal access patterns, each returning an
:class:`~repro.mem.trace.AccessBatch`:

- :func:`~repro.patterns.streams.stream` -- sequential/strided streaming
  (FIFO payloads, raster scans, frame writes).
- :func:`~repro.patterns.streams.ring` -- streaming through a ring
  buffer with wrap-around (FIFO data).
- :func:`~repro.patterns.blocks.block2d` -- 2-D tile walks (8x8 IDCT
  blocks, macroblocks).
- :func:`~repro.patterns.stencil.stencil` -- neighbourhood convolutions
  (Gaussian low-pass, Sobel operators, non-maximum suppression).
- :func:`~repro.patterns.tables.table_lookup` -- data-dependent lookups
  (Huffman/VLD decoding, quantisation tables), with uniform or Zipf
  index distributions.
- :func:`~repro.patterns.streams.loop_code` -- instruction fetch of a
  loop body walking a code region.

The patterns are what makes the synthetic workloads *address-accurate*
stand-ins for the real binaries (see DESIGN.md, substitution table).

Batch reuse: ``stream``, ``ring``, ``loop_code``, ``block2d`` and
``stencil`` are pure functions of their arguments, so they go through
the process-wide memo of :mod:`repro.patterns.memo` (as do the FIFO
transfer and context-switch batches).  A repeat call returns the stored
batch, shared by every caller, so its arrays are read-only: never mutate
a batch, build a new one.  ``table_lookup`` and ``gather_blocks`` are not
memoised, because their indices and tile origins come from the calling
task's RNG stream.
"""

from repro.patterns.blocks import block2d, gather_blocks
from repro.patterns.stencil import stencil
from repro.patterns.streams import loop_code, ring, stream
from repro.patterns.tables import table_lookup, zipf_indices

__all__ = [
    "block2d",
    "gather_blocks",
    "loop_code",
    "ring",
    "stencil",
    "stream",
    "table_lookup",
    "zipf_indices",
]
