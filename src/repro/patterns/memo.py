"""Process-wide memo of RNG-free access batches.

A task of a Kahn process network rebuilds the same batches over and
over: the same IDCT block walk, stencil rows, loop fetch and FIFO
transfer every strip, in every platform run of a scenario.  Builders
whose result is a pure function of their arguments are wrapped in
:func:`memoized`, so a repeat call returns the stored batch instead of
allocating a new one.

Stored batches are shared, so their arrays are read-only: an attempt to
mutate one raises ``ValueError``.  The table holds at most
:data:`BUDGET_BYTES` of batch arrays; an insert that would exceed the
budget drops the whole table first (long-lived sweep workers keep
building new layouts).  Hits are a lock-free ``dict.get``; inserts and
resets take a lock, as the sweep service runs worker threads.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Callable, Dict, Tuple

from repro.mem.trace import AccessBatch

__all__ = ["BUDGET_BYTES", "clear", "entries", "memoized", "nbytes"]

#: Bytes of batch arrays the memo may hold.
BUDGET_BYTES = 8 << 20

_table: Dict[Tuple, AccessBatch] = {}
_bytes = 0
_lock = threading.Lock()


def _new_lock_in_child() -> None:
    # The runner forks worker pools while sweep-service threads may hold
    # the lock; a forked child would otherwise block on its first insert.
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_lock_in_child)


def _freeze(batch: AccessBatch) -> AccessBatch:
    batch.addrs.flags.writeable = False
    batch.writes.flags.writeable = False
    return batch


def _store(key: Tuple, batch: AccessBatch) -> AccessBatch:
    """Insert ``batch`` unless another thread won; return the stored one."""
    global _bytes
    size = batch.addrs.nbytes + batch.writes.nbytes
    if size > BUDGET_BYTES:
        return batch
    with _lock:
        stored = _table.get(key)
        if stored is not None:
            return stored
        if _bytes + size > BUDGET_BYTES:
            _table.clear()
            _bytes = 0
        _table[key] = batch
        _bytes += size
    return batch


def memoized(builder: Callable[..., AccessBatch]) -> Callable[..., AccessBatch]:
    """Memoise an RNG-free batch builder by ``(builder, args, kwargs)``.

    Every result is read-only, stored or not; a call that raises stores
    nothing.  Arguments must be hashable (``Region`` is).
    """

    @functools.wraps(builder)
    def wrapper(*args, **kwargs) -> AccessBatch:
        key = (builder, args, tuple(kwargs.items()))
        hit = _table.get(key)
        if hit is not None:
            return hit
        return _store(key, _freeze(builder(*args, **kwargs)))

    return wrapper


def clear() -> None:
    """Drop every stored batch."""
    global _bytes
    with _lock:
        _table.clear()
        _bytes = 0


def entries() -> int:
    """Number of stored batches."""
    return len(_table)


def nbytes() -> int:
    """Bytes of batch arrays currently stored."""
    return _bytes
