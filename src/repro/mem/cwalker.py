"""On-demand C backend of the compiled hierarchy engine.

The per-run walk of :mod:`repro.mem.hierarchy` is bound by the
interpreter, not by the data structures -- even a fully inlined Python
loop costs a couple of microseconds per run.  This module compiles the
equivalent C routines (``_walker.c``, shipped next to this file) with
the system compiler the first time they are needed and binds them
through :mod:`ctypes`.  No compiler, a failed compilation or an
unwritable build directory simply mean :func:`load` returns ``None``;
the compiled engine then runs the reference walk and says so with a
:class:`RuntimeWarning`.

The compiled object is cached under ``<package>/_build/`` keyed by the
source content hash, so recompilation happens only when ``_walker.c``
changes.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sysconfig
from typing import Optional

__all__ = ["load", "FLAG_L1_MISS", "FLAG_L2_DEMAND_MISS", "FLAG_L1_EVICT",
           "FLAG_L2_EVICT", "FLAG_L1_WB", "FLAG_L2_WB",
           "FLAG_L2_PROBE_MISS", "ENTRY_COMPUTE", "ENTRY_DELAY",
           "ENTRY_SWITCH", "L2_MODE_LRU", "L2_MODE_FIFO", "L2_MODE_WAY"]

#: Flag bits emitted per run; must match ``_walker.c``.
FLAG_L1_MISS = 1
FLAG_L2_DEMAND_MISS = 2
FLAG_L1_EVICT = 4
FLAG_L2_EVICT = 8
FLAG_L1_WB = 16
FLAG_L2_WB = 32
FLAG_L2_PROBE_MISS = 64

_SOURCE = os.path.join(os.path.dirname(__file__), "_walker.c")
_BUILD_DIR = os.path.join(os.path.dirname(__file__), "_build")

_walker = None
_load_attempted = False


def _find_compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _compile() -> Optional[str]:
    """Compile ``_walker.c``; returns the shared-object path or ``None``."""
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    so_path = os.path.join(_BUILD_DIR, f"_walker_{digest}{suffix}")
    if os.path.exists(so_path):
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        return None
    try:
        os.makedirs(_BUILD_DIR, exist_ok=True)
        tmp_path = so_path + f".tmp{os.getpid()}"
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", tmp_path, _SOURCE,
             "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_path, so_path)  # atomic wrt concurrent builders
    except (OSError, subprocess.SubprocessError):
        return None
    return so_path


#: Schedule-entry kinds accepted by ``walk_segment``; must match
#: ``_walker.c``.
ENTRY_COMPUTE = 0
ENTRY_DELAY = 1
ENTRY_SWITCH = 2

#: L2 organisations of the persistent state handle.
L2_MODE_LRU = 0
L2_MODE_FIFO = 1
L2_MODE_WAY = 2


class CWalker:
    """Bound routines of the compiled walker library.

    ``state_new`` / ``state_free`` / ``walk_segment`` are the compiled
    engine's persistent-handle API (see :mod:`repro.mem.hierarchy`);
    ``first_occurrence`` serves its cold-miss classification.
    """

    def __init__(self, first_occurrence, state_new, state_free,
                 walk_segment):
        self.first_occurrence = first_occurrence
        self.state_new = state_new
        self.state_free = state_free
        self.walk_segment = walk_segment


def load() -> Optional[CWalker]:
    """The bound :class:`CWalker`, or ``None`` when unavailable.

    The first call pays the (cached) compilation; later calls return
    the memoised binding.
    """
    global _walker, _load_attempted
    if _load_attempted:
        return _walker
    _load_attempted = True
    so_path = _compile()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        first = lib.first_occurrence
        state_new = lib.walker_state_new
        state_free = lib.walker_state_free
        segment = lib.walk_segment
    except (OSError, AttributeError):
        return None
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    first.restype = ctypes.c_int
    first.argtypes = [ctypes.c_void_p, i64, ctypes.c_void_p]
    # Pointer arguments are declared as c_void_p and passed as raw
    # ``ndarray.ctypes.data`` integers: the segment walker runs per
    # schedule step, where building typed ctypes pointers per argument
    # measurably dominates small calls.
    ptr = ctypes.c_void_p
    state_new.restype = ctypes.c_void_p
    state_new.argtypes = [
        i64,                        # n_cpus
        i64, i64,                   # l1 sets/ways
        ptr, ptr, ptr, ptr,         # L1 lines/owners/dirty/len (all cpus)
        i64, i64, i64,              # l2 sets/ways/mode
        ptr, ptr, ptr, ptr,         # L2 lines/owners/dirty/len
        ptr, ptr,                   # l2 stamps, way clock slot
        i64, i64, i64, i64, ptr,    # bank mask/busy/access/penalty, banks
        i64, f64, f64, f64,         # bus transfer/lines-per-cycle/decay/cap
        ptr, ptr,                   # bus demand / last-update
        ptr, ptr,                   # bus transfers / surcharge totals
        f64, i64,                   # issue_cpi, l2_hit_cycles
    ]
    state_free.restype = None
    state_free.argtypes = [ctypes.c_void_p]
    segment.restype = i64
    segment.argtypes = [
        ctypes.c_void_p,            # state
        i64,                        # n_entries
        ptr, ptr,                   # entry kind / cpu
        ptr, ptr,                   # entry run ranges [start, end)
        ptr, ptr,                   # entry instructions / fixed advance
        ptr, ptr, ptr,              # lines, l1_idx, l2_idx
        ptr, ptr,                   # write_any, store_fill
        ptr,                        # run_owners
        i64, i64,                   # use_table, n_table
        ptr, ptr, ptr,              # table base/size/pow2
        ptr, i64,                   # way allocation table, way_rows
        f64, f64,                   # now, horizon
        i64, i64,                   # quantum, use_quantum
        ptr, ptr, ptr,              # flags, l1/l2 victim owners
        ptr, ptr, ptr,              # per-entry cycles/l1_misses/l2_misses
        ptr, ptr, ptr,              # per-entry dram_lines/bus/store_fills
        ptr,                        # counters[3]
    ]
    _walker = CWalker(first, state_new, state_free, segment)
    return _walker
