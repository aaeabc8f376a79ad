"""On-demand C backend of the compiled hierarchy engine.

The per-run walk of :mod:`repro.mem.hierarchy` is bound by the
interpreter, not by the data structures -- even a fully inlined Python
loop costs a couple of microseconds per run.  This module compiles the
equivalent C routines (``_walker.c``, shipped next to this file) with
the system compiler the first time they are needed and binds them
through :mod:`ctypes`.  No compiler, a failed compilation or an
unwritable build directory simply mean :func:`load` returns ``None``
and :func:`load_error` keeps the reason; the compiled engine then runs
the reference walk and says so, reason included, with a
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

__all__ = ["load", "load_error", "ENTRY_COMPUTE", "ENTRY_DELAY",
           "ENTRY_SWITCH", "L2_MODE_LRU", "L2_MODE_FIFO", "L2_MODE_WAY"]

_SOURCE = os.path.join(os.path.dirname(__file__), "_walker.c")
_BUILD_DIR = os.path.join(os.path.dirname(__file__), "_build")
#: Characters of compiler stderr kept in a failure reason.
_STDERR_TAIL = 400

_walker = None
_load_attempted = False
#: Why the last :func:`load` came back empty (``None`` after a success).
_load_error: Optional[str] = None


def _find_compiler() -> Optional[str]:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def load_error() -> Optional[str]:
    """Why the C walker is unavailable, or ``None`` if it loaded.

    Names the missing compiler, or the failed compile with the tail of
    its stderr; the compiled engine quotes it in its fallback warning.
    """
    return _load_error


def _compile() -> Optional[str]:
    """Compile ``_walker.c``; returns the shared-object path or ``None``.

    On failure the reason is kept for :func:`load_error`.
    """
    global _load_error
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
    except OSError as exc:
        _load_error = f"cannot read {_SOURCE}: {exc}"
        return None
    digest = hashlib.sha256(source).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    so_path = os.path.join(_BUILD_DIR, f"_walker_{digest}{suffix}")
    if os.path.exists(so_path):
        return so_path
    compiler = _find_compiler()
    if compiler is None:
        _load_error = "no C compiler found ($CC, cc, gcc, clang)"
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
    except subprocess.CalledProcessError as exc:
        stderr = exc.stderr.decode("utf-8", "replace").strip()
        _load_error = (
            f"{compiler} exited with status {exc.returncode}: "
            f"{stderr[-_STDERR_TAIL:] or '(no output)'}"
        )
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        _load_error = f"building with {compiler} failed: {exc}"
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

#: Per-owner counter rows of a statistics block (then the evictor x
#: victim matrix); must match ``STAT_*`` in ``_walker.c``.
STAT_ACCESSES, STAT_MISSES, STAT_COLD, STAT_WRITEBACKS, STAT_EVICTED = \
    range(5)
STAT_ROWS = 5

#: ``walk_segment``'s refusal of a negative owner id (nothing walked);
#: must match ``_walker.c``.  Any other negative return means the handle
#: could not grow its run buffer or statistics for the segment.
WALK_NEGATIVE_OWNER = -1


class CWalker:
    """Bound routines of the compiled walker library.

    The compiled engine's persistent-handle API (see
    :mod:`repro.mem.hierarchy`): ``state_new`` / ``state_free`` build
    and free a handle, ``walk_segment`` walks a schedule segment, and
    ``seen_import`` / ``seen_drain`` / ``stats`` move the per-level
    cold-miss sets and per-owner statistics across the boundary.
    """

    def __init__(self, state_new, state_free, walk_segment, seen_import,
                 seen_drain, stats):
        self.state_new = state_new
        self.state_free = state_free
        self.walk_segment = walk_segment
        self.seen_import = seen_import
        self.seen_drain = seen_drain
        self.stats = stats


def load() -> Optional[CWalker]:
    """The bound :class:`CWalker`, or ``None`` when unavailable.

    The first call pays the (cached) compilation; later calls return
    the memoised binding.  :func:`load_error` says why it is ``None``.
    """
    global _walker, _load_attempted, _load_error
    if _load_attempted:
        return _walker
    _load_attempted = True
    _load_error = None
    so_path = _compile()
    if so_path is None:
        return None
    try:
        lib = ctypes.CDLL(so_path)
        state_new = lib.walker_state_new
        state_free = lib.walker_state_free
        segment = lib.walk_segment
        seen_import = lib.walker_seen_import
        seen_drain = lib.walker_seen_drain
        stats = lib.walker_stats
    except (OSError, AttributeError) as exc:
        _load_error = f"cannot load {so_path}: {exc}"
        return None
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
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
        i64, i64,                   # full_line_count, line_shift
    ]
    state_free.restype = None
    state_free.argtypes = [ctypes.c_void_p]
    segment.restype = i64
    segment.argtypes = [
        ctypes.c_void_p,            # state
        i64,                        # n_entries
        ptr, ptr,                   # entry kind / cpu
        ptr, ptr,                   # entry task owner / access count
        ptr, ptr,                   # entry address / store-flag pointers
        ptr, ptr,                   # entry instructions / fixed advance
        i64, ptr, ptr, ptr,         # interval count, bases/ends/owners
        i64, i64,                   # use_table, n_table
        ptr, ptr, ptr,              # table base/size/pow2
        ptr, i64,                   # way allocation table, way_rows
        f64, f64,                   # now, horizon
        i64, i64,                   # quantum, use_quantum
        ptr, ptr, ptr,              # per-entry cycles/l1_misses/l2_misses
        ptr, ptr, ptr,              # per-entry dram_lines/bus/store_fills
        ptr,                        # counters[3]
    ]
    seen_import.restype = ctypes.c_int
    seen_import.argtypes = [ctypes.c_void_p, i64, ptr, i64]
    seen_drain.restype = ctypes.c_void_p
    seen_drain.argtypes = [ctypes.c_void_p, i64, ctypes.POINTER(i64)]
    stats.restype = ctypes.c_void_p
    stats.argtypes = [ctypes.c_void_p, ctypes.POINTER(i64)]
    _walker = CWalker(state_new, state_free, segment, seen_import,
                      seen_drain, stats)
    return _walker
