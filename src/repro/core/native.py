"""The native sweep kernel: ``_sweep.c`` built on first use, via ctypes.

:func:`bind` returns a :class:`NativeSweep` for one sweep phase, or
``None`` when the kernel cannot load, in which case the caller runs
:func:`~repro.core.modified_dijkstra.modified_dijkstra_sssp` instead.
Both compute the same rows and the same per-source ``OpCounts``.
:func:`sweep_rows` runs FIFO sweeps into a block of rows, flagless or
merging a block of finished hub rows, the kernel behind
:func:`~repro.core.dijkstra.dijkstra_rows`.

The library is compiled with the system ``cc`` the first time a sweep
asks for it — never at ``import repro`` — into
``$XDG_CACHE_HOME/repro-apsp/`` (``~/.cache`` by default; the system
temp directory if that is not writable), keyed by the sha256 of the
source and the compiler flags.  A build writes a private temporary
file and renames it into place, so concurrent first loads, in threads
or processes, end with one complete library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import threading
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import AlgorithmError
from ..obs import metrics as _obs
from ..types import OpCounts

__all__ = [
    "NativeSweep", "bind", "kernel_name", "load", "simd_name", "sweep_rows",
]

SOURCE = Path(__file__).with_name("_sweep.c")
CFLAGS = ("-O2", "-ftree-vectorize", "-shared", "-fPIC")
#: per-source count slots, in ``_sweep.c``'s order: the six
#: ``OpCounts`` fields, then merge improved/noop, relax calls/empty and
#: the queue peak (the source hash keys the build, so they cannot drift)
NCOUNTS = 11

_lock = threading.Lock()
#: ``(library, reason)`` once the first load has been tried
_loaded: Optional[Tuple[Optional[ctypes.CDLL], str]] = None


class _Ctx(ctypes.Structure):
    _fields_ = [
        ("indptr", ctypes.c_void_p),
        ("indices", ctypes.c_void_p),
        ("weights", ctypes.c_void_p),
        ("dist", ctypes.c_void_p),
        ("flag", ctypes.c_void_p),
        ("completed_at", ctypes.c_void_p),
        ("counts", ctypes.c_void_p),
        ("n", ctypes.c_int64),
        ("heap", ctypes.c_int32),
        ("use_flags", ctypes.c_int32),
        ("hub", ctypes.c_void_p),
        ("slot", ctypes.c_void_p),
    ]


def _cache_dirs() -> List[Path]:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache")
    return [Path(base) / "repro-apsp", Path(tempfile.gettempdir()) / "repro-apsp"]


def _build(directory: Path, compiler: str) -> Path:
    """Compile into ``directory`` unless the keyed library is there."""
    import subprocess

    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()[:16]
    target = directory / f"_sweep-{key}.so"
    if target.exists():
        return target
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *CFLAGS, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _open(path: Path) -> ctypes.CDLL:
    lib = ctypes.CDLL(str(path))
    lib.repro_sweep.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_double,
    ]
    lib.repro_sweep.restype = ctypes.c_int
    lib.repro_sweep_claims.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64,
    ]
    lib.repro_sweep_claims.restype = ctypes.c_int64
    lib.repro_sweep_rows.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
    ]
    lib.repro_sweep_rows.restype = ctypes.c_int
    lib.repro_sweep_scratch_new.argtypes = [ctypes.c_int64]
    lib.repro_sweep_scratch_new.restype = ctypes.c_void_p
    lib.repro_sweep_scratch_free.argtypes = [ctypes.c_void_p]
    lib.repro_sweep_scratch_free.restype = None
    lib.repro_sweep_simd.argtypes = []
    lib.repro_sweep_simd.restype = ctypes.c_char_p
    return lib


def _compiler() -> Optional[str]:
    return shutil.which("cc")


def _try_load() -> Tuple[Optional[ctypes.CDLL], str]:
    compiler = _compiler()
    if compiler is None:
        return None, "python (no C compiler)"
    failure = "python (kernel build failed)"
    for directory in _cache_dirs():
        try:
            return _open(_build(directory, compiler)), "native"
        except Exception as exc:  # noqa: BLE001 — any failure falls back
            failure = f"python (kernel build failed: {type(exc).__name__})"
    return None, failure


def load() -> Tuple[Optional[ctypes.CDLL], str]:
    """The kernel library (or ``None``) and the sweep kernel's name."""
    global _loaded
    with _lock:
        if _loaded is None:
            _loaded = _try_load()
        return _loaded


def kernel_name() -> str:
    """``"native"``, or ``"python (<why the kernel did not load>)"``."""
    return load()[1]


def simd_name() -> Optional[str]:
    """The row merge's instruction set in the loaded kernel: ``"avx2"``
    where this CPU runs the AVX2 clone, else ``"scalar"``; ``None`` when
    the kernel did not load."""
    lib, _ = load()
    return None if lib is None else lib.repro_sweep_simd().decode()


class NativeSweep:
    """One sweep phase bound to the kernel: pointers and per-worker
    scratch are set up once.  Calling it sweeps one source;
    :meth:`sweep_claims` runs a worker's whole claim loop in one foreign
    call.  Each worker index must be used by one thread at a time."""

    def __init__(self, lib, graph, state, *, queue: str, use_flags: bool,
                 workers: int = 1, completed_at: Optional[np.ndarray] = None):
        if queue not in ("fifo", "heap"):
            raise AlgorithmError(f"unknown queue discipline {queue!r}")
        n = state.n
        self.queue = queue
        self.counts = np.zeros((n, NCOUNTS), dtype=np.int64)
        # C-contiguous by construction (CSRGraph, new_state); kept
        # alive as long as the binding
        self._arrays = (graph.indptr, graph.indices, graph.weights,
                        state.dist, state.flag, completed_at, self.counts)
        self._ctx = _Ctx(
            *(a.ctypes.data if a is not None else None for a in self._arrays),
            n, queue == "heap", bool(use_flags),
        )
        self._ctx_ref = ctypes.byref(self._ctx)
        self._lib = lib
        self._fn = lib.repro_sweep
        self._claims = lib.repro_sweep_claims
        self._scratch = []
        for _ in range(workers):
            scratch = lib.repro_sweep_scratch_new(n)
            if not scratch:
                self.close()
                raise MemoryError("native sweep scratch")
            self._scratch.append(scratch)

    def __call__(self, source: int, worker: int = 0,
                 dispatch_time: float = 0.0) -> None:
        if self._fn(self._ctx_ref, self._scratch[worker], source,
                    dispatch_time):
            raise MemoryError("native sweep heap")

    def sweep_claims(self, order: np.ndarray, positions: Optional[np.ndarray],
                     cursor: ctypes.c_int64, chunk: int,
                     worker: int = 0) -> int:
        """Sweep ``order[positions[p]]`` (``order[p]`` when ``positions``
        is ``None``) for every position ``p`` this worker claims from
        ``cursor``, ``chunk`` positions per claim, until the positions
        run out; workers sharing ``cursor`` split them.  Returns the
        number of claims."""
        order = np.ascontiguousarray(order, dtype=np.int64)
        if len(order) and (order.min() < 0 or order.max() >= self._ctx.n):
            raise AlgorithmError("sweep sources must be vertex ids")
        if positions is None:
            count = len(order)
        else:
            positions = np.ascontiguousarray(positions, dtype=np.int64)
            count = len(positions)
            if count and (positions.min() < 0
                          or positions.max() >= len(order)):
                raise AlgorithmError("claim positions must index the order")
        claims = self._claims(
            self._ctx_ref, self._scratch[worker], order.ctypes.data,
            None if positions is None else positions.ctypes.data,
            count, ctypes.addressof(cursor), max(1, min(chunk, count)),
        )
        if claims < 0:
            raise MemoryError("native sweep heap")
        return claims

    def op_counts(self, source: int) -> OpCounts:
        return OpCounts(*self.counts[source, :6].tolist())

    def publish(self) -> None:
        """Report what the Python sweep reports per call, from the
        count vector: ``sweep.count``, ``ops.*``, the row kernels'
        ``kernel.*`` counters and the queue-occupancy gauge."""
        reg = _obs._current
        ran = self.counts[self.counts[:, 0] > 0]
        if reg is None or not len(ran):
            return
        (pops, relaxed, improved, merges, compared, hits, merge_improved,
         noops, relax_calls, empties, _) = ran.sum(axis=0).tolist()
        reg.add("sweep.count", len(ran))
        reg.add_many(OpCounts(pops, relaxed, improved, merges, compared,
                              hits).as_dict(), prefix="ops")
        if merges:
            reg.add("kernel.merge_row.calls", merges)
            reg.add("kernel.merge_row.improved", merge_improved)
            if noops:
                reg.add("kernel.merge_row.noop", noops)
        if relax_calls:
            reg.add("kernel.relax.calls", relax_calls)
            if relax_calls > empties:
                reg.add("kernel.relax.attempted", relaxed)
                reg.add("kernel.relax.improved", improved)
            if empties:
                reg.add("kernel.relax.empty_frontier", empties)
        reg.gauge_max(f"sweep.{self.queue}.peak_queue_occupancy",
                      int(ran[:, -1].max()))

    def close(self) -> None:
        for scratch in self._scratch:
            self._lib.repro_sweep_scratch_free(scratch)
        self._scratch = []


def sweep_rows(lib, graph, sources: np.ndarray, out: np.ndarray, *,
               hub: Optional[np.ndarray] = None,
               slot: Optional[np.ndarray] = None) -> None:
    """Row ``p`` of ``out`` ← the FIFO sweep from ``sources[p]``, in one
    foreign call without the interpreter lock.

    ``sources`` is a C-contiguous int64 vector of vertex ids and ``out``
    a C-contiguous float64 ``(len(sources), n)`` block; the caller
    checks both, and that no weight is negative.  Scratch and counts are
    sized to the block, never to n × n.

    Without ``hub`` every row is a flagless sweep.  ``hub`` is a
    C-contiguous float64 ``(K, n)`` block of finished rows and ``slot``
    a C-contiguous int64 vector of n entries, ``slot[t]`` the row of
    vertex ``t`` in ``hub`` or -1: a sweep that pops a hub merges its
    row instead of relaxing its edges, and a hub source's row is copied
    from the block.  ``hub is out`` fills the hub block itself: each
    swept row's slot is set, so the later rows merge it.
    The merged sums are exact only where every sum is (the caller's
    integral-weight gate, :func:`~repro.core.dijkstra.exact_sums`);
    there the rows are bitwise the flagless ones.
    """
    n = graph.num_vertices
    counts = np.empty((len(sources), NCOUNTS), dtype=np.int64)
    ctx = _Ctx(graph.indptr.ctypes.data, graph.indices.ctypes.data,
               graph.weights.ctypes.data, out.ctypes.data, None, None,
               counts.ctypes.data, n, False, False,
               None if hub is None else hub.ctypes.data,
               None if hub is None else slot.ctypes.data)
    scratch = lib.repro_sweep_scratch_new(n)
    if not scratch:
        raise MemoryError("native sweep scratch")
    try:
        failed = lib.repro_sweep_rows(ctypes.byref(ctx), scratch,
                                      sources.ctypes.data, len(sources))
    finally:
        lib.repro_sweep_scratch_free(scratch)
    if failed:
        raise MemoryError("native sweep heap")


def bind(graph, state, **kwargs) -> Optional[NativeSweep]:
    """A :class:`NativeSweep` over ``state``, or ``None`` when the
    kernel is unavailable (see :func:`kernel_name` for why)."""
    lib, _ = load()
    return None if lib is None else NativeSweep(lib, graph, state, **kwargs)
