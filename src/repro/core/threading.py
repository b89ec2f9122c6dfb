"""Multi-threaded BGEMM.

The paper notes that LCE inherits multi-threaded inference from the
TensorFlow Lite / Ruy infrastructure, while stand-alone engines like DaBNN
do not support it.  This module provides the real thing for our NumPy
kernels: the blocked BGEMM's row panels are independent, and NumPy's
bitwise kernels release the GIL, so a thread pool over M-tiles gives
genuine parallel speedup on multi-core hosts.

Workspace interaction: worker threads must not grow shared buffers, so
tiles are assigned round-robin to a fixed number of *slots* and each slot
owns private scratch buffers named ``{prefix}/{slot}/*``.  The calling
thread pre-touches every slot's buffers at full tile size and writes the
shared word-major copy of ``b`` (``{prefix}/bt``) before dispatching,
after which workers only ever read the workspace's buffer dict — no
locking, no reallocation, and disjoint scratch per worker.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.bgemm import (
    _TILE_M,
    _TILE_N,
    _check_operands,
    _check_out,
    _check_tiles,
    _k_block,
    _tile_into,
    _word_major,
)
from repro.core.bgemm import bgemm_blocked
from repro.core.workspace import Workspace
from repro.obs.trace import active_tracer


def _num_slots(
    m: int, tile_m: int, num_threads: int, thread_grain: int = 1
) -> int:
    """How many scratch slots a parallel BGEMM over ``m`` rows uses.

    ``thread_grain`` groups that many consecutive row tiles into one
    assignment unit, so coarser grains can need fewer slots.
    """
    num_tiles = -(-m // tile_m)
    num_units = -(-num_tiles // thread_grain)
    return min(num_threads, num_units)


def bgemm_scratch_spec(
    m: int,
    n: int,
    words: int,
    num_threads: int = 1,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    prefix: str = "bgemm",
    thread_grain: int = 1,
) -> list[tuple[str, int, np.dtype]]:
    """The ``(name, size, dtype)`` scratch reservations a BGEMM call needs.

    Mirrors the dispatch in :func:`bgemm_parallel`: single-threaded (or
    single-tile) calls use unslotted ``{prefix}/*`` buffers, parallel calls
    use one ``{prefix}/{slot}/*`` set per slot; all share ``{prefix}/bt``.
    ``xor3``/``pop3`` hold the largest ``kb * mt * nt`` block over every
    tile shape of the split (a ragged edge tile can take a larger K block
    than a full one; see :func:`repro.core.bgemm._tile_into`), and
    ``ksum`` exists only when a tile needs several.  Kernel factories feed
    this into :meth:`repro.core.workspace.WorkspacePool.reserve` at
    plan-compile time so the arena is fully sized before the first
    inference.
    """
    _check_tiles(tile_m, tile_n)
    mt = min(tile_m, m)
    nt = min(tile_n, n)
    if num_threads == 1 or m <= tile_m:
        prefixes = [prefix]
    else:
        prefixes = [
            f"{prefix}/{slot}"
            for slot in range(_num_slots(m, tile_m, num_threads, thread_grain))
        ]
    block = max(
        _k_block(em, en, words) * em * en
        for em in {mt, m % tile_m or mt}
        for en in {nt, n % tile_n or nt}
    )
    spec = [(f"{prefix}/bt", words * n, np.dtype(np.uint64))]
    for p in prefixes:
        spec.append((f"{p}/xor3", block, np.dtype(np.uint64)))
        spec.append((f"{p}/pop3", block, np.dtype(np.uint8)))
        spec.append((f"{p}/out", mt * nt, np.dtype(np.int32)))
        if _k_block(mt, nt, words) < words:
            spec.append((f"{p}/ksum", mt * nt, np.dtype(np.int32)))
    return spec


def bgemm_parallel(
    a: np.ndarray,
    b: np.ndarray,
    depth: int,
    num_threads: int = 2,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
    prefix: str = "bgemm",
    thread_grain: int = 1,
) -> np.ndarray:
    """Blocked BGEMM with row panels distributed over a thread pool.

    Bit-identical to :func:`repro.core.bgemm.bgemm_blocked`; panels write
    disjoint output rows so no synchronization is needed, and tile-to-slot
    assignment cannot affect results.  ``out``/``workspace`` behave as in
    ``bgemm_blocked`` with per-slot scratch (see module docstring).
    ``thread_grain`` assigns that many *consecutive* row tiles per unit of
    the round-robin slot schedule (coarser grains trade load balance for
    contiguous output writes); any grain computes the same tiles.
    """
    _check_operands(a, b, depth)
    # Validate tiles before the dispatch below: the parallel branch used
    # to skip validation entirely, so a non-positive tile_n made every
    # worker's panel range empty and returned uninitialized output.
    _check_tiles(tile_m, tile_n)
    if num_threads <= 0:
        raise ValueError(f"num_threads must be positive, got {num_threads}")
    if not isinstance(thread_grain, (int, np.integer)) or isinstance(
        thread_grain, bool
    ):
        raise TypeError(f"thread_grain must be an integer, got {thread_grain!r}")
    if thread_grain < 1:
        raise ValueError(f"thread_grain must be >= 1, got {thread_grain}")
    m = a.shape[0]
    n = b.shape[0]
    if num_threads == 1 or m <= tile_m:
        return bgemm_blocked(
            a, b, depth, tile_m, tile_n, out=out, workspace=workspace,
            prefix=prefix,
        )
    out = _check_out(out, m, n)
    tiles = range(0, m, tile_m)
    units = [
        tiles[u : u + thread_grain] for u in range(0, len(tiles), thread_grain)
    ]
    slots = _num_slots(m, tile_m, num_threads, thread_grain)
    if workspace is None:
        workspace = Workspace()
    for name, size, dtype in bgemm_scratch_spec(
        m, n, int(a.shape[1]), num_threads, tile_m, tile_n, prefix,
        thread_grain=thread_grain,
    ):
        workspace.reserve(name, size, dtype)

    at, bt = _word_major(a, b, workspace, prefix)

    def worker(slot: int) -> None:
        slot_prefix = f"{prefix}/{slot}"
        for unit in units[slot::slots]:
            for i0 in unit:
                at_panel = at[:, i0 : i0 + tile_m]
                for j0 in range(0, n, tile_n):
                    _tile_into(
                        at_panel,
                        bt[:, j0 : j0 + tile_n],
                        depth,
                        out[i0 : i0 + tile_m, j0 : j0 + tile_n],
                        workspace,
                        slot_prefix,
                    )

    # The span covers dispatch + all workers; recorded from the calling
    # thread (workers have no ambient tracer), threads = scratch slots.
    tracer = active_tracer()
    t0 = time.perf_counter() if tracer.enabled else 0.0
    with ThreadPoolExecutor(max_workers=slots) as pool:
        list(pool.map(worker, range(slots)))
    if tracer.enabled:
        tracer.record(
            "kernel.bgemm",
            t0,
            time.perf_counter() - t0,
            m=m,
            n=n,
            words=int(a.shape[1]),
            depth=depth,
            threads=slots,
        )
    return out
