"""BGEMM — Binary GEneral Matrix Multiplication via XOR + popcount.

The paper's BGEMM kernel (Section 3.2, Table 1) multiplies bitpacked
activation rows against bitpacked weight rows using ``eor`` (XOR) for the
multiplication, ``cnt`` for the per-byte popcount and ``addp``/``uadalp``
for the accumulation, reaching ~78 binary MACs per cycle on a Cortex-A76.

Here the same arithmetic runs vectorized on uint64 words::

    acc[m, n] = K - 2 * sum_w popcount(A[m, w] XOR B[n, w])

where ``K`` is the true depth (number of +/-1 operands per dot product) and
``w`` ranges over the packed words.  Three implementations are provided:

- :func:`bgemm_reference` — scalar loops; the gold standard used in tests
  (kept per the project's "reference implementation in tests" idiom).
- :func:`bgemm` — fully vectorized broadcast XOR-popcount.
- :func:`bgemm_blocked` — Ruy-style cache tiling over M/N panels; identical
  results, bounded temporary memory.  This mirrors the production kernel's
  packing/tiling structure and is what ``LceBConv2d`` calls.

Inside each output panel the blocked kernel is *word-major*, like the
paper's inner loop that XORs and popcounts a whole block of packed depth
per step: one NumPy dispatch covers many packed words (:func:`_tile_into`).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.bitpack import popcount
from repro.core.workspace import Workspace
from repro.obs.trace import active_tracer

#: Default output-panel tile sizes for the blocked kernel.
_TILE_M = 256
_TILE_N = 128

#: Target XOR elements per word-major block: 64K uint64 = 512 KiB, which
#: keeps the block and its uint8 popcounts cache-resident while making
#: each NumPy dispatch cover many packed words.  16K and 1M measured no
#: better on a 2-core x86 host.
_BLOCK_ELEMS = 1 << 16


def _check_tiles(tile_m: int, tile_n: int) -> None:
    """Validate tile sizes for the blocked/parallel kernels.

    Non-positive (or non-integer) tiles would make the panel ``range``
    loops empty and silently leave ``out`` unwritten, so every entry
    point rejects them up front — the tuner explores adversarial grids
    and must get a loud error, never garbage output.  Tiles *larger*
    than the matrix are legal: slicing clamps them to the edge.
    """
    for name, value in (("tile_m", tile_m), ("tile_n", tile_n)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _check_operands(a: np.ndarray, b: np.ndarray, depth: int) -> None:
    if a.dtype != np.uint64 or b.dtype != np.uint64:
        raise TypeError(f"BGEMM operands must be uint64, got {a.dtype}/{b.dtype}")
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"BGEMM operands must be 2-D, got {a.ndim}-D/{b.ndim}-D")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"word-count mismatch: {a.shape[1]} vs {b.shape[1]}")
    if depth <= 0 or depth > a.shape[1] * 64:
        raise ValueError(f"depth {depth} out of range for {a.shape[1]} words")


def bgemm_reference(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """Scalar-loop BGEMM, the easy-to-audit gold standard.

    Args:
        a: ``(M, W)`` uint64 bitpacked left operand (e.g. im2col patches).
        b: ``(N, W)`` uint64 bitpacked right operand (e.g. filters).
        depth: true number of +/-1 elements per row (un-padded bit count).

    Returns:
        ``(M, N)`` int32 accumulators: the exact +/-1 dot products.
    """
    _check_operands(a, b, depth)
    m, _ = a.shape
    n, _ = b.shape
    out = np.empty((m, n), dtype=np.int32)
    for i in range(m):
        for j in range(n):
            xnor_pop = int(popcount(np.bitwise_xor(a[i], b[j])).sum())
            out[i, j] = depth - 2 * xnor_pop
    return out


def bgemm(a: np.ndarray, b: np.ndarray, depth: int) -> np.ndarray:
    """Vectorized BGEMM over full operand matrices.

    Builds the full ``(M, N, W)`` XOR temporary; prefer
    :func:`bgemm_blocked` when M*N is large.
    """
    _check_operands(a, b, depth)
    x = np.bitwise_xor(a[:, None, :], b[None, :, :])
    pops = popcount(x).sum(axis=-1, dtype=np.int32)
    return np.int32(depth) - np.int32(2) * pops


def _k_block(mt: int, nt: int, words: int) -> int:
    """Packed words per XOR block for an ``mt x nt`` tile (see :func:`_tile_into`)."""
    return max(1, min(words, _BLOCK_ELEMS // (mt * nt)))


def _word_major(
    a: np.ndarray, b: np.ndarray, workspace: Workspace, prefix: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(a.T, b.T)``: a view, and a contiguous copy in ``{prefix}/bt`` so
    the XOR's inner loop over a tile's columns reads consecutive words
    (5-10% faster at the zoo's shapes than striding rows of ``b``)."""
    bt = workspace.take(f"{prefix}/bt", (b.shape[1], b.shape[0]), np.uint64)
    np.copyto(bt, b.T)
    return a.T, bt


def _tile_into(
    at: np.ndarray,
    bt: np.ndarray,
    depth: int,
    out_view: np.ndarray,
    workspace: Workspace,
    prefix: str,
) -> None:
    """One ``tile_m x tile_n`` output panel: XOR -> popcount -> transform.

    The word-major kernel: ``at`` and ``bt`` are the panel's operands in
    word-major layout, ``(words, mt)`` and ``(words, nt)`` (see
    :func:`_word_major`).  Each step XORs a block of ``kb`` packed words
    at once into a ``(kb, mt, nt)`` uint64 buffer, popcounts it to uint8
    and reduces it over axis 0 into the int32 accumulators, summing
    contiguous ``(mt, nt)`` planes.  ``kb`` (:func:`_k_block`) fills about
    ``_BLOCK_ELEMS`` XOR elements per block, so each NumPy dispatch covers
    many packed words.

    The temporaries are the ``{prefix}/xor3|pop3|ksum|out`` workspace
    buffers (:func:`repro.core.threading.bgemm_scratch_spec` sizes them).
    Per-word popcounts are exact uint8 values (<= 64) summed in int32, so
    the result is bit-equal to :func:`bgemm_reference` for any blocking.
    """
    words, mt = at.shape
    nt = bt.shape[1]
    kb = _k_block(mt, nt, words)
    x3 = workspace.take(f"{prefix}/xor3", (kb, mt, nt), np.uint64)
    c3 = workspace.take(f"{prefix}/pop3", (kb, mt, nt), np.uint8)
    pops = workspace.take(f"{prefix}/out", (mt, nt), np.int32)
    if kb < words:
        ksum = workspace.take(f"{prefix}/ksum", (mt, nt), np.int32)
    for w0 in range(0, words, kb):
        wb = min(kb, words - w0)
        xv, cv = x3[:wb], c3[:wb]
        np.bitwise_xor(at[w0 : w0 + wb, :, None], bt[w0 : w0 + wb, None, :], out=xv)
        popcount(xv, out=cv)
        if w0 == 0:
            np.sum(cv, axis=0, dtype=np.int32, out=pops)
        else:
            np.sum(cv, axis=0, dtype=np.int32, out=ksum)
            np.add(pops, ksum, out=pops)
    # depth - 2*pop: pops * -2 + depth (exact int32), the add lands in out.
    np.multiply(pops, np.int32(-2), out=pops)
    np.add(pops, np.int32(depth), out=out_view)


def _check_out(out: np.ndarray | None, m: int, n: int) -> np.ndarray:
    if out is None:
        return np.empty((m, n), dtype=np.int32)
    if out.shape != (m, n) or out.dtype != np.int32:
        raise ValueError(
            f"out must be int32 of shape {(m, n)}, got {out.dtype} {out.shape}"
        )
    return out


def bgemm_blocked(
    a: np.ndarray,
    b: np.ndarray,
    depth: int,
    tile_m: int = _TILE_M,
    tile_n: int = _TILE_N,
    out: np.ndarray | None = None,
    workspace: Workspace | None = None,
    prefix: str = "bgemm",
) -> np.ndarray:
    """Cache-tiled BGEMM mirroring Ruy-style panel blocking.

    Processes ``tile_m x tile_n`` output panels, each with the word-major
    kernel of :func:`_tile_into`, so the temporaries stay small regardless
    of problem size.  Bit-identical to :func:`bgemm` for any legal tiling
    — tiles larger than the matrix clamp to the edge and non-divisor
    tiles leave ragged edge panels; the per-tile arithmetic is exact
    int32 either way.

    ``out`` (int32, ``(M, N)``) and ``workspace`` make the call
    allocation-free: accumulators land in ``out`` and the per-tile
    temporaries and the word-major copy of ``b`` live in reused arena
    buffers named ``{prefix}/*``.
    Without a workspace the call allocates a private one.
    """
    _check_operands(a, b, depth)
    _check_tiles(tile_m, tile_n)
    m = a.shape[0]
    n = b.shape[0]
    out = _check_out(out, m, n)
    if workspace is None:
        workspace = Workspace()
    at, bt = _word_major(a, b, workspace, prefix)
    # Ambient tracing: an enabled tracer (installed by an enclosing span,
    # e.g. plan.node) gets one pre-measured kernel.bgemm record per call;
    # disabled cost is one thread-local read and two branches.
    tracer = active_tracer()
    t0 = time.perf_counter() if tracer.enabled else 0.0
    for i0 in range(0, m, tile_m):
        at_panel = at[:, i0 : i0 + tile_m]
        for j0 in range(0, n, tile_n):
            _tile_into(
                at_panel,
                bt[:, j0 : j0 + tile_n],
                depth,
                out[i0 : i0 + tile_m, j0 : j0 + tile_n],
                workspace,
                prefix,
            )
    if tracer.enabled:
        tracer.record(
            "kernel.bgemm",
            t0,
            time.perf_counter() - t0,
            m=m,
            n=n,
            words=int(a.shape[1]),
            depth=depth,
            threads=1,
        )
    return out
