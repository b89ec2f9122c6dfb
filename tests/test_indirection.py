"""Tests for repro.core.indirection: compile-time im2col plans."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bconv2d import (
    BConv2DParams,
    bconv2d,
    bconv2d_reference,
    pack_filters,
    zero_padding_correction,
)
from repro.core.bitpack import pack_bits
from repro.core.im2col import (
    GEOMETRY_CACHE_SIZE,
    conv_geometry,
    gather_indices,
    geometry_cache_clear,
    im2col_packed,
    padded_tap_mask,
)
from repro.core.indirection import (
    get_indirection,
    im2col_indirect,
    indirection_cache_clear,
    indirection_cache_stats,
)
from repro.core.types import Padding
from repro.core.workspace import Workspace

GEOMETRIES = [
    # (h, w, kh, kw, stride, dilation, padding)
    (8, 8, 3, 3, 1, 1, Padding.SAME_ONE),
    (8, 8, 3, 3, 1, 1, Padding.SAME_ZERO),
    (9, 7, 3, 3, 2, 1, Padding.SAME_ONE),
    (8, 8, 3, 3, 1, 2, Padding.SAME_ONE),
    (8, 8, 5, 5, 1, 1, Padding.VALID),
    (7, 7, 1, 1, 1, 1, Padding.SAME_ONE),
]


class TestGetIndirection:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_matches_dynamic_im2col(self, rng, geometry):
        """The indirect gather is bit-identical to the original per-call
        ``np.pad`` + fancy-indexing path — the tentpole's core contract."""
        h, w, kh, kw, stride, dilation, padding = geometry
        x = pack_bits(rng.standard_normal((2, h, w, 70)).astype(np.float32))
        expected, geom = im2col_packed(x, kh, kw, stride, dilation, padding)
        ind = get_indirection(h, w, kh, kw, stride, dilation, padding)
        assert ind.geom == geom
        got = im2col_indirect(x, ind)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_memoized_identity(self):
        a = get_indirection(8, 8, 3, 3, 1, 1, Padding.SAME_ONE)
        b = get_indirection(8, 8, 3, 3, 1, 1, Padding.SAME_ONE)
        assert a is b

    def test_cache_hits_counted(self):
        indirection_cache_clear()
        get_indirection(5, 5, 3, 3, 1, 1, Padding.SAME_ONE)
        get_indirection(5, 5, 3, 3, 1, 1, Padding.SAME_ONE)
        get_indirection(5, 5, 3, 3, 1, 1, Padding.VALID)
        stats = indirection_cache_stats()
        assert stats.entries == 2
        assert stats.misses == 2
        assert stats.hits == 1
        assert stats.nbytes > 0

    def test_arrays_read_only(self):
        ind = get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ZERO)
        assert not ind.flat_index.flags.writeable
        assert ind.pad_mask is not None and not ind.pad_mask.flags.writeable

    def test_pad_mask_only_for_same_zero(self):
        assert get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ONE).pad_mask is None
        assert get_indirection(6, 6, 3, 3, 1, 1, Padding.VALID).pad_mask is None


class TestWorkspacePath:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_workspace_bit_identical(self, rng, geometry):
        h, w, kh, kw, stride, dilation, padding = geometry
        x = pack_bits(rng.standard_normal((2, h, w, 70)).astype(np.float32))
        ind = get_indirection(h, w, kh, kw, stride, dilation, padding)
        ws = Workspace()
        assert np.array_equal(im2col_indirect(x, ind, ws), im2col_indirect(x, ind))

    def test_buffers_reused_across_calls(self, rng):
        ind = get_indirection(8, 8, 3, 3, 1, 1, Padding.SAME_ONE)
        x = pack_bits(rng.standard_normal((2, 8, 8, 70)).astype(np.float32))
        ws = Workspace()
        im2col_indirect(x, ind, ws)
        patches_buf = ws.buffer("bconv/patches")
        padded_buf = ws.buffer("bconv/padded")
        grows = ws.grows
        for _ in range(3):
            im2col_indirect(x, ind, ws)
        assert ws.grows == grows
        assert ws.buffer("bconv/patches") is patches_buf
        assert ws.buffer("bconv/padded") is padded_buf

    def test_stale_border_rezeroed(self, rng):
        """A reused padded buffer may hold another node's words in its
        border; the indirect path must re-zero it (one-padding semantics)."""
        ind = get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ONE)
        x = pack_bits(rng.standard_normal((1, 6, 6, 64)).astype(np.float32))
        ws = Workspace()
        expected = im2col_indirect(x, ind)
        # Poison the buffer the padded staging area will reuse.
        ws.take("bconv/padded", (1, 8, 8, 1), np.uint64)[...] = np.uint64(~np.uint64(0))
        got = im2col_indirect(x, ind, ws)
        assert np.array_equal(got, expected)

    def test_shape_mismatch_rejected(self, rng):
        ind = get_indirection(6, 6, 3, 3, 1, 1, Padding.SAME_ONE)
        x = pack_bits(rng.standard_normal((1, 7, 7, 64)).astype(np.float32))
        with pytest.raises(ValueError, match="indirection was built for"):
            im2col_indirect(x, ind)


class TestBoundedCaches:
    def test_eviction_keeps_bound_and_bit_exactness(self, rng):
        """More distinct geometries than the bound: every memo stays at or
        below it, the least recently used entry is evicted, and a conv on
        the evicted geometry rebuilds it bit-exactly."""
        indirection_cache_clear()
        geometry_cache_clear()
        first = (5, 6, 3, 3, 1, 1, Padding.SAME_ZERO)
        get_indirection(*first)
        for i in range(GEOMETRY_CACHE_SIZE + 20):
            get_indirection(6 + i, 5, 3, 3, 1, 1, Padding.SAME_ZERO)
            assert indirection_cache_stats().entries <= GEOMETRY_CACHE_SIZE
        assert indirection_cache_stats().entries == GEOMETRY_CACHE_SIZE
        for memo in (conv_geometry, gather_indices, padded_tap_mask):
            assert memo.cache_info().currsize == GEOMETRY_CACHE_SIZE
        misses = indirection_cache_stats().misses
        x = rng.standard_normal((2, 5, 6, 70)).astype(np.float32)
        w = rng.choice([-1.0, 1.0], (3, 3, 70, 4)).astype(np.float32)
        p = BConv2DParams(3, 3, 70, 4, padding=Padding.SAME_ZERO)
        got = bconv2d(
            pack_bits(x), pack_filters(w), p,
            padding_correction=zero_padding_correction(w, p, 5, 6),
        )
        assert indirection_cache_stats().misses == misses + 1  # was evicted
        assert np.array_equal(got, bconv2d_reference(x, w, p))
        indirection_cache_clear()
        geometry_cache_clear()

    def test_hit_refreshes_recency(self):
        indirection_cache_clear()
        hot = get_indirection(5, 6, 3, 3, 1, 1, Padding.SAME_ONE)
        for i in range(GEOMETRY_CACHE_SIZE + 5):
            assert get_indirection(5, 6, 3, 3, 1, 1, Padding.SAME_ONE) is hot
            get_indirection(6 + i, 5, 3, 3, 1, 1, Padding.SAME_ONE)
        assert get_indirection(5, 6, 3, 3, 1, 1, Padding.SAME_ONE) is hot
        indirection_cache_clear()
