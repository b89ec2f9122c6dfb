"""Tests for repro.core.bgemm: all kernels agree with the gold standard."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bgemm import (
    _BLOCK_ELEMS,
    _k_block,
    bgemm,
    bgemm_blocked,
    bgemm_reference,
)
from repro.core.bitpack import pack_bits
from repro.core.threading import bgemm_scratch_spec
from repro.core.workspace import Workspace


def _random_operands(rng, m, n, depth):
    a = rng.choice([-1.0, 1.0], (m, depth)).astype(np.float32)
    b = rng.choice([-1.0, 1.0], (n, depth)).astype(np.float32)
    return a, b, pack_bits(a).bits, pack_bits(b).bits


class TestAgainstFloatGEMM:
    @given(
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        depth=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_vectorized_matches_float(self, m, n, depth, seed):
        rng = np.random.default_rng(seed)
        a, b, pa, pb = _random_operands(rng, m, n, depth)
        expected = (a @ b.T).astype(np.int32)
        assert np.array_equal(bgemm(pa, pb, depth), expected)

    def test_reference_matches_float(self, rng):
        a, b, pa, pb = _random_operands(rng, 5, 7, 130)
        expected = (a @ b.T).astype(np.int32)
        assert np.array_equal(bgemm_reference(pa, pb, 130), expected)


class TestBlockedKernel:
    @pytest.mark.parametrize("tile_m,tile_n", [(1, 1), (2, 3), (16, 16), (1000, 1000)])
    def test_tiling_is_bit_identical(self, rng, tile_m, tile_n):
        _, _, pa, pb = _random_operands(rng, 33, 17, 190)
        assert np.array_equal(
            bgemm_blocked(pa, pb, 190, tile_m, tile_n), bgemm(pa, pb, 190)
        )

    def test_rejects_bad_tiles(self, rng):
        _, _, pa, pb = _random_operands(rng, 4, 4, 64)
        with pytest.raises(ValueError):
            bgemm_blocked(pa, pb, 64, tile_m=0)

    @given(seed=st.integers(0, 2**32 - 1))
    def test_blocked_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        m, n, depth = rng.integers(1, 20), rng.integers(1, 20), rng.integers(1, 300)
        _, _, pa, pb = _random_operands(rng, m, n, depth)
        assert np.array_equal(
            bgemm_blocked(pa, pb, depth), bgemm_reference(pa, pb, depth)
        )


class TestTileEdgeCases:
    """Adversarial tile grid: every (tile_m, tile_n) split — degenerate,
    non-divisor, oversized — and every K-block split the word-major kernel
    picks must be bit-identical to the un-tiled kernel, because the
    accumulator is exact integer math."""

    @pytest.mark.parametrize("tile_m", [1, 3, 33, 34, 1000])
    @pytest.mark.parametrize("tile_n", [1, 5, 17, 18, 1000])
    def test_adversarial_tile_grid(self, rng, tile_m, tile_n):
        _, _, pa, pb = _random_operands(rng, 33, 17, 190)
        assert np.array_equal(
            bgemm_blocked(pa, pb, 190, tile_m, tile_n), bgemm(pa, pb, 190)
        )

    @pytest.mark.parametrize("words", [1, 2, 3, 5, 8, 100])
    def test_k_word_blocking_is_bit_identical(self, rng, words):
        # One 64x128 tile takes K blocks of _BLOCK_ELEMS // 8192 words:
        # small word counts fit one block, 100 words split into several
        # with a ragged last block.
        depth = 64 * words - 3
        _, _, pa, pb = _random_operands(rng, 64, 128, depth)
        assert np.array_equal(
            bgemm_blocked(pa, pb, depth), bgemm_reference(pa, pb, depth)
        )

    def test_all_three_axes_split_at_once(self, rng):
        # Full 70x90 tiles take several K blocks; the ragged 30-row and
        # 10-column edge tiles take larger (or single) ones.
        _, _, pa, pb = _random_operands(rng, 100, 100, 1600)
        assert _k_block(70, 90, 25) < 25
        assert np.array_equal(
            bgemm_blocked(pa, pb, 1600, tile_m=70, tile_n=90),
            bgemm(pa, pb, 1600),
        )

    def test_tiles_larger_than_matrix(self, rng):
        _, _, pa, pb = _random_operands(rng, 4, 3, 64)
        assert np.array_equal(
            bgemm_blocked(pa, pb, 64, tile_m=4096, tile_n=4096),
            bgemm(pa, pb, 64),
        )

    @pytest.mark.parametrize(
        "kw",
        [{"tile_m": 0}, {"tile_n": 0}, {"tile_m": -4}, {"tile_n": -4},
         {"tile_m": np.int64(0)}, {"tile_n": np.int64(-1)}],
    )
    def test_rejects_non_positive_tiles(self, rng, kw):
        _, _, pa, pb = _random_operands(rng, 4, 4, 64)
        with pytest.raises(ValueError):
            bgemm_blocked(pa, pb, 64, **kw)

    @pytest.mark.parametrize(
        "kw",
        [{"tile_m": 2.0}, {"tile_n": "8"}, {"tile_m": True}],
    )
    def test_rejects_non_integer_tiles(self, rng, kw):
        _, _, pa, pb = _random_operands(rng, 4, 4, 64)
        with pytest.raises(TypeError):
            bgemm_blocked(pa, pb, 64, **kw)


def _reserved_workspace(m, n, words, tile_m, tile_n, num_threads=1):
    ws = Workspace()
    for name, size, dtype in bgemm_scratch_spec(
        m, n, words, num_threads, tile_m, tile_n
    ):
        ws.reserve(name, size, dtype)
    return ws


class TestWordMajorKernel:
    """The word-major tile kernel against the scalar gold standard, with
    and without a spec-sized workspace, in each K-blocking regime."""

    #: (m, n, depth, tile_m, tile_n) and the regime each case pins down
    CASES = {
        # 21x13 tile, 5 words: every word in one K block
        "one_block": (21, 13, 300, 256, 128),
        # 64x128 tile: 8-word blocks, 21 words -> 8 + 8 + 5
        "ragged_blocks": (64, 128, 21 * 64, 256, 128),
        # one 257x257 tile is larger than a block: one word per block
        "kb_one": (257, 257, 150, 512, 512),
        "single_row": (1, 200, 7 * 64 - 11, 256, 128),
        # ragged tile_m/tile_n edges on both axes
        "ragged_edges": (50, 30, 1000, 7, 11),
    }

    def test_cases_cover_their_regimes(self):
        assert _k_block(21, 13, 5) == 5
        kb = _k_block(64, 128, 21)
        assert 1 < kb < 21 and 21 % kb
        assert 257 * 257 > _BLOCK_ELEMS and _k_block(257, 257, 3) == 1

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_exact_against_reference(self, rng, case):
        m, n, depth, tile_m, tile_n = self.CASES[case]
        _, _, pa, pb = _random_operands(rng, m, n, depth)
        expected = bgemm_reference(pa, pb, depth)
        assert np.array_equal(
            bgemm_blocked(pa, pb, depth, tile_m, tile_n), expected
        )
        ws = _reserved_workspace(m, n, pa.shape[1], tile_m, tile_n)
        grows = ws.grows
        out = np.empty((m, n), np.int32)
        for _ in range(2):
            got = bgemm_blocked(
                pa, pb, depth, tile_m, tile_n, out=out, workspace=ws
            )
            assert got is out and np.array_equal(got, expected)
            assert ws.grows == grows, "spec-sized arena grew"

    def test_ksum_reserved_only_for_several_blocks(self):
        one = {name for name, _, _ in bgemm_scratch_spec(21, 13, 5)}
        several = {name for name, _, _ in bgemm_scratch_spec(64, 128, 21)}
        assert one == {"bgemm/bt", "bgemm/xor3", "bgemm/pop3", "bgemm/out"}
        assert several == one | {"bgemm/ksum"}


class TestValidation:
    def test_rejects_non_uint64(self, rng):
        a = np.zeros((2, 1), np.uint32)
        b = np.zeros((2, 1), np.uint64)
        with pytest.raises(TypeError):
            bgemm(a, b, 10)

    def test_rejects_word_mismatch(self):
        with pytest.raises(ValueError):
            bgemm(np.zeros((2, 1), np.uint64), np.zeros((2, 2), np.uint64), 10)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            bgemm(np.zeros((2,), np.uint64), np.zeros((2, 1), np.uint64), 10)

    @pytest.mark.parametrize("depth", [0, -5, 65])
    def test_rejects_out_of_range_depth(self, depth):
        a = np.zeros((2, 1), np.uint64)
        with pytest.raises(ValueError):
            bgemm(a, a, depth)

    def test_depth_exactly_word_capacity_allowed(self):
        a = np.zeros((2, 1), np.uint64)
        out = bgemm(a, a, 64)
        assert np.all(out == 64)


class TestAccumulatorRange:
    def test_extremes(self):
        ones = pack_bits(np.ones((1, 128), np.float32)).bits
        negs = pack_bits(-np.ones((1, 128), np.float32)).bits
        assert bgemm(ones, ones, 128)[0, 0] == 128
        assert bgemm(ones, negs, 128)[0, 0] == -128

    def test_output_dtype_is_int32(self, rng):
        _, _, pa, pb = _random_operands(rng, 2, 2, 64)
        assert bgemm(pa, pb, 64).dtype == np.int32
        assert bgemm_blocked(pa, pb, 64).dtype == np.int32

    def test_parity_matches_depth(self, rng):
        # acc = depth - 2*popcount always has the same parity as depth.
        _, _, pa, pb = _random_operands(rng, 6, 6, 77)
        acc = bgemm(pa, pb, 77)
        assert np.all((acc - 77) % 2 == 0)
