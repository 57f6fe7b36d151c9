"""Unit tests for repro.seqs.packing."""

import numpy as np
import pytest

from repro.seqs import (
    PackedBatch,
    PackingKernelModel,
    encode,
    pack,
    pack_batch,
    packed_words,
    unpack,
)


class TestPackedWords:
    @pytest.mark.parametrize(
        "n,bits,expected",
        [(0, 4, 0), (1, 4, 1), (8, 4, 1), (9, 4, 2), (16, 2, 1), (17, 2, 2), (4, 8, 1), (5, 8, 2)],
    )
    def test_word_counts(self, n, bits, expected):
        assert packed_words(n, bits) == expected

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            packed_words(10, 3)


class TestPackUnpack:
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_roundtrip_no_n(self, rng, bits):
        codes = rng.integers(0, 4, 57).astype(np.uint8)
        assert (unpack(pack(codes, bits), codes.size, bits) == codes).all()

    @pytest.mark.parametrize("bits", [4, 8])
    def test_roundtrip_with_n(self, rng, bits):
        codes = rng.integers(0, 5, 33).astype(np.uint8)
        assert (unpack(pack(codes, bits), codes.size, bits) == codes).all()

    def test_2bit_randomizes_n(self):
        codes = encode("NNNN")
        out = unpack(pack(codes, 2, rng=np.random.default_rng(1)), 4, 2)
        # N cannot survive 2-bit packing (CUSHAW2-GPU semantics).
        assert (out < 4).all()

    def test_2bit_deterministic_with_rng(self):
        codes = encode("ANGNT")
        a = pack(codes, 2, rng=np.random.default_rng(5))
        b = pack(codes, 2, rng=np.random.default_rng(5))
        assert (a == b).all()

    def test_first_base_in_low_bits(self):
        # Base 0 of the word occupies the least-significant bits.
        codes = encode("T")  # code 3
        assert pack(codes, 4)[0] == 3

    def test_eight_bases_per_word_4bit(self):
        codes = encode("ACGTACGT")
        words = pack(codes, 4)
        assert words.size == 1

    def test_tail_zero_padded(self):
        codes = encode("T")
        word = int(pack(codes, 4)[0])
        assert word >> 4 == 0

    def test_empty(self):
        assert pack(np.zeros(0, np.uint8), 4).size == 0

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_words_match_shift_formula(self, rng, bits):
        codes = rng.integers(0, 4 if bits == 2 else 5, 77).astype(np.uint8)
        per_word = 32 // bits
        want = [
            sum(int(c) << (bits * k) for k, c in enumerate(codes[w * per_word:(w + 1) * per_word]))
            for w in range(packed_words(codes.size, bits))
        ]
        got = pack(codes, bits)
        assert got.dtype == np.uint32 and got.tolist() == want

    def test_2bit_n_takes_rng_draws_in_order(self):
        codes = encode("ANGNTN")
        expect = codes.copy()
        expect[codes == 4] = np.random.default_rng(9).integers(0, 4, size=3)
        out = unpack(pack(codes, 2, rng=np.random.default_rng(9)), codes.size, 2)
        assert (out == expect).all()
        assert (codes == encode("ANGNTN")).all()  # the input is not modified


class TestPackBatch:
    def test_batch_layout(self, rng):
        seqs = [rng.integers(0, 4, n).astype(np.uint8) for n in (3, 8, 17)]
        batch = pack_batch(seqs, 4)
        assert isinstance(batch, PackedBatch)
        assert len(batch) == 3
        assert batch.total_bases == 28
        for i, s in enumerate(seqs):
            assert (batch.sequence_codes(i) == s).all()

    def test_sequences_word_aligned(self, rng):
        seqs = [rng.integers(0, 4, n).astype(np.uint8) for n in (9, 1)]
        batch = pack_batch(seqs, 4)
        assert batch.offsets[1] == 2  # 9 bases -> 2 words

    def test_empty_batch(self):
        batch = pack_batch([], 4)
        assert len(batch) == 0
        assert batch.nbytes == 0


class TestPackingKernelModel:
    def test_traffic_accounting(self):
        m = PackingKernelModel()
        assert m.global_read_bytes(1000) == 1000
        assert m.global_write_bytes(1000, 4) == packed_words(1000, 4) * 4
        assert m.alu_ops(1000) == 2000
