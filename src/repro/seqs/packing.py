"""Bit-packed sequence representations and the on-GPU packing kernel model.

GPU aligners pack bases below eight bits so that a single 32-bit
register fetch yields several bases (Sec. II-B of the paper):

* **2-bit** packing (SOAP3-dp, CUSHAW2-GPU): 16 bases per word; has no
  room for ``N``, which is replaced by a pseudo-random unambiguous base
  (exactly what CUSHAW2-GPU does).
* **4-bit** packing (GASAL2, NVBIO, SALoBa): 8 bases per word; ``N``
  survives.  This is the representation the SALoBa kernel consumes —
  one word per 8-base block edge.
* **8-bit** (SW#, ADEPT): plain code bytes, 4 bases per word.

All packers are vectorized; :class:`PackingKernelModel` additionally
describes the cost of doing the packing *on the GPU* the way GASAL2's
packing kernel does, so that kernels under comparison can share it
(the paper gives every baseline GASAL2's on-GPU packing for fairness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import BASES, N, encode

__all__ = [
    "pack",
    "unpack",
    "packed_words",
    "PackedBatch",
    "pack_batch",
    "PackingKernelModel",
]

_SUPPORTED_BITS = (2, 4, 8)


def packed_words(n_bases: int, bits: int) -> int:
    """Number of 32-bit words needed to hold *n_bases* at *bits* bits."""
    if bits not in _SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {_SUPPORTED_BITS}, got {bits}")
    per_word = 32 // bits
    return -(-n_bases // per_word)


def pack(seq, bits: int = 4, *, rng: np.random.Generator | None = None) -> np.ndarray:
    """Pack a sequence into little-endian 32-bit words.

    Base ``i`` occupies bits ``[bits*i, bits*(i+1))`` of word
    ``i // (32//bits)``.  With ``bits == 2`` any ``N`` is substituted
    with a random unambiguous base (CUSHAW2-GPU semantics); pass *rng*
    for reproducibility.  Tail slots beyond the sequence end are zero.

    Codes are combined a byte at a time (``8 // bits`` per byte) and
    the byte buffer is read as little-endian words, so the word values
    do not depend on the host's byte order.
    """
    codes = encode(seq)
    if bits == 2:
        n_mask = codes == N
        if n_mask.any():
            rng = rng or np.random.default_rng(0)
            codes = codes.copy()
            codes[n_mask] = rng.integers(0, len(BASES), size=int(n_mask.sum()))
    n_words = packed_words(codes.size, bits)
    padded = np.zeros(n_words * (32 // bits), dtype=np.uint8)
    padded[: codes.size] = codes
    per_byte = 8 // bits
    packed = padded[::per_byte]
    for lane in range(1, per_byte):
        packed = packed | (padded[lane::per_byte] << np.uint8(lane * bits))
    return np.ascontiguousarray(packed).view("<u4").astype(np.uint32, copy=False)


def unpack(words: np.ndarray, n_bases: int, bits: int = 4) -> np.ndarray:
    """Inverse of :func:`pack`: recover the first *n_bases* codes."""
    if bits not in _SUPPORTED_BITS:
        raise ValueError(f"bits must be one of {_SUPPORTED_BITS}, got {bits}")
    words = np.asarray(words, dtype=np.uint32)
    per_word = 32 // bits
    shifts = (np.arange(per_word, dtype=np.uint32) * bits).astype(np.uint32)
    mask = np.uint32((1 << bits) - 1)
    lanes = (words[:, None] >> shifts) & mask
    codes = lanes.reshape(-1)[:n_bases].astype(np.uint8)
    return codes


@dataclass(frozen=True)
class PackedBatch:
    """A batch of sequences packed into one flat word buffer.

    Mirrors the device layout GASAL2 and SALoBa use: every sequence is
    padded to a whole number of words so each starts word-aligned.

    Attributes
    ----------
    words:
        Flat ``uint32`` buffer holding all packed sequences.
    offsets:
        Word offset of each sequence within ``words``.
    lengths:
        Original base length of each sequence.
    bits:
        Bits per base used for packing.
    """

    words: np.ndarray
    offsets: np.ndarray
    lengths: np.ndarray
    bits: int

    def __len__(self) -> int:
        return len(self.lengths)

    def sequence_words(self, i: int) -> np.ndarray:
        """Packed words of sequence *i* (view, not copy)."""
        start = int(self.offsets[i])
        return self.words[start : start + packed_words(int(self.lengths[i]), self.bits)]

    def sequence_codes(self, i: int) -> np.ndarray:
        """Unpacked codes of sequence *i*."""
        return unpack(self.sequence_words(i), int(self.lengths[i]), self.bits)

    @property
    def total_bases(self) -> int:
        return int(self.lengths.sum())

    @property
    def nbytes(self) -> int:
        return int(self.words.nbytes)


def pack_batch(seqs, bits: int = 4, *, rng: np.random.Generator | None = None) -> PackedBatch:
    """Pack an iterable of sequences into a single :class:`PackedBatch`."""
    packed = [pack(s, bits, rng=rng) for s in seqs]
    lengths = np.array([len(encode(s)) for s in seqs], dtype=np.int64)
    sizes = np.array([p.size for p in packed], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)[:-1]]) if packed else np.zeros(0, np.int64)
    words = np.concatenate(packed) if packed else np.zeros(0, np.uint32)
    return PackedBatch(words=words, offsets=offsets, lengths=lengths, bits=bits)


@dataclass(frozen=True)
class PackingKernelModel:
    """Cost model of GASAL2-style on-GPU sequence packing.

    The packing kernel streams raw 8-bit bases from global memory,
    shifts/ORs them into packed words in registers, and streams the
    words back — one fully coalesced read of the raw bases plus one
    fully coalesced write of the packed words.  ``ops_per_base``
    captures the shift/mask ALU work per base.
    """

    ops_per_base: float = 2.0

    def global_read_bytes(self, total_bases: int) -> int:
        """Raw 8-bit input bytes streamed in."""
        return int(total_bases)

    def global_write_bytes(self, total_bases: int, bits: int) -> int:
        """Packed output bytes streamed out."""
        return int(packed_words(total_bases, bits) * 4)

    def alu_ops(self, total_bases: int) -> float:
        return self.ops_per_base * total_bases
