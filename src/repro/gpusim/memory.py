"""Global-memory access model: granularity, coalescing, amplification.

The DRAM moves data only in ``access_granularity``-byte transactions
(128 B before Pascal, 32 B from Volta on — Sec. III-B).  A warp-wide
*coalesced* access packs its threads' bytes into the fewest possible
transactions; an isolated access of ``s`` bytes still moves a whole
transaction, wasting ``granularity - s`` bytes.  This is exactly the
arithmetic behind TABLE I, and the mechanism lazy spilling removes.

Beyond pure bandwidth, scattered transactions pay a per-transaction
issue overhead (row activation / queueing that coalesced streams
amortize); :class:`MemoryModel` charges it so that "same bytes, worse
pattern" is slower, as on real silicon.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .counters import Counters
from .device import DeviceProfile

__all__ = ["AccessPattern", "MemoryModel", "amplified_bytes"]


class AccessPattern(Enum):
    """How a group of accesses maps onto DRAM transactions."""

    #: Warp-wide contiguous: threads cover a contiguous span together.
    COALESCED = "coalesced"
    #: A single thread touches a contiguous run alone (e.g. the last
    #: thread of a warp storing one block's 32 B bottom row).
    PER_THREAD = "per_thread"
    #: Individual 4 B cell values touched in isolation (the existing
    #: aligner's pattern in TABLE I).
    PER_CELL = "per_cell"


def amplified_bytes(useful, access_size: int, pattern: AccessPattern, granularity: int):
    """Bytes the DRAM moves to deliver *useful* bytes.

    For coalesced access the only waste is the final partial
    transaction; for isolated patterns every ``access_size``-byte
    access moves a full transaction.  *useful* may be an int64 array
    of independent accesses; the result is then per entry, and
    entries ``<= 0`` move nothing.
    """
    useful = np.maximum(useful, 0) if isinstance(useful, np.ndarray) else max(useful, 0)
    if pattern is AccessPattern.COALESCED:
        return -(-useful // granularity) * granularity
    # Isolated accesses: each access moves whole transactions.
    per_access = -(-access_size // granularity) * granularity
    n_accesses = -(-useful // access_size)
    return n_accesses * per_access


def _total(x) -> int:
    """Integer total of a scalar or of an int64 array."""
    return int(np.add.reduce(x)) if isinstance(x, np.ndarray) else int(x)


@dataclass
class MemoryModel:
    """Accumulates global-memory traffic for one kernel launch.

    Redundant bytes (the amplification excess over useful bytes) are
    partially absorbed by the L2 cache — the paper itself notes the
    waste bites "if not captured by the L2 cache" (Sec. III-B).  The
    absorbed traffic still crosses the L2, whose bandwidth is a small
    multiple of DRAM's, so the model charges
    ``max(DRAM_time, L2_time)``.

    Parameters
    ----------
    device:
        Profile supplying granularity and bandwidth.
    transaction_overhead_ns:
        Issue overhead charged per *scattered* (PER_THREAD)
        transaction: single-lane bursts land on scattered DRAM rows
        and lose the row-buffer locality both coalesced warp bursts
        and sequential per-cell streams retain.
    l2_hit_rate:
        Fraction of *redundant* bytes served from L2 instead of DRAM;
        defaults to the device profile's value.
    l2_bandwidth_ratio:
        L2 bandwidth as a multiple of DRAM bandwidth; defaults to the
        device profile's value.
    """

    device: DeviceProfile
    transaction_overhead_ns: float = 1.0
    l2_hit_rate: float | None = None
    l2_bandwidth_ratio: float | None = None
    counters: Counters = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.counters is None:
            self.counters = Counters()
        if self.l2_hit_rate is None:
            self.l2_hit_rate = self.device.l2_hit_redundant
        if self.l2_bandwidth_ratio is None:
            self.l2_bandwidth_ratio = self.device.l2_bw_ratio

    def access(
        self,
        useful_bytes,
        *,
        access_size: int,
        pattern: AccessPattern,
        count: int | None = None,
    ) -> None:
        """Record *useful_bytes* of traffic with the given pattern.

        ``count`` overrides the inferred number of accesses (useful
        when the caller already knows it); otherwise it is
        ``ceil(useful / access_size)``.  *useful_bytes* may be an int64
        array of independent accesses (one per job, say): entries
        ``<= 0`` contribute nothing and the totals are summed in
        integers, so one call records a whole launch.
        """
        g = self.device.access_granularity
        if isinstance(useful_bytes, np.ndarray):
            useful_bytes = np.maximum(useful_bytes, 0)
        elif useful_bytes <= 0:
            return
        moved = _total(amplified_bytes(useful_bytes, access_size, pattern, g))
        self.counters.global_useful_bytes += _total(useful_bytes)
        self.counters.global_transferred_bytes += moved
        # Every access moves whole transactions, so the total divides.
        self.counters.global_transactions += moved // g
        if pattern is not AccessPattern.COALESCED:
            n_acc = count if count is not None else _total(-(-useful_bytes // access_size))
            self.counters.noncoalesced_transactions += int(n_acc)
            if pattern is AccessPattern.PER_THREAD:
                self.counters.scattered_transactions += int(n_acc)

    def dram_bytes(self) -> float:
        """Bytes actually reaching DRAM after L2 absorbs redundancy."""
        useful = self.counters.global_useful_bytes
        redundant = max(self.counters.global_transferred_bytes - useful, 0)
        return useful + redundant * (1.0 - self.l2_hit_rate)

    def memory_time_s(self) -> float:
        """Roofline memory time: max of the DRAM and L2 streams, plus
        any per-transaction issue overhead."""
        dram = self.dram_bytes() / self.device.mem_bandwidth_bps
        l2 = self.counters.global_transferred_bytes / (
            self.l2_bandwidth_ratio * self.device.mem_bandwidth_bps
        )
        issue = self.counters.scattered_transactions * self.transaction_overhead_ns * 1e-9
        return max(dram, l2) + issue

    def memset_time_s(self, nbytes: int) -> float:
        """Time to zero-fill a device buffer (write-only stream)."""
        return max(nbytes, 0) / self.device.mem_bandwidth_bps
