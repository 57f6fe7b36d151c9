"""Subwarp scheduling: packing queries into warps (Sec. IV-C, Fig. 5).

A warp of 32 threads hosts ``32 / s`` subwarps of ``s`` threads.  The
kernel launches enough warps to fill the device and each subwarp
drains a grid-strided *queue* of queries (persistent-threads style, as
GPU aligners do); a warp retires when its slowest subwarp's queue is
empty.  All subwarps execute the same instruction stream in lockstep,
so the warp's issue cost is the *maximum* of its subwarp queue loads.

This is exactly the paper's trade-off:

* aggregate issue cost ≈ Σ_jobs r_j (q_j + s - 1) / 32 — the
  ``(s-1)`` term is the prologue/epilogue tax, growing with the
  subwarp size;
* the max-over-queues term is the re-admitted load imbalance, growing
  as subwarps shrink (more, shorter queues ⇒ higher variance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SubwarpSchedule", "schedule_subwarps"]


@dataclass(frozen=True)
class SubwarpSchedule:
    """Result of dealing jobs onto subwarp queues.

    Attributes
    ----------
    order / dealt_to:
        Job indices in dealing order, and the queue each of them
        joined; warp ``w`` owns queues ``w*spw .. (w+1)*spw - 1``.
    queue_loads:
        Total cycle load per queue.
    warp_cycles:
        Per-warp issue cost (max over its queues).
    divergence_waste:
        Cycle-lanes lost to intra-warp imbalance, summed over warps.
    """

    order: np.ndarray
    dealt_to: np.ndarray
    queue_loads: np.ndarray
    warp_cycles: list[float]
    divergence_waste: float

    @property
    def n_warps(self) -> int:
        return len(self.warp_cycles)

    @property
    def queues(self) -> list[list[int]]:
        """``queues[k]`` lists the job indices on queue k, in dealing order."""
        queues: list[list[int]] = [[] for _ in range(self.queue_loads.size)]
        for i, k in zip(self.order.tolist(), self.dealt_to.tolist()):
            queues[k].append(i)
        return queues


def schedule_subwarps(
    job_cycles,
    subwarps_per_warp: int,
    max_warps: int,
    *,
    sort_jobs: bool = False,
) -> SubwarpSchedule:
    """Deal jobs onto subwarp queues and compute per-warp costs.

    Parameters
    ----------
    job_cycles:
        Modeled cycles of each job on one subwarp (a sequence or a
        float64 array).
    subwarps_per_warp:
        ``32 / subwarp_size``.
    max_warps:
        Warps the launch provides (enough to fill the device; fewer
        when the batch is small).
    sort_jobs:
        Discussion VII-C's mitigation: deal longest jobs first onto
        the least-loaded queue instead of round-robin.
    """
    if subwarps_per_warp < 1:
        raise ValueError("a warp hosts at least one subwarp")
    if max_warps < 1:
        raise ValueError("need at least one warp")
    cycles = np.asarray(job_cycles, dtype=np.float64)
    n = cycles.size
    n_warps = min(max_warps, max(1, -(-n // subwarps_per_warp)))
    n_queues = n_warps * subwarps_per_warp
    loads = np.zeros(n_queues, dtype=np.float64)
    if sort_jobs:
        # Stable descending sort: reversing an unstable ascending
        # argsort also reverses the order *within* ties, so equal-cost
        # jobs would deal onto queues in a platform-dependent order.
        order = np.argsort(-cycles, kind="stable")
        dealt_to = np.empty(n, dtype=np.int64)
        for d, i in enumerate(order.tolist()):
            k = int(np.argmin(loads))
            dealt_to[d] = k
            loads[k] += cycles[i]
    else:
        # Round-robin: job i joins queue i % n_queues.  Adding one
        # round of the deal at a time sums every queue in job order.
        order = np.arange(n)
        dealt_to = order % n_queues
        for start in range(0, n, n_queues):
            part = cycles[start : start + n_queues]
            loads[: part.size] += part
    per_warp = loads.reshape(n_warps, subwarps_per_warp)
    warp_max = per_warp.max(axis=1)
    # Each row reduces along its contiguous axis exactly as the row's
    # own ``sum()`` would; warps then accumulate in order.
    waste = 0.0
    for term in (warp_max * subwarps_per_warp - per_warp.sum(axis=1)).tolist():
        waste += term
    return SubwarpSchedule(
        order=order,
        dealt_to=dealt_to,
        queue_loads=loads,
        warp_cycles=warp_max.tolist(),
        divergence_waste=waste,
    )
