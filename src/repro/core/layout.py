"""Chunk/strip/block decomposition of a DP table (Sec. IV-A, Fig. 3).

The table is cut into horizontal *chunks* of ``subwarp_size`` block
rows; each thread of the subwarp owns one *strip* (a block row) and
walks it left to right, staggered one step behind the thread above.
This module computes the resulting step/utilization/traffic geometry
— one shared source of truth for the timing model, the counters, and
the exact executor, so they cannot drift apart.

A job of ``r`` block rows is ``r // s`` full chunks plus, when
``r % s`` is non-zero, one last chunk of that height.  Every chunk
drains in ``width + height - 1`` steps, so all totals have a closed
form in integer arithmetic.  :func:`plan_job` evaluates it with
operators that broadcast: given a :class:`JobGeometry` whose fields
are int64 arrays it returns one :class:`JobPlan` of per-job arrays,
which is how the kernel plans a whole launch in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.blocks import BLOCK
from ..align.grid import JobGeometry

__all__ = ["ChunkPlan", "JobPlan", "plan_job"]


@dataclass(frozen=True)
class ChunkPlan:
    """Execution geometry of one chunk.

    Attributes
    ----------
    height:
        Active strips (threads) in this chunk; equals the subwarp
        size except possibly in the last chunk.
    width:
        Blocks per strip actually computed (the full query width, or
        the banded window).
    steps:
        Anti-diagonal steps to drain the chunk: ``width + height - 1``
        (the 31-step prologue/epilogue of Fig. 3 for height 32).
    """

    height: int
    width: int

    @property
    def steps(self) -> int:
        return self.width + self.height - 1 if self.width else 0

    @property
    def busy_thread_steps(self) -> int:
        return self.height * self.width

    def idle_thread_steps(self, lanes: int) -> int:
        """Idle lane-steps given *lanes* issued lanes (the subwarp width)."""
        return self.steps * lanes - self.busy_thread_steps


@dataclass(frozen=True)
class JobPlan:
    """Closed-form decomposition of one job (or a batch of jobs) under
    a subwarp size and band.

    Every total is an ``int`` for a scalar geometry and an int64 array
    (one entry per job) for a batch geometry.

    Attributes
    ----------
    width:
        Blocks per strip (the full query width, or the band window).
    n_chunks:
        Chunks the block rows are cut into.
    total_steps:
        Anti-diagonal steps summed over chunks.
    total_blocks:
        Blocks computed, which are also the busy lane-steps.
    idle_thread_steps:
        Idle lane-steps with ``subwarp_size`` issued lanes.
    ramp_steps:
        Prologue steps summed over chunks (each chunk ramps up over
        ``min(width, height) - 1`` steps and drains symmetrically).
    boundary_cells:
        Cells crossing chunk boundaries (stored once, read once).
    spill_events:
        Coalesced flush events under lazy spilling: one per
        ``subwarp_size`` block columns of each interior boundary.
    """

    geometry: JobGeometry
    subwarp_size: int
    width: int
    n_chunks: int
    total_steps: int
    total_blocks: int
    idle_thread_steps: int
    ramp_steps: int
    boundary_cells: int
    spill_events: int

    @property
    def chunks(self) -> tuple[ChunkPlan, ...]:
        """Per-chunk view of a scalar plan (the model never walks it)."""
        s, r = self.subwarp_size, self.geometry.r
        full = (ChunkPlan(height=s, width=self.width),) * (r // s)
        if r % s:
            full += (ChunkPlan(height=r % s, width=self.width),)
        return full


def _min(a, b):
    """``min`` that broadcasts over int64 arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def plan_job(geometry: JobGeometry, subwarp_size: int, band: int = 0) -> JobPlan:
    """Decompose *geometry* into chunks for a given subwarp size.

    With ``band > 0`` each strip only computes the block window within
    the band; the window is widest in the table's interior, so the
    per-strip width is conservatively ``min(q, 2*ceil(band/8) + 1)``
    blocks — the value the banded kernel's ablation bench reports.

    *geometry* may hold int64 arrays (one entry per job); every total
    of the returned plan is then a per-job array.
    """
    s = subwarp_size
    r, q = geometry.r, geometry.q
    width = q
    if band > 0:
        band_blocks = -(-band // BLOCK)
        width = _min(q, 2 * band_blocks + 1)
    full, last = r // s, r % s
    has_last = last > 0
    n_chunks = full + has_last
    computes = width > 0  # a zero-width chunk takes no steps at all
    # Σ (width + height - 1) over chunks, with Σ height = r.
    total_steps = computes * (n_chunks * (width - 1) + r)
    total_blocks = r * width
    ramp_steps = computes * (full * (_min(width, s) - 1)
                             + has_last * (_min(width, last) - 1))
    inner = n_chunks - (r > 0)
    return JobPlan(
        geometry=geometry,
        subwarp_size=s,
        width=width,
        n_chunks=n_chunks,
        total_steps=total_steps,
        total_blocks=total_blocks,
        idle_thread_steps=total_steps * s - total_blocks,
        ramp_steps=ramp_steps,
        boundary_cells=inner * _min(geometry.query_len, width * BLOCK),
        spill_events=inner * -(-width // s),
    )
