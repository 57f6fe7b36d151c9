"""The SALoBa kernel: timing model + exact execution (Sec. IV).

Composes the three techniques on the GPU model:

* **intra-query parallelism** — a subwarp cooperates on one query, so
  intermediate rows cross global memory only at *chunk* boundaries:
  1/s of the inter-query kernels' traffic (Sec. IV-A);
* **lazy spilling** — those boundary rows move in coalesced warp
  bursts instead of isolated last-thread stores (Sec. IV-B);
* **subwarp scheduling** — ``32/s`` queries share a warp in lockstep;
  the warp runs at the pace of its slowest subwarp (Sec. IV-C).

Cycle costs come from the shared :class:`~repro.gpusim.costs.CostModel`
applied to the :mod:`~repro.core.layout` decomposition; exact mode
funnels each job through the faithful dataflow executor of
:mod:`~repro.core.intra_query`.
"""

from __future__ import annotations

import numpy as np

from ..align.blocks import BLOCK
from ..align.grid import job_geometry
from ..align.matrix import AlignmentResult
from ..baselines.base import ExtensionJob, ExtensionKernel
from ..engine.base import resolve_engine
from ..gpusim.counters import Counters
from ..gpusim.device import WARP_SIZE, DeviceProfile
from ..gpusim.kernel import LaunchTiming, assemble_launch
from ..gpusim.memory import AccessPattern, MemoryModel
from ..gpusim.scheduler import WarpJob
from ..gpusim.sharedmem import SharedAllocation
from .config import SalobaConfig
from .layout import plan_job
from .subwarp import schedule_subwarps

__all__ = ["SalobaKernel"]


class SalobaKernel(ExtensionKernel):
    """SALoBa on the GPU model.  See module docstring."""

    name = "SALoBa"
    parallelism = "intra"
    bits = 4

    def __init__(self, scoring=None, config: SalobaConfig | None = None, *,
                 sort_jobs: bool = False, costs=None, packing=None,
                 fault_plan=None, engine=None):
        kwargs = {}
        if costs is not None:
            kwargs["costs"] = costs
        super().__init__(scoring, packing=packing, fault_plan=fault_plan, **kwargs)
        self.config = config or SalobaConfig()
        #: Discussion VII-C: optionally sort queries by cost before
        #: packing warps, trading preprocessing for balance.
        self.sort_jobs = sort_jobs
        #: Exact-scoring backend (:mod:`repro.engine`).  Engines only
        #: change how fast the host computes scores: the modeled
        #: timing below never consults it, so every engine charges the
        #: identical gpusim cost.
        self.engine = resolve_engine(engine)
        #: Banded mode computes a different (band-restricted) score,
        #: which no full-table engine reproduces; it routes through the
        #: registered banded engine at the config's fixed band
        #: regardless of the exact engine selected above.
        self._band_engine = (
            resolve_engine("banded", band=self.config.band)
            if self.config.band else None
        )
        if self.config.subwarp_size != WARP_SIZE:
            self.name = f"SALoBa(s={self.config.subwarp_size})"
        if self.config.band:
            self.name += f"[band={self.config.band}]"

    # ----- structural cost --------------------------------------------------

    def _step_ops(self) -> float:
        """Warp issues per anti-diagonal step of a subwarp."""
        if self.config.use_shuffle:
            # Discussion VII-A: register-to-register exchange; same
            # throughput class as conflict-free shared access.
            comm = 2 * self.costs.shuffle_ops
        else:
            comm = 2 * self.costs.shared_access_ops
        ops = self.costs.block_compute_ops + comm
        if not self.config.lazy_spill:
            # Naive scheme (Fig. 4 left): the boundary row goes through
            # isolated global accesses every step instead of bursts.
            ops += 2 * self.costs.global_access_ops
        return ops

    def _spill_event_ops(self) -> float:
        """Issues per coalesced flush burst (and matching read-back)."""
        words_per_thread = BLOCK * self.config.cell_record_bytes / 4
        return 2 * (words_per_thread * self.costs.spill_ops_per_word) + self.costs.shared_access_ops

    # ----- timing model ----------------------------------------------------

    def _model(
        self, jobs: list[ExtensionJob], device: DeviceProfile, mem: MemoryModel
    ) -> LaunchTiming:
        cfg = self.config
        cnt = Counters()
        n = len(jobs)
        ref_len = np.fromiter((j.ref.size for j in jobs), dtype=np.int64, count=n)
        query_len = np.fromiter((j.query.size for j in jobs), dtype=np.int64, count=n)
        # One closed-form plan for the whole launch: per-job arrays.
        plan = plan_job(job_geometry(ref_len, query_len), cfg.subwarp_size, cfg.band)
        step_ops = self._step_ops()
        spill_ops = self._spill_event_ops()
        job_cycles = plan.total_steps * step_ops
        if cfg.lazy_spill:
            job_cycles += plan.spill_events * spill_ops
        # Persistent-subwarp launch: fill the device with warps and
        # let each subwarp drain a grid-strided query queue.
        sched = schedule_subwarps(
            job_cycles,
            cfg.subwarps_per_warp,
            device.concurrent_warps,
            sort_jobs=self.sort_jobs,
        )
        warps = [WarpJob(cycles=c, tag=f"warp{i}") for i, c in enumerate(sched.warp_cycles)]

        # Divergence between co-resident subwarp queues: lanes of
        # faster queues idle until the slowest drains.
        cnt.idle_thread_steps += int(sched.divergence_waste / step_ops * cfg.subwarp_size)
        # Phase decomposition of the compute stream (Fig. 3): each
        # chunk ramps up over min(width, height)-1 staggered steps
        # (prologue), drains symmetrically (epilogue), and spends the
        # rest in the fully-occupied main loop; lazy-spill bursts are
        # their own phase.  Exposed to repro.obs as gpusim spans.
        # Integer sums first, then one float conversion each.
        steps = int(plan.total_steps.sum())
        ramp_steps = int(plan.ramp_steps.sum())
        spills = int(plan.spill_events.sum()) if cfg.lazy_spill else 0
        phase_cycles = {
            "prologue": ramp_steps * step_ops,
            "main": (steps - 2 * ramp_steps) * step_ops,
            "epilogue": ramp_steps * step_ops,
            "spill": spills * spill_ops if cfg.lazy_spill else 0.0,
        }
        cnt.cells += int((ref_len * query_len).sum())
        blocks = int(plan.total_blocks.sum())
        cnt.blocks += blocks
        cnt.steps += steps
        cnt.busy_thread_steps += blocks
        cnt.idle_thread_steps += int(plan.idle_thread_steps.sum())
        cnt.spills += spills
        cnt.shared_bytes += steps * 2 * BLOCK * cfg.cell_record_bytes

        # Chunk-boundary rows: written once, read once.
        boundary_bytes = plan.boundary_cells * cfg.cell_record_bytes
        if cfg.lazy_spill:
            pattern, size = AccessPattern.COALESCED, 128
        else:
            # Last-thread per-block stores: isolated 8-cell runs.
            pattern, size = AccessPattern.PER_THREAD, BLOCK * cfg.cell_record_bytes
        for _direction in range(2):
            mem.access(boundary_bytes, access_size=size, pattern=pattern)

        # Packed sequences: the reference strip words once per chunk
        # row set, the query words once per chunk; warp-wide
        # neighbouring threads fetch adjacent words -> coalesced.
        g = plan.geometry
        seq_bytes = g.r * 4 + plan.n_chunks * g.q * 4
        mem.access(seq_bytes, access_size=4, pattern=AccessPattern.COALESCED)

        # Shuffle mode keeps only the spill staging area in shared
        # memory; the communication buffer lives in registers.
        shared_bytes = 2 * WARP_SIZE * BLOCK * cfg.cell_record_bytes
        if cfg.use_shuffle:
            shared_bytes //= 2
        shared = SharedAllocation(shared_bytes)
        return assemble_launch(
            warps,
            mem,
            device,
            counters=cnt,
            shared=shared,
            n_launches=1,
            init_bytes=n * 16,  # result structs only
            fixed_overhead_s=cfg.fixed_overhead_s,
            phase_cycles=phase_cycles,
        )

    # ----- exact mode -------------------------------------------------------

    def _exact_scores(self, jobs: list[ExtensionJob]) -> list[AlignmentResult]:
        if self._band_engine is not None:
            return self._band_engine.score_batch(jobs, self.scoring, config=self.config)
        return self.engine.score_batch(jobs, self.scoring, config=self.config)
