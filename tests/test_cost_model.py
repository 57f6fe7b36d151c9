"""The SALoBa cost model against a frozen per-job oracle.

``SalobaKernel._model`` plans a whole launch with one closed-form
:func:`~repro.core.layout.plan_job` call over per-job arrays.  The
oracle below is the per-job model it replaced, kept verbatim: it walks
each job's chunk list in Python, issues three memory accesses per job
and deals subwarp queues warp by warp.  Every modeled output must be
``==`` to the oracle's, float for float and count for count.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.align.blocks import BLOCK
from repro.baselines.base import ExtensionJob
from repro.core import SUBWARP_SIZES, SalobaConfig, SalobaKernel, schedule_subwarps
from repro.gpusim import GTX1650, PRE_PASCAL, RTX3090
from repro.gpusim.counters import Counters
from repro.gpusim.device import WARP_SIZE
from repro.gpusim.kernel import assemble_launch
from repro.gpusim.memory import AccessPattern
from repro.gpusim.scheduler import WarpJob
from repro.gpusim.sharedmem import SharedAllocation
from repro.serve.bench import mixed_stream

from .test_properties import chunk_walk


def _walk_schedule(job_cycles, subwarps_per_warp, max_warps, sort_jobs):
    """Queue dealing one job and one warp at a time:
    ``(warp_cycles, divergence_waste)``."""
    n = len(job_cycles)
    n_warps = min(max_warps, max(1, -(-n // subwarps_per_warp)))
    n_queues = n_warps * subwarps_per_warp
    loads = np.zeros(n_queues, dtype=np.float64)
    if sort_jobs:
        order = np.argsort(-np.asarray(job_cycles, dtype=np.float64), kind="stable")
        for i in order:
            k = int(np.argmin(loads))
            loads[k] += job_cycles[int(i)]
    else:
        for i, c in enumerate(job_cycles):
            loads[i % n_queues] += c
    warp_cycles = []
    waste = 0.0
    for w in range(n_warps):
        chunk = loads[w * subwarps_per_warp : (w + 1) * subwarps_per_warp]
        m = float(chunk.max()) if chunk.size else 0.0
        warp_cycles.append(m)
        waste += float(m * chunk.size - chunk.sum())
    return warp_cycles, waste


class PerJobSalobaKernel(SalobaKernel):
    """SALoBa with the per-job chunk-walk cost model (the oracle)."""

    def _plan(self, job):
        return chunk_walk(job.geometry(), self.config.subwarp_size, self.config.band)

    def _job_cycles(self, job):
        plan = self._plan(job)
        cycles = plan["total_steps"] * self._step_ops()
        if self.config.lazy_spill:
            cycles += plan["spill_events"] * self._spill_event_ops()
        return cycles

    def _model(self, jobs, device, mem):
        cfg = self.config
        cnt = Counters()
        plans = [self._plan(j) for j in jobs]
        job_cycles = [self._job_cycles(j) for j in jobs]
        warp_cycles, divergence_waste = _walk_schedule(
            job_cycles, cfg.subwarps_per_warp, device.concurrent_warps, self.sort_jobs
        )
        warps = [WarpJob(cycles=c, tag=f"warp{i}") for i, c in enumerate(warp_cycles)]
        step_ops = self._step_ops()
        cnt.idle_thread_steps += int(divergence_waste / step_ops * cfg.subwarp_size)
        ramp_steps = main_steps = 0
        for plan in plans:
            for chunk in plan["chunks"]:
                ramp = min(chunk.width, chunk.height) - 1 if chunk.width else 0
                ramp_steps += ramp
                main_steps += chunk.steps - 2 * ramp
        phase_cycles = {
            "prologue": ramp_steps * step_ops,
            "main": main_steps * step_ops,
            "epilogue": ramp_steps * step_ops,
            "spill": (
                sum(p["spill_events"] for p in plans) * self._spill_event_ops()
                if cfg.lazy_spill else 0.0
            ),
        }
        for job, plan in zip(jobs, plans):
            cnt.cells += job.cells
            cnt.blocks += plan["total_blocks"]
            cnt.steps += plan["total_steps"]
            cnt.busy_thread_steps += sum(c.busy_thread_steps for c in plan["chunks"])
            cnt.idle_thread_steps += sum(
                c.idle_thread_steps(cfg.subwarp_size) for c in plan["chunks"]
            )
            cnt.spills += plan["spill_events"] if cfg.lazy_spill else 0
            cnt.shared_bytes += plan["total_steps"] * 2 * BLOCK * cfg.cell_record_bytes
            boundary_bytes = plan["boundary_cells"] * cfg.cell_record_bytes
            if cfg.lazy_spill:
                pattern, size = AccessPattern.COALESCED, 128
            else:
                pattern, size = AccessPattern.PER_THREAD, BLOCK * cfg.cell_record_bytes
            for _direction in range(2):
                mem.access(boundary_bytes, access_size=size, pattern=pattern)
            g = job.geometry()
            seq_bytes = g.r * 4 + len(plan["chunks"]) * g.q * 4
            mem.access(seq_bytes, access_size=4, pattern=AccessPattern.COALESCED)
        shared_bytes = 2 * WARP_SIZE * BLOCK * cfg.cell_record_bytes
        if cfg.use_shuffle:
            shared_bytes //= 2
        return assemble_launch(
            warps,
            mem,
            device,
            counters=cnt,
            shared=SharedAllocation(shared_bytes),
            n_launches=1,
            init_bytes=len(jobs) * 16,
            fixed_overhead_s=cfg.fixed_overhead_s,
            phase_cycles=phase_cycles,
        )


def _job(ref_len: int, query_len: int) -> ExtensionJob:
    # The cost model reads lengths only.
    return ExtensionJob(ref=np.zeros(ref_len, np.uint8), query=np.zeros(query_len, np.uint8))


#: 1 bp pairs and 8 kbp reads spliced into every ragged batch.
_EDGE_JOBS = (_job(1, 1), _job(8192, 8000), _job(1, 300), _job(8100, 8192))


@pytest.fixture(scope="module")
def stream() -> list[ExtensionJob]:
    return mixed_stream(512, seed=11)


def _batch(stream, n: int) -> list[ExtensionJob]:
    batch = list(stream[:n])
    edges = _EDGE_JOBS[:n]
    for k, edge in enumerate(edges):
        batch[k * n // len(edges)] = edge
    return batch


#: ``(s, lazy_spill, use_shuffle, band, sort_jobs)``: every flag
#: combination once; every subwarp size meets every (band, sort) pair
#: and every (lazy_spill, use_shuffle) pair exactly once.
_CONFIGS = [
    (SUBWARP_SIZES[(i + i // 4) % len(SUBWARP_SIZES)], *flags)
    for i, flags in enumerate(
        itertools.product((True, False), (False, True), (0, 64), (False, True))
    )
]


@pytest.mark.parametrize("device", [GTX1650, RTX3090, PRE_PASCAL], ids=lambda d: d.name)
@pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 65, 512])
def test_closed_form_model_equals_per_job_oracle(stream, n, device):
    batch = _batch(stream, n)
    for s, lazy, shuffle, band, sort in _CONFIGS:
        cfg = SalobaConfig(subwarp_size=s, lazy_spill=lazy, use_shuffle=shuffle, band=band)
        got = SalobaKernel(config=cfg, sort_jobs=sort).run(batch, device).timing
        want = PerJobSalobaKernel(config=cfg, sort_jobs=sort).run(batch, device).timing
        where = f"s={s} lazy={lazy} shuffle={shuffle} band={band} sort={sort}"
        assert got.total_s == want.total_s, where
        assert got.compute_s == want.compute_s, where
        assert got.memory_s == want.memory_s, where
        assert got.overhead_s == want.overhead_s, where
        assert got.phases == want.phases, where
        assert got.schedule == want.schedule, where
        assert vars(got.counters) == vars(want.counters), where


@pytest.mark.parametrize("sort_jobs", [False, True])
@pytest.mark.parametrize("spw", [1, 2, 4, 8])
def test_subwarp_schedule_equals_per_warp_walk(spw, sort_jobs):
    # Irregular float loads make any change of summation order visible.
    rng = np.random.default_rng(spw)
    for n, max_warps in ((0, 3), (1, 1), (37, 2), (300, 11), (700, 448)):
        cycles = rng.pareto(1.5, n) * 1234.567
        sched = schedule_subwarps(cycles, spw, max_warps, sort_jobs=sort_jobs)
        want = _walk_schedule(list(cycles), spw, max_warps, sort_jobs)
        assert (sched.warp_cycles, sched.divergence_waste) == want
