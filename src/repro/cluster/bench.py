"""Cluster benchmark: routing policy x work stealing on a skewed stream.

Two phases, mirroring :mod:`repro.serve.bench`:

**Throughput (model-only).** One seeded, duplicate-heavy, length-mixed
request stream (short dataset-A reads with a long dataset-B tail — the
tail is what makes hash placement lumpy) is routed through every
``(policy, stealing)`` combination on the same worker fleet.  Reported
per combination: modeled makespan, busy-time imbalance (max/mean),
cache hit rate + in-round coalescing, and steal counts.  The headline
number is how much of the ``static_hash`` imbalance gap stealing closes
while keeping hash affinity's cache behaviour.

**Fidelity (scored).** A small scored workload runs through *every*
combination and must produce bit-identical results to the engine's
contract — exact local engines against the single-device reference
path, bounded/alternative-endpoint engines against their own direct
``score_batch`` output (see :func:`repro.serve.bench.fidelity_oracle`)
— placement and stealing may only change the modeled schedule, never
a result.

Everything is seeded and modeled, so rerunning the benchmark yields a
byte-identical JSON artifact (the CI ``cluster-smoke`` job ``cmp``\\ s
two runs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..align.scoring import ScoringScheme
from ..core.config import SalobaConfig
from ..gpusim.device import GTX1650, DeviceProfile
from ..serve.bench import fidelity_oracle, mixed_stream
from .cluster import AlignmentCluster
from .router import ROUTING_POLICIES
from .worker import WorkerSpec

__all__ = ["ClusterBenchResult", "run_cluster_bench"]


@dataclass
class ClusterBenchResult:
    """Everything the cluster benchmark measured (JSON-exportable)."""

    n_requests: int
    n_unique: int
    n_workers: int
    b_fraction: float
    duplicate_fraction: float
    device: str
    #: One row per (policy, stealing) combination, in run order.
    rows: list = field(default_factory=list)
    #: Fraction of static_hash's no-steal imbalance gap (imbalance - 1)
    #: that turning stealing on closes.  1.0 = perfectly rebalanced.
    imbalance_gap_closed: float = 0.0
    makespan_gain_vs_static: float = 0.0
    scored_checked: int = 0
    scored_identical: bool = False

    @property
    def text(self) -> str:
        lines = [
            f"cluster-bench on {self.n_workers}x {self.device}: "
            f"{self.n_requests} requests ({self.n_unique} unique, "
            f"{self.b_fraction:.0%} long-read tail, "
            f"{self.duplicate_fraction:.0%} duplicates)",
            f"  {'policy':<14} {'steal':>5} {'makespan ms':>12} "
            f"{'imbalance':>9} {'hit rate':>8} {'coalesced':>9} {'steals':>6} {'jobs':>6}",
        ]
        for r in self.rows:
            lines.append(
                f"  {r['policy']:<14} {('on' if r['stealing'] else 'off'):>5} "
                f"{r['makespan_ms']:>12.3f} {r['imbalance']:>9.3f} "
                f"{r['cache_hit_rate']:>8.1%} {r['coalesced']:>9} "
                f"{r['steal_count']:>6} {r['jobs_stolen']:>6}"
            )
        lines += [
            f"  stealing closes {self.imbalance_gap_closed:.0%} of the "
            f"static_hash imbalance gap "
            f"(makespan {self.makespan_gain_vs_static:+.1%} vs static_hash alone)",
            f"  scored fidelity: {self.scored_checked} pairs x "
            f"{len(self.rows)} schedules "
            f"{'bit-identical' if self.scored_identical else 'MISMATCH'} "
            "vs the engine contract",
        ]
        return "\n".join(lines)

    def to_json(self, **dumps_kwargs) -> str:
        dumps_kwargs.setdefault("indent", 2)
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.__dict__, **dumps_kwargs)


def _fidelity_check(
    scoring: ScoringScheme,
    config: SalobaConfig,
    device: DeviceProfile,
    combos: list[tuple[str, bool]],
    *,
    n_workers: int,
    n: int,
    seed: int,
    engine=None,
) -> tuple[int, bool]:
    """Results must match the engine's contract under every schedule.

    The jobs and the rule come from
    :func:`repro.serve.bench.fidelity_oracle`, with one difference:
    exact local engines, the reference included, are held to the
    reference *scores* only — the optimal endpoint can legitimately
    differ when several cells tie at the maximum, because each
    worker's auto-tuned subwarp scans the matrix in a different
    order; the maximum itself is scan-order-invariant.  Bounded and
    alternative-endpoint engines are grouping-invariant, so placement
    and stealing still may only change the modeled schedule, never a
    result.
    """
    jobs, matches = fidelity_oracle(
        scoring, config, device, n=n, seed=seed, engine=engine,
        reference_endpoints=False,
    )
    if not jobs:
        return 0, True
    for policy, stealing in combos:
        cl = AlignmentCluster(
            [WorkerSpec(f"w{i}", device=device) for i in range(n_workers)],
            scoring=scoring, config=config,
            policy=policy, stealing=stealing,
            engine=engine,
        )
        handles = cl.submit_jobs(jobs)
        cl.run()
        if not matches([h.result() for h in handles]):
            return len(jobs), False
    return len(jobs), True


def run_cluster_bench(
    n_requests: int = 1500,
    n_workers: int = 4,
    *,
    b_fraction: float = 0.25,
    duplicate_fraction: float = 0.25,
    seed: int = 0,
    device: DeviceProfile = GTX1650,
    scoring: ScoringScheme | None = None,
    config: SalobaConfig | None = None,
    policies: tuple[str, ...] = ROUTING_POLICIES,
    steal_penalty_ms_per_job: float = 0.002,
    scored_pairs: int = 24,
    engine=None,
) -> ClusterBenchResult:
    """Compare routing policies x stealing on one skewed workload."""
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    scoring = scoring or ScoringScheme()
    config = config or SalobaConfig()
    stream = mixed_stream(
        n_requests, b_fraction=b_fraction,
        duplicate_fraction=duplicate_fraction, seed=seed,
    )
    n_unique = len({(j.ref.tobytes(), j.query.tobytes()) for j in stream})

    combos = [(p, s) for p in policies for s in (False, True)]
    rows = []
    for policy, stealing in combos:
        cl = AlignmentCluster(
            [WorkerSpec(f"w{i}", device=device) for i in range(n_workers)],
            scoring=scoring, config=config, compute_scores=False,
            policy=policy, stealing=stealing,
            steal_penalty_ms_per_job=steal_penalty_ms_per_job,
        )
        cl.submit_jobs(stream)
        m = cl.run()
        rows.append({
            "policy": policy,
            "stealing": stealing,
            "makespan_ms": m.makespan_ms,
            "total_busy_ms": m.total_busy_ms,
            "imbalance": m.imbalance,
            "cache_hits": m.cache_hits,
            "cache_hit_rate": m.cache_hit_rate,
            "coalesced": m.coalesced,
            "steal_count": m.steal_count,
            "jobs_stolen": m.jobs_stolen,
            "completed": m.completed,
            "failed": m.failed,
        })

    by_combo = {(r["policy"], r["stealing"]): r for r in rows}
    gap_closed = gain = 0.0
    base = by_combo.get(("static_hash", False))
    stolen = by_combo.get(("static_hash", True))
    if base is not None and stolen is not None:
        gap = base["imbalance"] - 1.0
        if gap > 0.0:
            gap_closed = (base["imbalance"] - stolen["imbalance"]) / gap
        if base["makespan_ms"] > 0.0:
            gain = stolen["makespan_ms"] / base["makespan_ms"] - 1.0

    checked, identical = _fidelity_check(
        scoring, config, device, combos,
        n_workers=n_workers, n=scored_pairs, seed=seed, engine=engine,
    )
    return ClusterBenchResult(
        n_requests=len(stream),
        n_unique=n_unique,
        n_workers=n_workers,
        b_fraction=b_fraction,
        duplicate_fraction=duplicate_fraction,
        device=device.name,
        rows=rows,
        imbalance_gap_closed=gap_closed,
        makespan_gain_vs_static=gain,
        scored_checked=checked,
        scored_identical=identical,
    )
