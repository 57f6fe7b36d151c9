"""One cluster worker: a device + its own AlignmentService + a backlog.

A :class:`ClusterWorker` is the unit the router places requests on and
the stealer moves work between.  It owns:

* a :class:`~repro.gpusim.device.DeviceProfile` (optionally with a
  per-job :class:`~repro.resilience.faults.FaultPlan` installed — the
  resilience layer's fault model is reused unchanged);
* a private :class:`~repro.serve.service.AlignmentService` with its
  own result cache, tuner state, and (optional) tracer — caches are
  deliberately **not** shared, which is what makes routing affinity a
  real scheduling concern;
* a *backlog* of placed-but-unstarted requests, kept per length bin so
  work moves between workers at the same granularity the serve layer
  batches at;
* a local modeled clock.  Every worker starts at 0 ms and the clock
  advances only while the worker executes (or pays a steal penalty),
  so at cluster completion ``clock_ms`` is simultaneously the worker's
  busy time and its position on the shared wall timeline — workers
  are work-conserving under stealing, with no idle gaps mid-run.

The worker-level ``device_down`` fault (:attr:`WorkerSpec.down_at_ms`)
models a device leaving the pool at a fixed point of the shared
modeled timeline: the step whose batch *straddles* that instant loses
its in-flight results (they are never settled), and every queued
request is orphaned for the failover coordinator to re-route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..core.config import SalobaConfig
from ..gpusim.device import GTX1650, DeviceProfile
from ..resilience.faults import Degradation, FaultPlan
from ..resilience.retry import RetryPolicy
from ..serve.request import RequestHandle
from ..serve.service import AlignmentService

__all__ = ["WorkerSpec", "ClusterRequest", "StepOutcome", "ClusterWorker"]


@dataclass(frozen=True)
class WorkerSpec:
    """Static description of one worker in the cluster.

    Attributes
    ----------
    name:
        Stable identifier used in metrics and trace thread names.
    device:
        The worker's modeled GPU (heterogeneous clusters are fine; the
        ``cost_aware`` router exists for exactly that case).
    fault_plan:
        Per-job injected faults, reusing the resilience layer's seeded
        :class:`FaultPlan` unchanged (transient/stall/overflow).
    down_at_ms:
        The worker-level ``device_down`` fault: the modeled instant
        this device leaves the pool (None = stays up).  ``<= 0`` means
        the worker is dead on arrival and receives no placements.
    degraded:
        The worker-level *persistent slowdown* fault
        (:class:`~repro.resilience.faults.Degradation`): from its
        onset, the worker's wall clock dilates by ``factor`` per unit
        of executed work.  The replica stays alive and its results
        stay correct — only the schedule suffers, which is the signal
        the control plane's health watcher has to detect from windowed
        throughput (see :mod:`repro.control`).
    cache_bytes / max_batch_jobs:
        Forwarded to the worker's private :class:`AlignmentService`.
    engine:
        Per-worker scoring backend: any registered :mod:`repro.engine`
        name — optionally with bound parameters, ``"banded:band=16"``
        — or an :class:`~repro.engine.ExecutionEngine` instance.
        ``None`` defers to the cluster-wide default
        (:class:`~repro.cluster.cluster.AlignmentCluster`'s ``engine``
        argument).  Heterogeneous clusters may mix engines freely:
        with exact engines, scores and the modeled schedule are
        engine-independent (bounded engines trade scores per their
        capability descriptor — the modeled schedule still is).
    """

    name: str
    device: DeviceProfile = GTX1650
    fault_plan: FaultPlan | None = None
    down_at_ms: float | None = None
    degraded: Degradation | None = None
    cache_bytes: int = 16 << 20
    max_batch_jobs: int = 4096
    engine: object | None = None


@dataclass
class ClusterRequest:
    """One request as the cluster routes it.

    ``handle`` is the caller's future (the same :class:`RequestHandle`
    the serve layer uses); the cluster settles it **exactly once**
    through the :class:`~repro.cluster.failover.SettlementLedger`,
    however many workers the request visits.
    """

    job: ExtensionJob
    handle: RequestHandle
    key: int  # content fingerprint (job_key) — drives static_hash affinity
    est_cells: int = 0
    hops: int = 0  # failover re-routes survived
    stolen: int = 0  # times moved by the stealer
    #: Absolute wall-timeline deadline: a request still queued when its
    #: worker reaches this instant is dropped (``DeadlineExceeded``)
    #: instead of executed — the cluster-level SLO the control plane
    #: watches.  None = no deadline.
    deadline_ms: float | None = None
    #: Tenant identity, carried from cluster ingress down to the
    #: per-worker service so WFQ lanes and degradation tiers apply
    #: fleet-wide.  Quotas are enforced at cluster ingress only.
    tenant: str = "default"
    #: The per-worker service's handle for the current execution
    #: attempt; replaced wholesale when the request fails over.
    service_handle: RequestHandle | None = None

    @property
    def request_id(self) -> int:
        return self.handle.request_id


@dataclass
class StepOutcome:
    """What one :meth:`ClusterWorker.step` did."""

    served: list[ClusterRequest] = field(default_factory=list)
    batch_ms: float = 0.0
    died: bool = False
    #: Requests orphaned by a mid-step ``device_down``: the in-flight
    #: batch (results discarded) followed by the whole queued backlog.
    orphans: list[ClusterRequest] = field(default_factory=list)
    lost_in_flight: int = 0
    #: Requests dropped at batch assembly because their wall-timeline
    #: deadline had already passed; the cluster settles them as
    #: ``DeadlineExceeded`` (the worker never settles handles itself).
    expired: list[ClusterRequest] = field(default_factory=list)


class ClusterWorker:
    """Execution state of one worker; see the module docstring."""

    def __init__(
        self,
        index: int,
        spec: WorkerSpec,
        *,
        scoring: ScoringScheme | None = None,
        config: SalobaConfig | None = None,
        compute_scores: bool = True,
        retry_policy: RetryPolicy | None = None,
        tracer=None,
        engine=None,
        qos=None,
    ):
        self.index = index
        self.spec = spec
        self.tracer = tracer
        self.service = AlignmentService(
            scoring, config, spec.device,
            compute_scores=compute_scores,
            fault_plan=spec.fault_plan,
            retry_policy=retry_policy,
            max_queue_depth=max(spec.max_batch_jobs, 1),
            cache_bytes=spec.cache_bytes,
            max_batch_jobs=spec.max_batch_jobs,
            tracer=tracer,
            engine=spec.engine if spec.engine is not None else engine,
            qos=qos,
        )
        self.clock_ms = 0.0
        #: Wall instant this worker joined the pool (0.0 for founding
        #: workers; the control plane sets it for mid-run additions).
        #: Busy time is ``clock_ms - joined_at_ms``.
        self.joined_at_ms = 0.0
        self.dead = spec.down_at_ms is not None and spec.down_at_ms <= 0.0
        #: Voluntarily removed by the control plane: no longer placed
        #: on or stolen from, but not a lost device (``workers_lost``
        #: counts deaths only).
        self.retired = False
        self._backlog: dict[int, deque[ClusterRequest]] = {}
        self._backlog_n = 0
        self._backlog_cells = 0
        # ---- counters surfaced by repro.cluster.metrics ----
        self.served = 0
        self.served_cells = 0
        self.lost_in_flight = 0
        self.expired = 0
        self.steals_initiated = 0
        self.jobs_stolen_in = 0
        self.jobs_stolen_out = 0
        self.steal_penalty_ms = 0.0

    # ----- identity / load -------------------------------------------------

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def alive(self) -> bool:
        return not (self.dead or self.retired)

    @property
    def busy_ms(self) -> float:
        """Wall time spent in the pool (executing or paying penalties)."""
        return self.clock_ms - self.joined_at_ms

    @property
    def degraded_active(self) -> bool:
        """Whether the persistent-slowdown fault has set in by now."""
        deg = self.spec.degraded
        return deg is not None and deg.active_at(self.clock_ms)

    @property
    def backlog_n(self) -> int:
        """Placed-but-unstarted requests."""
        return self._backlog_n

    @property
    def backlog_ms(self) -> float:
        """Estimated modeled time to drain the backlog on this device."""
        return self.spec.device.estimate_cells_ms(self._backlog_cells)

    @property
    def finish_estimate_ms(self) -> float:
        """When this worker would finish unaided (clock + backlog)."""
        return self.clock_ms + self.backlog_ms

    def estimate_ms(self, job: ExtensionJob) -> float:
        """Estimated cost of *job* on this worker's device."""
        return self.spec.device.estimate_cells_ms(job.cells)

    def bin_backlog(self) -> list[tuple[int, int, int]]:
        """Nonempty bins as ``(bin_index, n_requests, cells)``, sorted
        by bin index — the stealer's view of this worker's queue."""
        out = []
        for b in sorted(self._backlog):
            q = self._backlog[b]
            if q:
                out.append((b, len(q), sum(r.est_cells for r in q)))
        return out

    # ----- placement / stealing hooks --------------------------------------

    def place(self, req: ClusterRequest) -> None:
        """Router-side: append *req* to the backlog of its length bin."""
        b = self.service.binner.bin_index(req.job)
        self._backlog.setdefault(b, deque()).append(req)
        self._backlog_n += 1
        self._backlog_cells += req.est_cells

    def take_from_bin(self, bin_index: int, n: int, *, tail: bool) -> list[ClusterRequest]:
        """Remove *n* requests from one bin (head for execution, tail
        for stealing — the victim keeps its oldest work FIFO)."""
        q = self._backlog.get(bin_index)
        if not q:
            return []
        n = min(n, len(q))
        taken = [q.pop() for _ in range(n)] if tail else [q.popleft() for _ in range(n)]
        if tail:
            taken.reverse()  # preserve queue order among the stolen
        self._backlog_n -= len(taken)
        self._backlog_cells -= sum(r.est_cells for r in taken)
        return taken

    def receive_stolen(self, reqs: list[ClusterRequest], penalty_ms: float) -> None:
        """Thief-side: absorb stolen requests and pay the migration
        penalty (sequence re-transfer, cold cache) on the local clock."""
        for r in reqs:
            r.stolen += 1
            self.place(r)
        self.jobs_stolen_in += len(reqs)
        self.steals_initiated += 1
        self.steal_penalty_ms += penalty_ms
        self.clock_ms += penalty_ms

    def drain_backlog(self) -> list[ClusterRequest]:
        """Remove and return every queued request (deterministic bin
        order) — the failover path for a dead worker's queue."""
        orphans: list[ClusterRequest] = []
        for b in sorted(self._backlog):
            orphans.extend(self._backlog[b])
        self._backlog.clear()
        self._backlog_n = 0
        self._backlog_cells = 0
        return orphans

    # ----- execution --------------------------------------------------------

    def _pick_bin(self) -> int:
        """The next bin to serve: largest estimated backlog, tie-broken
        toward the shorter-length bin (deterministic)."""
        best_bin, best_cells = -1, -1
        for b in sorted(self._backlog):
            q = self._backlog[b]
            if not q:
                continue
            cells = sum(r.est_cells for r in q)
            if cells > best_cells:
                best_bin, best_cells = b, cells
        return best_bin

    def step(self) -> StepOutcome:
        """Serve one micro-batch from the heaviest backlog bin.

        Returns the requests served with their settled service handles
        — or, when the batch straddles ``down_at_ms``, the full orphan
        list for the failover coordinator.  The worker never settles
        cluster handles itself; the cluster does, through the ledger,
        so a dying worker cannot double-settle.
        """
        assert self.alive and self._backlog_n > 0
        bin_index = self._pick_bin()
        taken = self.take_from_bin(bin_index, self.spec.max_batch_jobs, tail=False)
        # Deadline gate at batch assembly: a request whose wall-clock
        # deadline has already passed never reaches the device.  The
        # expired list goes back to the cluster, which settles it
        # through the ledger (exactly-once even if the request expires
        # right as the worker dies).
        expired = [
            r for r in taken
            if r.deadline_ms is not None and self.clock_ms > r.deadline_ms
        ]
        batch = [r for r in taken if r.deadline_ms is None
                 or self.clock_ms <= r.deadline_ms]
        self.expired += len(expired)
        if not batch:
            return StepOutcome(expired=expired)
        before = self.service.clock_ms
        for req in batch:
            # The per-worker queue is sized to max_batch_jobs, so this
            # bounded submit cannot reject (with QoS, the cluster hands
            # workers a quota-free policy for the same reason).
            req.service_handle = self.service.submit(
                req.job.query, req.job.ref, tenant=req.tenant
            )
        self.service.flush()
        batch_ms = self.service.clock_ms - before
        # A degraded device does the same modeled work in more wall
        # time; the service clock (scores, per-batch metrics) is
        # untouched — only this worker's position on the shared
        # timeline dilates.
        if self.spec.degraded is not None:
            batch_ms = self.spec.degraded.dilate(self.clock_ms, batch_ms)
        self.clock_ms += batch_ms
        down = self.spec.down_at_ms
        if down is not None and self.clock_ms > down:
            # The device died while this batch was in flight: its
            # results never made it back.  Pin the clock to the death
            # instant and orphan everything this worker still holds.
            self.dead = True
            self.clock_ms = down
            self.lost_in_flight += len(batch)
            return StepOutcome(
                died=True,
                batch_ms=batch_ms,
                orphans=batch + self.drain_backlog(),
                lost_in_flight=len(batch),
                expired=expired,
            )
        self.served += len(batch)
        self.served_cells += sum(r.est_cells for r in batch)
        return StepOutcome(served=batch, batch_ms=batch_ms, expired=expired)
