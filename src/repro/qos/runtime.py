"""Per-service QoS runtime: policy + controller + recorder in one box.

:class:`QoSState` is what an :class:`~repro.serve.service.
AlignmentService` holds when built with ``qos=QoSPolicy(...)``.  It
owns the :class:`~repro.qos.overload.OverloadController` and the
:class:`~repro.qos.metrics.QoSRecorder` and answers the three
questions the service asks on its hot paths:

* at submission — *should this tenant be shed right now?*
  (:meth:`shed_reason`: only best-effort tenants, only at the top
  ladder level);
* at drain — *what tier does this tenant's work run at?*
  (:meth:`tier_for`, from the effective ladder level);
* at settlement — *record the outcome under the right tenant*.
"""

from __future__ import annotations

from ..align.matrix import AlignmentResult
from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..engine import ExecutionEngine
from .metrics import QoSMetrics, QoSRecorder
from .overload import OverloadController
from .policy import QoSPolicy
from .tiers import (
    SHED_LEVEL,
    TIER_BANDED,
    proxy_job,
    score_degraded,
    tier_engine,
    tier_for,
    tier_params,
)

__all__ = ["QoSState"]


class QoSState:
    """Everything QoS-shaped one service carries."""

    def __init__(self, policy: QoSPolicy):
        self.policy = policy
        self.controller = OverloadController(policy.overload)
        self.recorder = QoSRecorder(policy)
        self._engines: dict[str, ExecutionEngine] = {}

    # ----- admission ----------------------------------------------------

    def shed_reason(self, tenant: str) -> str | None:
        """Why *tenant*'s submission is shed right now (None = admit).

        Shedding is the ladder's last rung: best-effort tenants only,
        and only while the effective level has exhausted every
        approximate tier below it.
        """
        if not self.policy.shed:
            return None
        if self.controller.effective_level < min(SHED_LEVEL, self.policy.overload.max_level):
            return None
        if self.policy.tenant(tenant).tenant_class != "best_effort":
            return None
        return (
            f"overload shed: best-effort tenant {tenant!r} refused at "
            f"degradation level {self.controller.effective_level}"
        )

    # ----- drain --------------------------------------------------------

    def begin_round(self, pressure: float) -> int:
        """Feed one drain round's queue pressure; returns the level."""
        return self.controller.observe(pressure)

    def tier_for(self, tenant: str) -> str:
        return tier_for(
            self.controller.effective_level, self.policy.tenant(tenant).tenant_class
        )

    def engine(self, tier: str) -> ExecutionEngine:
        """The configured engine of an approximate *tier*.

        The policy is fixed, so each tier's engine is resolved on first
        use and reused for every later job.
        """
        engine = self._engines.get(tier)
        if engine is None:
            engine = self._engines[tier] = tier_engine(
                tier,
                error_rate=self.policy.banded_error_rate,
                xdrop_x=self.policy.xdrop_x,
            )
        return engine

    def proxy_job(self, tier: str, job: ExtensionJob) -> ExtensionJob:
        return proxy_job(job, tier, self.engine(TIER_BANDED))

    def score(self, tier: str, jobs: list[ExtensionJob],
              scoring: ScoringScheme) -> list[AlignmentResult]:
        """Score one chunk of *tier* jobs in one engine call."""
        return score_degraded(jobs, self.engine(tier), scoring)

    def params(self, tier: str, job: ExtensionJob) -> dict[str, int]:
        """The bound parameters *job* was scored under at *tier*.

        Stamped onto the degraded handle's ``tier_params`` so results
        from two different bounds can never be conflated downstream.
        """
        return tier_params(job, tier, self.engine(tier))

    # ----- settlement ---------------------------------------------------

    def record_submitted(self, tenant: str) -> None:
        self.recorder.record_submitted(tenant)

    def record_rejected(self, tenant: str, *, shed: bool = False) -> None:
        self.recorder.record_rejected(tenant, shed=shed)

    def record_settled(self, tenant: str, *, ok: bool, tier: str,
                       latency_ms: float, wait_ms: float) -> None:
        self.recorder.record_settled(
            tenant, ok=ok, tier=tier, latency_ms=latency_ms, wait_ms=wait_ms
        )

    def snapshot(self) -> QoSMetrics:
        return self.recorder.snapshot(self.controller)
