"""Tests for multi-tenant QoS: admission-queue invariants, WFQ
dispatch, the overload controller's hysteresis, degradation tiers,
the service-level ladder (including the bit-identity contract when
QoS is a no-op), degraded results checked against the per-pair
algorithms under injected faults, and cluster tenant threading."""

import numpy as np
import pytest

from repro.align import ScoringScheme
from repro.align.banded import banded_sw_align
from repro.align.matrix import AlignmentResult
from repro.align.xdrop import xdrop_extend
from repro.baselines import make_jobs
from repro.cluster import AlignmentCluster, WorkerSpec
from repro.qos import (
    LADDER,
    SHED_LEVEL,
    OverloadController,
    OverloadPolicy,
    QoSPolicy,
    TenantPolicy,
    WFQAdmissionQueue,
    single_tenant_policy,
    tier_for,
)
from repro.resilience import CapacityExceeded, FaultPlan, RetryPolicy
from repro.serve import AlignmentService
from repro.serve.admission import AdmissionQueue
from repro.serve.bench import mixed_stream
from repro.serve.request import AlignmentRequest, RequestHandle


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _request(rid, job, *, priority=0, tenant="default"):
    return AlignmentRequest(
        job=job, handle=RequestHandle(rid, tenant=tenant),
        priority=priority, tenant=tenant,
    )


def _jobs(rng, n, lo=24, hi=48):
    return make_jobs(
        [
            (rng.integers(0, 4, int(rng.integers(lo, hi))).astype(np.uint8),
             rng.integers(0, 4, int(rng.integers(lo, hi))).astype(np.uint8))
            for _ in range(n)
        ]
    )


class TestAdmissionQueueInvariants:
    def test_fifo_within_equal_priority(self, rng):
        q = AdmissionQueue(max_depth=64)
        jobs = _jobs(rng, 12)
        for i, job in enumerate(jobs):
            q.offer(_request(i, job, priority=i % 2))
        order = [r.handle.request_id for r in q.pop_upto(len(jobs))]
        # Priority 1 first, then priority 0 — each FIFO by request id.
        assert order == [i for i in range(12) if i % 2] + \
            [i for i in range(12) if not i % 2]

    def test_queued_cells_exact_across_offer_and_pop(self, rng):
        q = AdmissionQueue(max_depth=64)
        jobs = _jobs(rng, 10)
        expected = 0
        for i, job in enumerate(jobs):
            q.offer(_request(i, job))
            expected += job.cells
            assert q.queued_cells == expected
        while len(q):
            expected -= q.pop().job.cells
            assert q.queued_cells == expected
        assert q.queued_cells == 0

    def test_admits_job_is_a_pure_check(self, rng):
        q = AdmissionQueue(max_depth=2)
        jobs = _jobs(rng, 3)
        assert q.admits_job(jobs[0]) is None
        # Checking admission must not enqueue or consume anything.
        assert len(q) == 0 and q.queued_cells == 0
        q.offer(_request(0, jobs[0]))
        q.offer(_request(1, jobs[1]))
        assert q.admits_job(jobs[2]) is not None
        assert len(q) == 2

    def test_rejected_try_submit_consumes_no_request_id(self, rng):
        svc = AlignmentService(compute_scores=False, max_queue_depth=2)
        jobs = _jobs(rng, 4)
        a = svc.try_submit(jobs[0].query, jobs[0].ref)
        b = svc.try_submit(jobs[1].query, jobs[1].ref)
        assert svc.try_submit(jobs[2].query, jobs[2].ref) is None
        svc.flush()
        c = svc.try_submit(jobs[3].query, jobs[3].ref)
        # The rejected submission left no gap in the id sequence.
        assert [a.request_id, b.request_id, c.request_id] == [0, 1, 2]

    def test_rejection_reason_counters(self, rng):
        svc = AlignmentService(compute_scores=False, max_queue_depth=1)
        jobs = _jobs(rng, 3)
        svc.try_submit(jobs[0].query, jobs[0].ref)
        svc.try_submit(jobs[1].query, jobs[1].ref)
        svc.try_submit(jobs[2].query, jobs[2].ref)
        assert svc.metrics().rejected_by_reason == {"depth": 2}


class TestWFQ:
    def _policy(self):
        return QoSPolicy(tenants=(
            TenantPolicy(name="heavy", weight=4.0),
            TenantPolicy(name="light", weight=1.0),
        ))

    def test_weighted_interleave(self, rng):
        q = WFQAdmissionQueue(self._policy(), max_depth=64)
        jobs = _jobs(rng, 16, lo=30, hi=31)  # near-equal cost jobs
        for i, job in enumerate(jobs):
            q.offer(_request(i, job, tenant="heavy" if i < 8 else "light"))
        first8 = [q.pop().tenant for _ in range(8)]
        # Weight 4 vs 1: the heavy tenant dominates early dispatch but
        # the light tenant is not starved.
        assert first8.count("heavy") >= 5
        assert "light" in [q.pop().tenant for _ in range(8)] + first8

    def test_single_tenant_degenerates_to_base_order(self, rng):
        base = AdmissionQueue(max_depth=64)
        wfq = WFQAdmissionQueue(single_tenant_policy(), max_depth=64)
        jobs = _jobs(rng, 10)
        for i, job in enumerate(jobs):
            base.offer(_request(i, job, priority=i % 3))
            wfq.offer(_request(i, job, priority=i % 3))
        got = [wfq.pop().handle.request_id for _ in range(len(jobs))]
        want = [base.pop().handle.request_id for _ in range(len(jobs))]
        assert got == want

    def test_tenant_quota_reason_codes(self, rng):
        policy = QoSPolicy(tenants=(
            TenantPolicy(name="capped", max_depth=1),
            TenantPolicy(name="free"),
        ))
        q = WFQAdmissionQueue(policy, max_depth=64)
        jobs = _jobs(rng, 3)
        q.offer(_request(0, jobs[0], tenant="capped"))
        why = q.why_rejected(jobs[1], tenant="capped")
        assert why is not None and why[0] == "tenant_depth"
        assert q.why_rejected(jobs[1], tenant="free") is None
        with pytest.raises(CapacityExceeded):
            q.offer(_request(1, jobs[1], tenant="capped"))

    def test_cells_accounting_matches_base(self, rng):
        q = WFQAdmissionQueue(self._policy(), max_depth=64)
        jobs = _jobs(rng, 6)
        for i, job in enumerate(jobs):
            q.offer(_request(i, job, tenant="heavy" if i % 2 else "light"))
        assert q.queued_cells == sum(j.cells for j in jobs)
        assert len(q) == 6
        q.pop_upto(6)
        assert q.queued_cells == 0 and len(q) == 0


class TestOverloadController:
    def test_hysteresis_escalates_and_recovers(self):
        c = OverloadController(OverloadPolicy(sustain_rounds=2, clear_rounds=2))
        assert c.observe(0.9) == 0          # first hot round: streak only
        assert c.observe(0.9) == 1          # sustained: escalate
        assert c.observe(0.5) == 1          # dead band: hold
        assert c.observe(0.9) == 1          # streak was reset by the dead band
        assert c.observe(0.9) == 2
        assert c.observe(0.1) == 2
        assert c.observe(0.1) == 1          # sustained cool: recover
        assert c.shifts == 3

    def test_force_overrides_and_releases(self):
        c = OverloadController()
        c.force(3)
        assert c.effective_level == 3
        assert c.observe(0.0) == 3          # forced wins over observations
        c.force(None)
        assert c.effective_level == 0
        with pytest.raises(ValueError):
            c.force(99)

    def test_ladder_tiers_monotone(self):
        for cls in ("premium", "standard", "best_effort"):
            tiers = [tier_for(level, cls) for level in range(len(LADDER))]
            assert tiers[0] == "exact"
            # Once degraded, a class never returns to exact at a
            # deeper level.
            degraded_seen = False
            for t in tiers:
                if t != "exact":
                    degraded_seen = True
                elif degraded_seen:
                    pytest.fail(f"{cls} returned to exact deeper in the ladder")
        assert tier_for(SHED_LEVEL, "premium") == "exact"


class TestServiceQoS:
    def test_single_tenant_no_overload_bit_identical(self):
        jobs = mixed_stream(60, b_fraction=0.2, duplicate_fraction=0.25,
                            seed=3, b_max_length=900)
        plain = AlignmentService(compute_scores=True)
        qos = AlignmentService(compute_scores=True, qos=single_tenant_policy())
        hp = plain.submit_jobs(jobs)
        hq = qos.submit_jobs(jobs)
        plain.flush()
        qos.flush()
        assert plain.clock_ms == qos.clock_ms
        for a, b in zip(hp, hq):
            assert a.result() == b.result()
            assert a.wait_ms == b.wait_ms and a.service_ms == b.service_ms
            assert b.tier == "exact" and not b.approximate
        assert plain.metrics().to_dict() == qos.metrics().to_dict()

    def _overloaded_service(self, rng, n=80):
        policy = QoSPolicy(
            tenants=(
                TenantPolicy(name="vip", tenant_class="premium", weight=4),
                TenantPolicy(name="std", tenant_class="standard", weight=2),
                TenantPolicy(name="crowd", tenant_class="best_effort", weight=1),
            ),
            overload=OverloadPolicy(sustain_rounds=1, clear_rounds=2),
        )
        svc = AlignmentService(compute_scores=True, qos=policy,
                               max_queue_depth=n, coalesce_window=8)
        jobs = _jobs(rng, n, lo=60, hi=120)
        tenants = ["vip", "std", "crowd"]
        handles = [
            svc.submit(j.query, j.ref, tenant=tenants[i % 3])
            for i, j in enumerate(jobs)
        ]
        return svc, handles

    def test_overload_degrades_and_flags_approximate(self, rng):
        svc, handles = self._overloaded_service(rng)
        svc.flush()
        qm = svc.qos_metrics()
        assert sum(qm.degraded.values()) > 0
        flagged = [h for h in handles if h.ok and h.tier != "exact"]
        assert len(flagged) == sum(qm.degraded.values())
        for h in flagged:
            assert h.approximate and h.tier in ("banded", "xdrop")
            assert h.result() is not None  # degraded but still scored
        # Premium stays exact on every rung below shed.
        vip = [h for h in handles if h.tenant == "vip" and h.ok]
        assert vip and all(h.tier == "exact" for h in vip)

    def test_degraded_results_never_cached(self, rng):
        svc, handles = self._overloaded_service(rng)
        svc.flush()
        degraded = [h for h in handles if h.ok and h.tier != "exact"]
        assert degraded and not any(h.from_cache for h in degraded)

    def test_shed_at_top_level_only_best_effort(self, rng):
        policy = QoSPolicy(tenants=(
            TenantPolicy(name="vip", tenant_class="premium"),
            TenantPolicy(name="crowd", tenant_class="best_effort"),
        ))
        svc = AlignmentService(compute_scores=False, qos=policy)
        svc.set_overload_level(SHED_LEVEL)
        jobs = _jobs(rng, 2)
        assert svc.try_submit(jobs[0].query, jobs[0].ref, tenant="crowd") is None
        assert svc.try_submit(jobs[1].query, jobs[1].ref, tenant="vip") is not None
        assert svc.metrics().rejected_by_reason == {"overload_shed": 1}
        qm = svc.qos_metrics()
        assert qm.shed == 1
        svc.set_overload_level(None)
        assert svc.try_submit(jobs[0].query, jobs[0].ref, tenant="crowd") is not None

    def test_set_overload_level_requires_qos(self):
        svc = AlignmentService(compute_scores=False)
        with pytest.raises(ValueError):
            svc.set_overload_level(1)

    def test_per_tenant_metrics_and_slo(self, rng):
        policy = QoSPolicy(tenants=(
            TenantPolicy(name="vip", tenant_class="premium", slo_ms=1e9),
        ))
        svc = AlignmentService(compute_scores=False, qos=policy)
        jobs = _jobs(rng, 6)
        for j in jobs[:4]:
            svc.submit(j.query, j.ref, tenant="vip")
        for j in jobs[4:]:
            svc.submit(j.query, j.ref, tenant="walkin")
        svc.flush()
        qm = svc.qos_metrics()
        vip = qm.tenants["vip"]
        assert vip.submitted == 4 and vip.completed == 4
        assert vip.slo_attainment == 1.0
        # Unknown tenants are admitted under the default class.
        assert qm.tenants["walkin"].tenant_class == "standard"
        assert qm.tenants["walkin"].completed == 2


class TestDegradedExactness:
    """Degraded results are pinned to the per-pair algorithms, never to
    the engine that produced them.  Injected faults fail some members
    of degraded chunks, so each surviving handle must still get its own
    pair's result from the chunk's one scoring call."""

    TENANTS = ("vip", "std", "crowd")
    #: Tenants on an approximate tier at each forced ladder level.
    DEGRADED = {1: {"crowd"}, 2: {"std", "crowd"}, 3: {"std", "crowd"}}

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_degraded_handles_match_per_pair_oracles(self, level):
        scoring = ScoringScheme()
        policy = QoSPolicy(
            tenants=(
                TenantPolicy(name="vip", tenant_class="premium"),
                TenantPolicy(name="std", tenant_class="standard"),
                TenantPolicy(name="crowd", tenant_class="best_effort"),
            ),
            xdrop_x=20, shed=False,
        )
        svc = AlignmentService(
            scoring=scoring, compute_scores=True, qos=policy,
            coalesce_window=32, max_queue_depth=256,
            fault_plan=FaultPlan(seed=5, transient_rate=0.25),
            retry_policy=RetryPolicy(max_attempts=1, cpu_fallback=False),
        )
        svc.set_overload_level(level)
        rng = np.random.default_rng(100 + level)
        pairs = []
        for _ in range(90):
            ref = rng.integers(0, 4, int(rng.integers(20, 160))).astype(np.uint8)
            query = ref[int(rng.integers(0, 8)):].copy()
            hit = rng.random(query.size) < 0.12
            query[hit] = rng.integers(0, 4, int(hit.sum()))
            pairs.append((ref, query))
        handles = [
            svc.submit(q, r, tenant=self.TENANTS[i % 3])
            for i, (r, q) in enumerate(pairs)
        ]
        svc.flush()
        tiers = {"banded": 0, "xdrop": 0}
        failed_degraded = 0
        for h, (r, q) in zip(handles, pairs, strict=True):
            if not h.ok:
                assert h.failure.job_index == h.request_id
                failed_degraded += h.tenant in self.DEGRADED[level]
                continue
            if h.tier == "banded":
                band = h.tier_params["band"]
                assert h.result() == banded_sw_align(r, q, band, scoring)
            elif h.tier == "xdrop":
                e = xdrop_extend(r, q, h.tier_params["x"], scoring)
                assert h.result() == AlignmentResult(
                    score=max(e.score, 0), ref_end=e.ref_end,
                    query_end=e.query_end)
            else:
                assert h.tenant not in self.DEGRADED[level]
                continue
            tiers[h.tier] += 1
        assert failed_degraded > 0
        assert tiers["banded" if level == 1 else "xdrop"] > 0
        if level == 2:
            assert tiers["banded"] > 0


class TestClusterQoS:
    def _policy(self):
        return QoSPolicy(
            tenants=(
                TenantPolicy(name="vip", tenant_class="premium", weight=4),
                TenantPolicy(name="crowd", tenant_class="best_effort",
                             max_depth=10),
            ),
            overload=OverloadPolicy(sustain_rounds=1, clear_rounds=2),
        )

    def test_tenant_threads_to_worker_and_back(self, rng):
        cl = AlignmentCluster([WorkerSpec("w0")], compute_scores=True,
                              qos=self._policy())
        jobs = _jobs(rng, 6)
        handles = [cl.submit_jobs([j], tenant="vip")[0] for j in jobs]
        cl.run()
        assert all(h.ok and h.tenant == "vip" for h in handles)
        wm = cl.qos_metrics()["workers"]["w0"]
        assert wm["tenants"]["vip"]["completed"] == 6

    def test_ingress_quota_settles_as_failed(self, rng):
        cl = AlignmentCluster([WorkerSpec("w0")], compute_scores=False,
                              qos=self._policy())
        jobs = _jobs(rng, 14)
        handles = [cl.submit_jobs([j], tenant="crowd")[0] for j in jobs]
        rejected = [h for h in handles if h.done and not h.ok]
        assert len(rejected) == 4  # 14 submitted, quota 10
        assert cl.quota_rejections == {"tenant_depth": 4}
        cl.run()
        assert all(h.done for h in handles)

    def test_fleet_level_forces_worker_degradation(self, rng):
        cl = AlignmentCluster(
            [WorkerSpec("w0"), WorkerSpec("w1")], compute_scores=False,
            qos=QoSPolicy(
                tenants=(TenantPolicy(name="std", tenant_class="standard"),),
                overload=OverloadPolicy(sustain_rounds=1, clear_rounds=2),
            ),
            qos_backlog_capacity=8,
        )
        jobs = _jobs(rng, 40, lo=60, hi=120)
        handles = [cl.submit_jobs([j], tenant="std")[0] for j in jobs]
        cl.run()
        qm = cl.qos_metrics()
        assert qm["level_shifts"] > 0 and qm["peak_pressure"] > 1.0
        degraded = [h for h in handles if h.ok and h.tier != "exact"]
        worker_degraded = sum(
            sum(w["degraded"].values()) for w in qm["workers"].values()
        )
        assert worker_degraded == len(degraded) > 0

    def test_qos_cluster_rerun_deterministic(self, rng):
        jobs = _jobs(rng, 24, lo=40, hi=90)

        def run():
            cl = AlignmentCluster(
                [WorkerSpec("w0"), WorkerSpec("w1")], compute_scores=False,
                qos=self._policy(), qos_backlog_capacity=12,
            )
            hs = [cl.submit_jobs([j], tenant="crowd" if i % 2 else "vip")[0]
                  for i, j in enumerate(jobs)]
            cl.run()
            return ([(h.ok, h.tier, h.completed_ms) for h in hs],
                    cl.qos_metrics())

        assert run() == run()
