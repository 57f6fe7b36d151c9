"""The in-process alignment service: admission -> binning -> kernel -> demux.

:class:`AlignmentService` is the layer a deployment (a read mapper, an
RPC front end, a stream consumer) talks to instead of slicing batches
by hand.  One instance owns:

1. an :class:`~repro.serve.admission.AdmissionQueue` with bounded
   backpressure (``CapacityExceeded`` at the front door, never OOM in
   the back);
2. a :class:`~repro.serve.binning.LengthBinner` +
   :class:`~repro.serve.binning.BinTuner` that coalesce pending
   requests into near-homogeneous micro-batches, each run at its
   bin's auto-tuned subwarp size;
3. a content-addressed :class:`~repro.serve.cache.ResultCache` so
   duplicate extension jobs (ubiquitous in repeat-heavy seeding
   output) skip the kernel entirely;
4. the :func:`~repro.resilience.isolation.run_isolated` executor, so
   per-request faults quarantine or recover without poisoning the
   batch;
5. a :class:`~repro.serve.metrics.MetricsRecorder` whose snapshots are
   deterministic for a deterministic request stream.

Time is the *modeled* service clock: it advances by the modeled
duration of every micro-batch the service executes (including retry
backoff and CPU-fallback charges), which is what makes queue-wait
deadlines, latency percentiles, and throughput comparisons exact and
reproducible rather than wall-clock noise.

The service is synchronous by design — ``submit`` enqueues,
``drain``/``flush`` execute — so every future scaling layer (async
facades, sharding across devices) composes on top of a deterministic
core instead of fighting it.
"""

from __future__ import annotations

from dataclasses import replace

from ..align.matrix import AlignmentResult
from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..core.config import SalobaConfig
from ..engine.base import resolve_engine
from ..gpusim.device import GTX1650, DeviceProfile
from ..obs.tracer import NULL_TRACER
from ..resilience.errors import AlignmentError, CapacityExceeded
from ..resilience.faults import FaultPlan
from ..resilience.isolation import run_isolated
from ..resilience.report import FailureRecord
from ..resilience.retry import RetryPolicy
from ..seqs.alphabet import encode
from .admission import AdmissionQueue
from .binning import DEFAULT_BIN_EDGES, BinTuner, LengthBinner
from .cache import ResultCache, cache_key
from .metrics import MetricsRecorder, ServiceMetrics
from .request import AlignmentRequest, RequestHandle

__all__ = ["AlignmentService"]


class AlignmentService:
    """High-throughput alignment service over the modeled device.

    Parameters
    ----------
    scoring / config / device:
        As for :class:`~repro.core.aligner.SalobaAligner`; *config*
        supplies the default subwarp size bins start from before
        auto-tuning.
    compute_scores:
        True (default) resolves handles with real
        :class:`AlignmentResult` values; False runs the service in
        model-only mode (timing and metrics, ``result() is None``) —
        the mode the throughput benchmarks use.
    fault_plan / retry_policy:
        Injected device faults and the response policy, exactly as in
        the resilience layer.
    max_queue_depth / max_queued_cells:
        Admission-control budgets (requests / DP cells).
    bin_edges / autotune_subwarp:
        Length-bin geometry and whether each bin tunes its own subwarp
        size on first traffic.
    max_batch_jobs:
        Micro-batch size cap per kernel launch (per-bin overrides via
        :meth:`tune`).
    cache_bytes:
        Result-cache byte budget; 0 disables caching.
    coalesce_window:
        Requests considered per :meth:`drain` round — the batching
        horizon trading latency for batch quality.
    min_bin_fill:
        Bins with fewer pending requests than this merge into their
        larger neighbour for the round, so sparse length classes do
        not each pay a full kernel-launch overhead.  1 disables
        merging (every nonempty bin launches its own micro-batch).
    tracer:
        A :class:`repro.obs.Tracer` to record the span tree of every
        drain round on the modeled clock (``service.drain`` ->
        ``bin.tune``/``bin.run`` -> ``batch`` -> ``kernel.launch`` ->
        gpusim phases).  Defaults to the no-op
        :data:`~repro.obs.NULL_TRACER`; tracing off costs one
        truthiness check per site.
    qos:
        A :class:`~repro.qos.QoSPolicy` enabling multi-tenant serving:
        per-tenant quotas, weighted-fair dispatch across tenants
        (:class:`~repro.qos.WFQAdmissionQueue` replaces the plain
        admission queue), SLO accounting, and graceful degradation to
        the banded / x-drop approximate tiers under sustained overload
        (docs/QOS.md).  ``None`` (default) is the unchanged
        single-tenant path; a QoS-enabled service with one tenant and
        no overload stays bit-identical to it.
    engine:
        Exact-scoring execution backend (:mod:`repro.engine`): a
        registered name (``"reference"`` per-pair dataflow — the
        default; ``"batched"`` cross-query anti-diagonal sweep) or an
        :class:`~repro.engine.ExecutionEngine` instance.  Exact engines
        only change host wall-clock speed in ``compute_scores=True``
        mode: scores stay bit-identical and the modeled clock,
        metrics, and traces are byte-identical whichever engine runs.

    Examples
    --------
    >>> from repro.serve import AlignmentService
    >>> svc = AlignmentService()
    >>> h = svc.submit("ACGTACGTAC", "ACGTACGTAC")
    >>> svc.flush()
    >>> h.result().score
    10
    """

    def __init__(
        self,
        scoring: ScoringScheme | None = None,
        config: SalobaConfig | None = None,
        device: DeviceProfile = GTX1650,
        *,
        compute_scores: bool = True,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        max_queue_depth: int = 10_000,
        max_queued_cells: int | None = None,
        bin_edges: tuple[int, ...] = DEFAULT_BIN_EDGES,
        autotune_subwarp: bool = True,
        max_batch_jobs: int = 4096,
        cache_bytes: int = 16 << 20,
        coalesce_window: int = 8192,
        min_bin_fill: int = 32,
        tracer=None,
        engine=None,
        qos=None,
    ):
        if max_batch_jobs < 1:
            raise ValueError("max_batch_jobs must be positive")
        if coalesce_window < 1:
            raise ValueError("coalesce_window must be positive")
        if min_bin_fill < 1:
            raise ValueError("min_bin_fill must be positive")
        self.scoring = scoring or ScoringScheme()
        self.config = config or SalobaConfig()
        self.device = device
        self.compute_scores = compute_scores
        self.retry_policy = retry_policy or RetryPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The engine shared by every bin.
        self.engine = resolve_engine(engine)
        # QoS is strictly opt-in: without a policy the service keeps the
        # plain admission queue and every QoS branch below is dead code,
        # which is how the single-tenant path stays bit-identical.
        if qos is not None:
            from ..qos.runtime import QoSState
            from ..qos.wfq import WFQAdmissionQueue

            self._qos = QoSState(qos)
            self.queue = WFQAdmissionQueue(
                qos, max_depth=max_queue_depth, max_cells=max_queued_cells
            )
        else:
            self._qos = None
            self.queue = AdmissionQueue(
                max_depth=max_queue_depth, max_cells=max_queued_cells
            )
        self.binner = LengthBinner(bin_edges)
        self.tuner = BinTuner(
            self.scoring, self.config, device,
            fault_plan=fault_plan, autotune=autotune_subwarp,
            tracer=self.tracer,
            engine=self.engine,
        )
        self.cache = ResultCache(max_bytes=cache_bytes) if cache_bytes else None
        self.max_batch_jobs = max_batch_jobs
        self.coalesce_window = coalesce_window
        self.min_bin_fill = min_bin_fill
        self.clock_ms = 0.0
        self._recorder = MetricsRecorder()
        self._next_id = 0
        self._bin_batch_sizes: dict[int, int] = {}

    # ----- submission ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted but not yet dispatched."""
        return self.queue.depth

    def _new_handle(self, tenant: str = "default") -> RequestHandle:
        handle = RequestHandle(
            self._next_id, submitted_ms=self.clock_ms, tenant=tenant
        )
        self._next_id += 1
        return handle

    def submit(self, query, ref, *, priority: int = 0,
               deadline_ms: float | None = None,
               tenant: str = "default") -> RequestHandle:
        """Enqueue one ``(query, reference)`` pair.

        Raises :class:`CapacityExceeded` when admission control
        rejects the request (bounded backpressure — nothing was
        enqueued and no handle exists).  Malformed sequences do *not*
        raise: the returned handle resolves immediately as failed with
        a ``JobRejected`` record, mirroring ``SalobaAligner.run``.

        *tenant* is the identity used for quota accounting, fair
        dispatch, and SLO metrics when the service has a QoS policy;
        without one it is recorded on the handle and otherwise inert.
        """
        return self._submit(query, ref, priority=priority,
                            deadline_ms=deadline_ms, tenant=tenant,
                            reject_raises=True)

    def try_submit(self, query, ref, *, priority: int = 0,
                   deadline_ms: float | None = None,
                   tenant: str = "default") -> RequestHandle | None:
        """Like :meth:`submit` but returns ``None`` on admission
        rejection (load-shedding callers that prefer a flag to an
        exception); the rejection still counts in the metrics."""
        return self._submit(query, ref, priority=priority,
                            deadline_ms=deadline_ms, tenant=tenant,
                            reject_raises=False)

    def _reject(self, reason: str, message: str, tenant: str,
                reject_raises: bool, *, shed: bool = False):
        self._recorder.record_rejection(reason)
        if self._qos is not None:
            self._qos.record_rejected(tenant, shed=shed)
        if reject_raises:
            raise CapacityExceeded(message)
        return None

    def _submit(self, query, ref, *, priority, deadline_ms, tenant, reject_raises):
        try:
            job = ExtensionJob(ref=encode(ref), query=encode(query))
        except (AlignmentError, ValueError, TypeError) as exc:
            name = type(exc).__name__ if isinstance(exc, AlignmentError) else "JobRejected"
            self._recorder.submitted += 1
            handle = self._new_handle(tenant)
            record = FailureRecord(handle.request_id, name, str(exc), attempts=0)
            handle._fail(record, completed_ms=self.clock_ms, wait_ms=0.0)
            self._recorder.record_failure(name, 0.0)
            if self._qos is not None:
                self._qos.record_submitted(tenant)
                self._qos_settled(handle)
            return handle
        # Admission is checked before any id or metrics slot is
        # allocated: a rejected submission never becomes a request, so
        # the accepted subset of a stream gets the same ids whether or
        # not rejections were interleaved.
        if self._qos is not None:
            shed = self._qos.shed_reason(tenant)
            if shed is not None:
                return self._reject("overload_shed", shed, tenant,
                                    reject_raises, shed=True)
        why = self.queue.why_rejected(job, tenant=tenant)
        if why is not None:
            return self._reject(why[0], why[1], tenant, reject_raises)
        self._recorder.submitted += 1
        if self._qos is not None:
            self._qos.record_submitted(tenant)
        handle = self._new_handle(tenant)
        request = AlignmentRequest(
            job=job, handle=handle, priority=priority,
            deadline_ms=deadline_ms, tenant=tenant,
        )
        self.queue.offer(request)
        return handle

    def submit_jobs(self, jobs: list[ExtensionJob], *, priority: int = 0,
                    deadline_ms: float | None = None,
                    tenant: str = "default") -> list[RequestHandle]:
        """Bulk-enqueue pre-built jobs (the benchmark/mapper path)."""
        return [
            self.submit(j.query, j.ref, priority=priority,
                        deadline_ms=deadline_ms, tenant=tenant)
            for j in jobs
        ]

    # ----- execution -------------------------------------------------------

    def drain(self, max_requests: int | None = None) -> int:
        """Serve one round: coalesce, bin, execute, demultiplex.

        Returns the number of requests resolved this round.  Requests
        beyond the coalescing window stay queued for the next round.

        The window counts **executable** jobs: requests resolved
        without touching the device — queue-deadline expiries and
        cache hits — do not consume the batching budget, so a round
        following a hot-cache burst still composes full micro-batches
        instead of launching a sliver.  The refill loop is bounded by
        the queue depth (every iteration pops exactly one request) and
        pops in the same priority order as a bulk pop, so rounds stay
        deterministic.
        """
        window = self.coalesce_window if max_requests is None else max_requests
        if not self.queue.depth:
            return 0
        level = 0
        if self._qos is not None:
            # One pressure observation per round, from the backlog at
            # round start; the returned ladder level holds for the
            # whole round so tier routing is stable within it.
            level = self._qos.begin_round(self._queue_pressure())
        tr = self.tracer
        span = None
        if tr:
            tr.sync(self.clock_ms)
            span = tr.begin("service.drain")
        popped = cache_hits = expired = executable = resolved = 0
        bins: dict[int, list[tuple[AlignmentRequest, bytes | None]]] = {}
        degraded: dict[str, list[AlignmentRequest]] = {}
        while executable < window:
            got = self.queue.pop_upto(1)
            if not got:
                break
            req = got[0]
            popped += 1
            if req.expired(self.clock_ms):
                self._fail_request(
                    req, "DeadlineExceeded",
                    f"request waited past its {req.deadline_ms:g} ms queue deadline",
                )
                expired += 1
                resolved += 1
                continue
            key = None
            if self.cache is not None:
                key = cache_key(req.job, self.scoring)
                entry = self.cache.get(key, scored=self.compute_scores)
                if entry is not None:
                    wait = self.clock_ms - req.submitted_ms
                    req.handle._resolve(
                        entry.result if self.compute_scores else None,
                        completed_ms=self.clock_ms, wait_ms=wait,
                        service_ms=0.0, from_cache=True,
                    )
                    self._recorder.record_completion(wait, 0.0)
                    self._qos_settled(req.handle)
                    cache_hits += 1
                    resolved += 1
                    continue
            if self._qos is not None:
                # Cache hits above stay exact for free; only work that
                # would touch the device is considered for degradation.
                tier = self._qos.tier_for(req.tenant)
                if tier != "exact":
                    degraded.setdefault(tier, []).append(req)
                    executable += 1
                    continue
            bins.setdefault(self.binner.bin_index(req.job), []).append((req, key))
            executable += 1
        for bin_index, members in self._merge_sparse_bins(bins):
            resolved += self._run_bin(bin_index, members)
        for tier in sorted(degraded):
            resolved += self._run_degraded(tier, degraded[tier])
        if span is not None:
            span.attrs.update(
                popped=popped, cache_hits=cache_hits, expired=expired,
                executable=executable, resolved=resolved,
            )
            if self._qos is not None:
                span.attrs["level"] = level
                span.attrs["degraded"] = sum(len(v) for v in degraded.values())
            tr.sync(self.clock_ms)
            tr.end(span)
        return resolved

    def _queue_pressure(self) -> float:
        """Fractional occupancy of the admission budgets (0..1+)."""
        pressure = self.queue.depth / self.queue.max_depth
        if self.queue.max_cells:
            pressure = max(pressure, self.queue.queued_cells / self.queue.max_cells)
        return pressure

    def _merge_sparse_bins(
        self, bins: dict[int, list[tuple[AlignmentRequest, bytes | None]]]
    ) -> list[tuple[int, list[tuple[AlignmentRequest, bytes | None]]]]:
        """Fold underfilled bins into their larger neighbour.

        A bin with fewer than ``min_bin_fill`` requests carries upward
        into the next nonempty bin; a trailing small remainder joins
        the last group emitted.  A merged group always runs under its
        *largest* constituent bin: long jobs in a small subwarp stall
        the whole batch (the paper's imbalance effect), while short
        jobs riding a large subwarp cost almost nothing.  Merging is
        deterministic per round, so duplicates still always share a
        group and coalesce.
        """
        if self.min_bin_fill <= 1 or len(bins) <= 1:
            return [(b, bins[b]) for b in sorted(bins)]
        merged: list[tuple[int, list[tuple[AlignmentRequest, bytes | None]]]] = []
        carry: list[tuple[AlignmentRequest, bytes | None]] = []
        carry_max = -1
        for b in sorted(bins):
            group = carry + bins[b]
            if len(group) < self.min_bin_fill:
                carry = group
                carry_max = b
                continue
            merged.append((b, group))  # ascending order: b caps the group
            carry = []
        if carry:
            if merged:
                last_bin, last_group = merged[-1]
                merged[-1] = (max(last_bin, carry_max), last_group + carry)
            else:
                merged.append((carry_max, carry))
        return merged

    def flush(self) -> None:
        """Drain rounds until no request is pending."""
        while self.queue.depth:
            self.drain()

    def _fail_request(self, req: AlignmentRequest, error: str, message: str,
                      *, attempts: int = 0) -> None:
        wait = self.clock_ms - req.submitted_ms
        record = FailureRecord(req.request_id, error, message, attempts=attempts)
        req.handle._fail(record, completed_ms=self.clock_ms, wait_ms=wait)
        self._recorder.record_failure(error, wait)
        self._qos_settled(req.handle)

    def _qos_settled(self, handle: RequestHandle) -> None:
        """Mirror one resolved handle into the per-tenant QoS metrics."""
        if self._qos is None:
            return
        self._qos.record_settled(
            handle.tenant, ok=handle.ok, tier=handle.tier,
            latency_ms=handle.completed_ms - handle.submitted_ms,
            wait_ms=handle.wait_ms,
        )

    def _run_bin(self, bin_index: int,
                 members: list[tuple[AlignmentRequest, bytes | None]]) -> int:
        """Serve one bin's round: dedup, chunk, execute, demultiplex.

        Duplicates are coalesced across the *whole* bin before
        chunking (identical content always lands in the same bin, so
        this catches every in-round repeat): one leader executes,
        followers reuse its outcome.  Content-keyed fault injection
        guarantees the follower would have faulted identically anyway.
        """
        leaders: list[tuple[AlignmentRequest, bytes | None]] = []
        followers: list[tuple[AlignmentRequest, int]] = []
        seen: dict[bytes, int] = {}
        for req, key in members:
            if key is not None and key in seen:
                followers.append((req, seen[key]))
            else:
                if key is not None:
                    seen[key] = len(leaders)
                leaders.append((req, key))
        # settled[i] = (failure record or None, result, completion ms,
        # batch start ms, batch ms) for leader i — followers read it.
        settled: list[tuple[FailureRecord | None, AlignmentResult | None,
                            float, float, float]] = []
        tr = self.tracer
        bin_span = None
        if tr:
            bin_span = tr.begin(
                "bin.run", bin=bin_index, label=self.binner.label(bin_index),
                requests=len(members), leaders=len(leaders),
                followers=len(followers),
            )
            if self._qos is not None:
                bin_span.attrs["tenants"] = sorted({r.tenant for r, _ in members})
        cap = self._bin_batch_sizes.get(bin_index, self.max_batch_jobs)
        for lo in range(0, len(leaders), cap):
            chunk = leaders[lo : lo + cap]
            jobs = [req.job for req, _ in chunk]
            batch_span = tr.begin("batch", bin=bin_index, jobs=len(jobs)) if tr else None
            kernel = self.tuner.kernel_for(bin_index, jobs)
            outcome = run_isolated(
                kernel, jobs, self.device,
                policy=self.retry_policy,
                compute_scores=self.compute_scores,
                scoring=self.scoring,
                tracer=tr,
            )
            start_ms = self.clock_ms
            batch_ms = outcome.total_ms
            self.clock_ms += batch_ms
            if batch_span is not None:
                batch_span.attrs["batch_ms"] = batch_ms
                tr.sync(self.clock_ms)
                tr.end(batch_span)
            self._recorder.record_batch(
                len(jobs), self.binner.label(bin_index), batch_ms
            )
            n_fallback = sum(1 for r in outcome.failures.recovered if r.fallback)
            self._recorder.fallbacks += n_fallback
            self._recorder.retries_recovered += (
                len(outcome.failures.recovered) - n_fallback
            )
            failed = {rec.job_index: rec for rec in outcome.failures.entries}
            for local, (req, key) in enumerate(chunk):
                rec = failed.get(local)
                result: AlignmentResult | None = None
                if rec is None and self.compute_scores:
                    assert outcome.results is not None
                    result = outcome.results[local]
                settled.append((rec, result, self.clock_ms, start_ms, batch_ms))
                self._settle(req, rec, result, completed_ms=self.clock_ms,
                             start_ms=start_ms, batch_ms=batch_ms,
                             key=key, from_cache=False)
        for req, leader_pos in followers:
            rec, result, completed_ms, start_ms, batch_ms = settled[leader_pos]
            self._recorder.coalesced += 1
            self._settle(req, rec, result, completed_ms=completed_ms,
                         start_ms=start_ms, batch_ms=batch_ms,
                         key=None, from_cache=True)
        if bin_span is not None:
            tr.end(bin_span)
        return len(members)

    def _settle(self, req: AlignmentRequest, rec: FailureRecord | None,
                result: AlignmentResult | None, *, completed_ms: float,
                start_ms: float, batch_ms: float, key: bytes | None,
                from_cache: bool) -> None:
        """Resolve one handle from its (leader's) execution outcome."""
        wait = start_ms - req.submitted_ms
        if rec is not None:
            record = replace(rec, job_index=req.request_id)
            req.handle._fail(record, completed_ms=completed_ms, wait_ms=wait)
            self._recorder.record_failure(record.error, wait)
            self._qos_settled(req.handle)
            return
        req.handle._resolve(
            result, completed_ms=completed_ms, wait_ms=wait,
            service_ms=batch_ms, from_cache=from_cache,
        )
        self._recorder.record_completion(wait, batch_ms)
        self._qos_settled(req.handle)
        if not from_cache and self.cache is not None and key is not None:
            self.cache.put(key, result, scored=self.compute_scores)

    def _run_degraded(self, tier: str, members: list[AlignmentRequest]) -> int:
        """Serve one approximate tier's round (docs/QOS.md).

        Modeled time comes from *proxy jobs* — each job's shorter
        sequence sliced to the tier's band width — run through the
        same kernel / ``run_isolated`` path as exact batches in
        model-only mode, so degraded durations are directly comparable
        to exact ones and fully deterministic (x-drop's data-dependent
        cell count never feeds the clock).  Scores (scored mode) come
        from the tier's capability-resolved engine on the full
        sequences (:func:`repro.qos.tiers.tier_engine`), and the
        handle's ``tier`` plus ``tier_params`` — the effective
        ``band`` / ``x`` bound — flag the result as approximate and
        say which bound produced it, so two different bounds can never
        be conflated by downstream keying.  Degraded results never
        enter the result cache — cache entries are exact by contract
        (and :func:`repro.serve.cache.cache_key` refuses to conflate
        tiers regardless).
        """
        assert self._qos is not None
        tr = self.tracer
        proxied = [(req, self._qos.proxy_job(tier, req.job)) for req in members]
        bins: dict[int, list[tuple[AlignmentRequest, ExtensionJob]]] = {}
        for req, proxy in proxied:
            bins.setdefault(self.binner.bin_index(proxy), []).append((req, proxy))
        resolved = 0
        tier_span = None
        if tr:
            tier_span = tr.begin(
                "tier.run", tier=tier, requests=len(members),
                tenants=sorted({r.tenant for r in members}),
            )
        for bin_index in sorted(bins):
            group = bins[bin_index]
            cap = self._bin_batch_sizes.get(bin_index, self.max_batch_jobs)
            for lo in range(0, len(group), cap):
                chunk = group[lo : lo + cap]
                jobs = [proxy for _, proxy in chunk]
                batch_span = None
                if tr:
                    batch_span = tr.begin(
                        "batch", bin=bin_index, jobs=len(jobs), tier=tier
                    )
                kernel = self.tuner.kernel_for(bin_index, jobs)
                outcome = run_isolated(
                    kernel, jobs, self.device,
                    policy=self.retry_policy,
                    compute_scores=False,
                    scoring=self.scoring,
                    tracer=tr,
                )
                start_ms = self.clock_ms
                batch_ms = outcome.total_ms
                self.clock_ms += batch_ms
                if batch_span is not None:
                    batch_span.attrs["batch_ms"] = batch_ms
                    tr.sync(self.clock_ms)
                    tr.end(batch_span)
                self._recorder.record_batch(
                    len(jobs), f"{tier}:{self.binner.label(bin_index)}", batch_ms
                )
                n_fallback = sum(1 for r in outcome.failures.recovered if r.fallback)
                self._recorder.fallbacks += n_fallback
                self._recorder.retries_recovered += (
                    len(outcome.failures.recovered) - n_fallback
                )
                failed = {rec.job_index: rec for rec in outcome.failures.entries}
                for local, (req, _) in enumerate(chunk):
                    rec = failed.get(local)
                    wait = start_ms - req.submitted_ms
                    if rec is not None:
                        record = replace(rec, job_index=req.request_id)
                        req.handle._fail(
                            record, completed_ms=self.clock_ms, wait_ms=wait
                        )
                        self._recorder.record_failure(record.error, wait)
                        self._qos_settled(req.handle)
                        resolved += 1
                        continue
                    result = None
                    if self.compute_scores:
                        result = self._qos.score(tier, req.job, self.scoring)
                    req.handle._resolve(
                        result, completed_ms=self.clock_ms, wait_ms=wait,
                        service_ms=batch_ms, tier=tier,
                        tier_params=self._qos.params(tier, req.job),
                    )
                    self._recorder.record_completion(wait, batch_ms)
                    self._qos_settled(req.handle)
                    resolved += 1
        if tier_span is not None:
            tr.end(tier_span)
        return resolved

    # ----- mid-run reconfiguration -----------------------------------------

    def resize_cache(self, max_bytes: int) -> None:
        """Resize (or create) the result cache in place.

        Shrinking evicts LRU entries past the new budget; growing
        keeps the hot set.  A service built with ``cache_bytes=0``
        gains a fresh cache when resized above zero.
        """
        if max_bytes < 0:
            raise ValueError("cache byte budget cannot be negative")
        if self.cache is None:
            if max_bytes:
                self.cache = ResultCache(max_bytes=max_bytes)
            return
        self.cache.resize(max_bytes)

    def set_engine(self, engine) -> None:
        """Swap the exact-scoring backend without disturbing tuning.

        Already-tuned bins keep their chosen subwarp sizes (their
        kernels are rebuilt against the new engine), so the modeled
        clock, metrics, and traces are unaffected — engines only
        change host wall-clock speed.
        """
        self.engine = resolve_engine(engine)
        self.tuner.set_engine(self.engine)

    # ----- tuning / observability ------------------------------------------

    def tune(self, sample_jobs: list[ExtensionJob], *,
             candidates: tuple[int, ...] = (256, 1024, 4096)) -> dict[str, dict]:
        """Pre-tune bins on a workload sample (subwarp + micro-batch size).

        Without this, each bin tunes its subwarp lazily on first
        traffic and uses ``max_batch_jobs``; with it, batch sizes come
        from :meth:`BatchRunner.tune_batch_size` per bin.  Returns
        ``{bin label: {"subwarp": s, "batch_size": b, "jobs": n,
        "engine": name}}`` — *engine* is the service engine's registry
        name, shared by every bin.
        """
        by_bin: dict[int, list[ExtensionJob]] = {}
        for job in sample_jobs:
            by_bin.setdefault(self.binner.bin_index(job), []).append(job)
        report: dict[str, dict] = {}
        for bin_index in sorted(by_bin):
            sample = by_bin[bin_index]
            best = self.tuner.tune_batch_size(
                bin_index, sample, candidates=candidates, default=self.max_batch_jobs
            )
            self._bin_batch_sizes[bin_index] = min(best, self.max_batch_jobs)
            report[self.binner.label(bin_index)] = {
                "subwarp": self.tuner.chosen_subwarps[bin_index],
                "batch_size": self._bin_batch_sizes[bin_index],
                "jobs": len(sample),
                "engine": self.engine.name,
            }
        return report

    def qos_metrics(self):
        """Per-tenant QoS snapshot, or ``None`` when QoS is disabled.

        Returns a :class:`~repro.qos.QoSMetrics`: ladder level and
        shift count, per-tier degradation totals, shed count, and one
        :class:`~repro.qos.TenantMetrics` per tenant seen.
        """
        return self._qos.snapshot() if self._qos is not None else None

    def set_overload_level(self, level: int | None) -> None:
        """Pin (or with ``None`` release) the degradation-ladder level.

        The cluster uses this to propagate a fleet-wide overload level
        from its ingress backlog down to every worker's service, so
        workers degrade in lockstep.  No-op guard: raises when QoS is
        disabled.
        """
        if self._qos is None:
            raise ValueError("service has no QoS policy to force a level on")
        self._qos.controller.force(level)

    def metrics(self) -> ServiceMetrics:
        """Deterministic snapshot of the service's lifetime counters."""
        stats = self.cache.stats if self.cache is not None else _NO_CACHE_STATS
        return self._recorder.snapshot(
            queue_depth=self.queue.depth,
            queued_cells=self.queue.queued_cells,
            clock_ms=self.clock_ms,
            cache_stats=stats,
            cache_bytes=self.cache.current_bytes if self.cache is not None else 0,
        )


class _NoCacheStats:
    hits = misses = evictions = 0
    hit_rate = 0.0


_NO_CACHE_STATS = _NoCacheStats()
