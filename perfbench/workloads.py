"""The four benchmark workloads.

Each workload is a class with the same life cycle:

``inputs(seed)``
    Generate the seeded inputs (not timed, not set-up).
``setup(inputs)``
    Build the program objects the timed phase needs; timed as
    ``setup_s``.
``run(state, inputs, stamps)``
    The timed phase: one pass over the inputs through one closed-loop
    client (``qos_overload``: an open-loop trace on the modeled
    clock).  Appends a ``perf_counter`` stamp at every segment
    boundary (a wave, a read, a drain round); the segment count is
    fixed by the inputs, so passes can be compared segment by segment.
``observe(state, outcome, inputs)``
    Everything deterministic the pass produced: modeled-clock
    metrics, per-layer counters, the digest payload, and the outputs
    the oracle checks.

Sizes are fixed per workload; only the seed varies the inputs.
``setup_repeats`` is how often each pass times its set-up (the median
counts), for set-ups too short to time once.  ``model_sets`` is how
many independent input sets the modeled-clock metrics average over:
set 0 is the timed inputs, the others are drawn from derived seeds and
run model-only (``setup(..., model_only=True)``), which is exact
because the modeled clock never depends on scoring.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter

from repro.align.scoring import ScoringScheme
from repro.align.smith_waterman import sw_align
from repro.engine import resolve_engine
from repro.serve.bench import mixed_stream
from repro.serve.service import AlignmentService

SCORING = ScoringScheme()
ENGINE = "batched"
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of *values*."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def job_key(job) -> str:
    digest = hashlib.sha1(job.ref.tobytes())
    digest.update(b"|")
    digest.update(job.query.tobytes())
    return digest.hexdigest()


@dataclass
class Observation:
    """What one pass produced, minus host timings."""

    #: Items attempted: requests submitted (refused ones included) or reads.
    items: int
    #: Items the program itself settled as failed (oracle mismatches
    #: are counted by the checker).
    failed: int
    #: Admission refusals among :attr:`items`.
    refused: int
    refused_by_reason: dict
    modeled_ms: float
    latencies_ms: list
    premium_attained: int
    premium_attempted: int
    #: Deterministic snapshot hashed into the determinism digest.
    snapshot: dict
    #: Per-layer counters read off the program's own metrics.
    counters: dict
    #: ``[(oracle kind, key, job or None, produced)]`` for the checker.
    checks: list = field(default_factory=list)

    def digest(self) -> str:
        blob = json.dumps(self.snapshot, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()


#: Counters every workload reports; the ones its layers never touch stay 0.
COUNTER_DEFAULTS = {
    **{f"qos.degraded.{tier}": 0 for tier in ("banded", "xdrop")},
    "qos.level_shifts": 0,
    "pipeline.filtration_rate": 0.0,
    **{f"pipeline.{stage}.{part}_frac": 0.0
       for stage in ("seed", "filter", "extend") for part in ("busy", "blocked")},
}


def _service_counters(metrics) -> dict:
    jobs = sum(size * count for size, count in metrics.batch_sizes.items())
    rejected = metrics.rejected_by_reason
    return {
        **COUNTER_DEFAULTS,
        "serve.cache_hit_rate": metrics.cache_hit_rate,
        "serve.coalesced": metrics.coalesced,
        "serve.batches": metrics.n_batches,
        "serve.mean_batch_jobs": jobs / metrics.n_batches if metrics.n_batches else 0.0,
        "serve.wait_p50_ms": metrics.wait_ms.p50,
        "resilience.retries": metrics.retries_recovered + metrics.fallbacks,
        **{f"qos.rejected.{r}": rejected.get(r, 0)
           for r in ("depth", "cells", "tenant_depth", "tenant_cells", "overload_shed")},
    }


#: Counters that are rates, averaged (not summed) over a pass's services.
_RATES = frozenset({"serve.cache_hit_rate", "serve.mean_batch_jobs", "serve.wait_p50_ms"})


def _exact_checks(handles, jobs) -> list:
    checks = []
    for handle, job in zip(handles, jobs):
        if handle is None or not handle.ok:
            continue
        if handle.tier == "exact":
            checks.append(("sw", job_key(job), job, int(handle.result().score)))
        else:
            params = ",".join(f"{k}={v}" for k, v in sorted(handle.tier_params.items()))
            spec = f"{handle.tier}:{params}"
            result = handle.result()
            checks.append((spec, job_key(job), job,
                           [int(result.score), int(result.ref_end), int(result.query_end)]))
    return checks


def oracle_value(kind: str, job):
    """The expected output for one check (see :func:`_exact_checks`)."""
    if kind == "sw":
        return int(sw_align(job.ref, job.query, SCORING).score)
    result = resolve_engine(kind).score_batch([job], SCORING)[0]
    return [int(result.score), int(result.ref_end), int(result.query_end)]


class ServeWorkload:
    """Closed-loop waves through one ``AlignmentService``."""

    setup_repeats = 1
    model_sets = 1
    #: Model-only input sets are this many times the timed input.
    model_scale = 1
    compute_scores: bool
    n_requests: int
    wave: int
    b_max_length: int | None
    expected_spans: tuple[str, ...] = (
        "serve.submit", "serve.drain", "serve.tune", "serve.cache_key",
        "core.kernel_run", "core.plan_job", "gpusim.mem_access",
        "resilience.run_isolated",
    )

    def inputs(self, seed: int):
        return mixed_stream(self.n_requests, seed=seed, b_max_length=self.b_max_length)

    def model_inputs(self, seed: int):
        return mixed_stream(self.n_requests * self.model_scale, seed=seed,
                            b_max_length=self.b_max_length)

    def warmup(self, stream):
        return stream[:32]

    def setup(self, stream, model_only: bool = False):
        service = AlignmentService(
            SCORING, compute_scores=self.compute_scores and not model_only, engine=ENGINE,
            max_queue_depth=len(stream),
        )
        service.tune(stream[:512])
        return service

    def run(self, service, stream, stamps):
        handles = []
        for lo in range(0, len(stream), self.wave):
            handles.extend(service.submit_jobs(stream[lo : lo + self.wave]))
            service.flush()
            stamps.append(perf_counter())
        return handles

    def observe(self, service, handles, stream) -> Observation:
        metrics = service.metrics()
        failed = sum(1 for h in handles if not h.ok)
        latencies = [h.completed_ms - h.submitted_ms for h in handles]
        ok = len(handles) - failed
        snapshot = {"service": metrics.to_dict(), "clock_ms": service.clock_ms}
        checks = []
        if service.compute_scores:
            checks = _exact_checks(handles, stream)
            snapshot["scores"] = [c[3] for c in checks]
        return Observation(
            items=len(handles), failed=failed, refused=metrics.rejected,
            refused_by_reason=dict(metrics.rejected_by_reason),
            modeled_ms=service.clock_ms, latencies_ms=latencies,
            premium_attained=ok, premium_attempted=len(handles),
            snapshot=snapshot, counters=_service_counters(metrics), checks=checks,
        )


class ServeModel(ServeWorkload):
    name = "serve_model"
    compute_scores = False
    n_requests = 8000
    wave = 64
    b_max_length = None


class ServeScored(ServeWorkload):
    name = "serve_scored"
    model_sets = 4
    model_scale = 4
    compute_scores = True
    n_requests = 512
    wave = 256
    b_max_length = 1000
    expected_spans = ServeWorkload.expected_spans + ("engine.batched",)


class MapReads:
    """``MappingService.map_stream`` over a synthetic genome."""

    setup_repeats = 1
    name = "map_reads"
    model_sets = 1
    genome_len = 250_000
    n_short, n_long, n_noise = 108, 27, 15
    expected_spans = (
        "seeding.index_build", "seeding.seed", "seeding.occ", "seeding.chain",
        "pipeline.map_stream", "pipeline.compute_schedule",
        "serve.submit", "serve.drain", "serve.tune", "serve.cache_key",
        "core.kernel_run", "core.plan_job", "gpusim.mem_access",
        "resilience.run_isolated", "engine.batched",
    )

    def inputs(self, seed: int):
        from repro.pipeline.bench import build_read_stream
        from repro.seqs.genome import GenomeConfig, synthetic_genome

        reference = synthetic_genome(GenomeConfig(length=self.genome_len), seed=seed)
        reads = build_read_stream(
            reference, n_short=self.n_short, n_long=self.n_long,
            n_noise=self.n_noise, seed=seed,
        )
        return reference, reads

    def warmup(self, inputs):
        reference, reads = inputs
        return reference[:20_000], reads[:8]

    def setup(self, inputs):
        from repro.pipeline.mapping import MappingService

        reference, _ = inputs
        service = AlignmentService(SCORING, compute_scores=True, engine=ENGINE)
        return MappingService(reference, scoring=SCORING, service=service)

    def run(self, mapper, inputs, stamps):
        def pulled(reads):
            for read in reads:
                stamps.append(perf_counter())
                yield read

        return mapper.map_stream(pulled(inputs[1]))

    def observe(self, mapper, report, inputs) -> Observation:
        metrics = report.metrics
        schedule = report.schedule
        service = mapper.service.metrics()
        mappings = [asdict(m) for m in report.mappings]
        failed = len({rec.job_index for rec in report.failures.entries})
        span = metrics.makespan_ms or 1.0
        counters = _service_counters(service)
        counters.update({
            "pipeline.filtration_rate": metrics.filtration_rate,
            **{f"pipeline.{stage}.busy_frac": getattr(metrics, stage).busy_ms / span
               for stage in ("seed", "filter", "extend")},
            **{f"pipeline.{stage}.blocked_frac": getattr(metrics, stage).blocked_ms / span
               for stage in ("seed", "filter", "extend")},
        })
        return Observation(
            items=len(report.mappings), failed=failed, refused=0,
            refused_by_reason={}, modeled_ms=metrics.makespan_ms,
            latencies_ms=[r.latency_ms for r in schedule.reads],
            premium_attained=len(report.mappings) - failed,
            premium_attempted=len(report.mappings),
            snapshot={"pipeline": metrics.to_dict(), "service": service.to_dict(),
                      "mappings": mappings},
            counters=counters,
            checks=[("mappings", None, None, mappings)],
        )


class QoSOverload:
    """Flash-crowd traces replayed at 4x calibrated capacity, scored.

    Which requests the ladder keeps exact, degrades or refuses depends
    on one trace's overload dynamics, and so does its host cost.  Two
    measures keep that cost steady from seed to seed: one pass replays
    ``traces`` independent traces, each on a fresh QoS service, and long
    reads are capped at ``b_max_length`` (the preset's 2 kbp cap let a
    handful of exact long reads swing a pass's cost by 2x).
    """

    name = "qos_overload"
    setup_repeats = 25
    model_sets = 8
    traces = 3
    n_requests = 320
    b_max_length = 500
    load = 4.0
    coalesce_window = 24
    #: Share of the global queue depth per class (premium uncapped).
    quota_shares = {"standard": 0.6, "best_effort": 0.4}
    expected_spans = (
        "serve.submit", "serve.drain", "serve.tune", "serve.cache_key",
        "core.kernel_run", "core.plan_job", "gpusim.mem_access",
        "resilience.run_isolated", "engine.batched", "engine.banded",
        "qos.score_degraded", "qos.wfq_pop",
    )

    def inputs(self, seed: int):
        return [self._trace(seed if i == 0 else seed * 1000 + 100 + i)
                for i in range(self.traces)]

    def _scenario(self, *, rate_per_ms: float, n_requests: int, seed: int,
                  slo_horizon_ms: float | None = None):
        """``scenario("flash_crowd")`` with long reads capped at ``b_max_length``."""
        from repro.traffic.scenarios import scenario_tenants
        from repro.traffic.trace import generate_trace

        tenants = scenario_tenants("flash_crowd", rate_per_ms=rate_per_ms,
                                   n_requests=n_requests, slo_horizon_ms=slo_horizon_ms)
        tenants = tuple(replace(t, b_max_length=self.b_max_length) for t in tenants)
        return generate_trace("flash_crowd", tenants, n_requests=n_requests, seed=seed)

    def _trace(self, seed: int):
        """One trace at ``load`` times the capacity calibrated on its mix."""
        probe_spec = self._scenario(rate_per_ms=1.0, n_requests=min(self.n_requests, 200),
                                    seed=seed)
        probe = AlignmentService(SCORING, compute_scores=False)
        for job in probe_spec.materialize():
            probe.submit(job.query, job.ref)
        probe.flush()
        capacity = probe_spec.n_requests / probe.clock_ms
        return self._scenario(
            rate_per_ms=capacity * self.load, n_requests=self.n_requests, seed=seed,
            slo_horizon_ms=self.n_requests / capacity,
        )

    model_inputs = inputs

    def warmup(self, specs):
        return [replace(specs[0], events=specs[0].events[:48])]

    def _policy(self, spec, max_depth: int):
        from repro.qos.policy import OverloadPolicy, QoSPolicy, TenantPolicy

        tenants = []
        for t in spec.tenants:
            share = self.quota_shares.get(t.tenant_class)
            tenants.append(TenantPolicy(
                name=t.name, tenant_class=t.tenant_class, weight=t.weight,
                slo_ms=t.slo_ms, max_depth=int(share * max_depth) if share else None,
            ))
        return QoSPolicy(tenants=tuple(tenants),
                         overload=OverloadPolicy(sustain_rounds=1, clear_rounds=2))

    def setup(self, specs, model_only: bool = False):
        max_depth = max(32, self.n_requests // 2)
        return [
            AlignmentService(
                SCORING, compute_scores=not model_only, engine=ENGINE,
                qos=self._policy(spec, max_depth), max_queue_depth=max_depth,
                coalesce_window=self.coalesce_window,
            )
            for spec in specs
        ]

    def run(self, services, specs, stamps):
        from repro.traffic.replay import replay

        results = []
        for service, spec in zip(services, specs):
            drain = service.drain

            def stamped_drain(*args, _drain=drain, **kwargs):
                resolved = _drain(*args, **kwargs)
                stamps.append(perf_counter())
                return resolved

            service.drain = stamped_drain
            try:
                results.append(replay(service, spec))
            finally:
                del service.drain
        return results

    def observe(self, services, results, specs) -> Observation:
        totals = dict(items=0, failed=0, refused=0, modeled_ms=0.0,
                      premium_attained=0, premium_attempted=0)
        refused_by_reason: dict[str, int] = {}
        latencies, checks, snapshots = [], [], []
        counters: dict[str, float] = {}
        for service, result, spec in zip(services, results, specs):
            metrics = service.metrics()
            qos = service.qos_metrics()
            handles = result.handles
            settled = [h for h in handles if h is not None]
            totals["items"] += len(handles)
            totals["failed"] += sum(1 for h in settled if not h.ok)
            totals["refused"] += metrics.rejected
            totals["modeled_ms"] += result.makespan_ms
            for reason, n in metrics.rejected_by_reason.items():
                refused_by_reason[reason] = refused_by_reason.get(reason, 0) + n
            latencies += [h.completed_ms - h.submitted_ms for h in settled]
            for event, handle in zip(spec.events, handles):
                tenant = spec.tenant(event.tenant)
                if tenant.tenant_class != "premium":
                    continue
                totals["premium_attempted"] += 1
                if handle is not None and handle.ok and (
                    tenant.slo_ms is None
                    or handle.completed_ms - handle.submitted_ms <= tenant.slo_ms
                ):
                    totals["premium_attained"] += 1
            trace_checks = []
            if service.compute_scores:
                trace_checks = _exact_checks(handles, spec.materialize())
            checks += trace_checks
            snapshots.append({
                "service": metrics.to_dict(), "qos": qos.to_dict(),
                "refused_at": [i for i, h in enumerate(handles) if h is None],
                "tiers": [h.tier for h in settled],
                "scores": [c[3] for c in trace_checks],
            })
            trace_counters = _service_counters(metrics)
            trace_counters.update({
                "qos.degraded.banded": qos.degraded.get("banded", 0),
                "qos.degraded.xdrop": qos.degraded.get("xdrop", 0),
                "qos.level_shifts": qos.level_shifts,
            })
            for name, value in trace_counters.items():
                share = 1 / len(specs) if name in _RATES else 1
                counters[name] = counters.get(name, 0) + value * share
        return Observation(
            refused_by_reason=refused_by_reason, latencies_ms=latencies,
            snapshot={"traces": snapshots}, counters=counters, checks=checks,
            **totals,
        )


WORKLOADS = {w.name: w for w in (ServeModel(), ServeScored(), MapReads(), QoSOverload())}

#: Admission refusal reasons: the service's queue bounds and the QoS
#: policy's tenant quotas and overload shedding working as designed.
POLICY_REFUSALS = frozenset({"depth", "cells", "tenant_depth", "tenant_cells", "overload_shed"})
