"""Tests for the serve layer: admission, binning, caching, metrics, and
the fault-injection contract (every request resolves; cache never
serves a failed job; deterministic reruns give identical snapshots)."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import make_jobs
from repro.resilience import (
    CapacityExceeded,
    DeadlineExceeded,
    FaultPlan,
    JobRejected,
    RetryPolicy,
    job_key,
)
from repro.align import ScoringScheme, sw_align
from repro.core import SUBWARP_SIZES, SalobaConfig
from repro.gpusim import GTX1650
from repro.obs import Tracer
from repro.serve import (
    AlignmentService,
    LengthBinner,
    ResultCache,
    cache_key,
)
from repro.serve.bench import mixed_stream, run_serve_bench
from repro.serve.binning import BinTuner


def _pairs(rng, n, lo=24, hi=40):
    return [
        (rng.integers(0, 4, int(rng.integers(lo, hi))).astype(np.uint8),
         rng.integers(0, 4, int(rng.integers(lo, hi))).astype(np.uint8))
        for _ in range(n)
    ]


def _random_pairs(rng, n, hi=60, with_n=True):
    top = 5 if with_n else 4
    return [
        (rng.integers(0, top, int(rng.integers(0, hi))).astype(np.uint8),
         rng.integers(0, top, int(rng.integers(0, hi))).astype(np.uint8))
        for _ in range(n)
    ]


def _submit_pairs(svc, pairs, **kw):
    return [svc.submit(q, r, **kw) for q, r in pairs]


# ---------------------------------------------------------------------------
# Core service behaviour
# ---------------------------------------------------------------------------


class TestService:
    def test_submit_flush_resolve(self, rng, scoring):
        svc = AlignmentService(scoring)
        pairs = _pairs(rng, 8)
        handles = _submit_pairs(svc, pairs)
        assert svc.pending == 8
        assert not handles[0].done
        with pytest.raises(RuntimeError):
            handles[0].result()
        svc.flush()
        assert svc.pending == 0
        from repro.core import BatchRunner, SalobaKernel

        reference = BatchRunner(SalobaKernel(scoring), GTX1650).run(
            make_jobs(pairs), compute_scores=True
        )
        for (q, r), h, want in zip(pairs, handles, reference.results):
            assert h.done and h.ok
            assert h.result() == want  # bit-identical to the batch path
            assert h.result().score == sw_align(r, q, scoring).score

    def test_model_only_mode(self, rng):
        svc = AlignmentService(compute_scores=False)
        handles = _submit_pairs(svc, _pairs(rng, 5))
        svc.flush()
        assert all(h.ok and h.result() is None for h in handles)
        assert svc.clock_ms > 0

    def test_duplicates_coalesce_in_round(self, rng):
        q, r = _pairs(rng, 1)[0]
        svc = AlignmentService()
        first = svc.submit(q, r)
        second = svc.submit(q, r)
        svc.flush()
        assert first.result() == second.result()
        assert not first.from_cache and second.from_cache
        m = svc.metrics()
        assert m.coalesced == 1 and m.n_batches == 1

    def test_duplicates_hit_cache_across_rounds(self, rng):
        q, r = _pairs(rng, 1)[0]
        svc = AlignmentService()
        first = svc.submit(q, r)
        svc.flush()
        second = svc.submit(q, r)
        svc.flush()
        assert second.from_cache
        assert second.result() == first.result()
        assert second.service_ms == 0.0  # no kernel ran
        m = svc.metrics()
        assert m.cache_hits == 1 and m.n_batches == 1

    def test_cache_disabled(self, rng):
        q, r = _pairs(rng, 1)[0]
        svc = AlignmentService(cache_bytes=0)
        svc.submit(q, r)
        svc.flush()
        h = svc.submit(q, r)
        svc.flush()
        assert not h.from_cache
        assert svc.metrics().n_batches == 2

    def test_malformed_submission_resolves_failed(self):
        svc = AlignmentService()
        h = svc.submit(np.array([9, 9], dtype=np.int64), "ACGT")
        assert h.done and not h.ok
        assert h.failure.error == "JobRejected"
        with pytest.raises(JobRejected):
            h.result()
        # Nothing was enqueued for it.
        assert svc.pending == 0

    def test_empty_sequence_quarantined_at_dispatch(self):
        svc = AlignmentService()
        h = svc.submit("", "ACGT")
        svc.flush()
        assert not h.ok and h.failure.error == "JobRejected"

    def test_priorities_dispatch_first(self, rng):
        svc = AlignmentService(coalesce_window=2)
        pairs = _pairs(rng, 4)
        low = _submit_pairs(svc, pairs[:2], priority=0)
        high = _submit_pairs(svc, pairs[2:], priority=5)
        svc.drain()
        assert all(h.done for h in high)
        assert not any(h.done for h in low)
        svc.flush()
        assert all(h.done for h in low)

    def test_queue_deadline_expires(self, rng):
        svc = AlignmentService(coalesce_window=1)
        (q1, r1), (q2, r2) = _pairs(rng, 2)
        slow = svc.submit(q1, r1, priority=1)
        timed = svc.submit(q2, r2, priority=0, deadline_ms=1e-9)
        svc.drain()  # serves the priority-1 job, advancing the clock
        assert slow.done
        svc.drain()
        assert timed.done and not timed.ok
        assert timed.failure.error == "DeadlineExceeded"
        with pytest.raises(DeadlineExceeded):
            timed.result()

    def test_submit_jobs_propagates_priority_across_bins(self, rng):
        # Bulk submissions carry their priority through binning: the
        # high-priority batch dispatches first even though its jobs
        # land in different length bins (and thus different
        # micro-batches inside the round).
        svc = AlignmentService(coalesce_window=2)
        short = make_jobs(_pairs(rng, 3))
        long_job = make_jobs(
            [(rng.integers(0, 4, 600).astype(np.uint8),
              rng.integers(0, 4, 620).astype(np.uint8))]
        )[0]
        low = svc.submit_jobs(short[:2], priority=0)
        high = svc.submit_jobs([short[2], long_job], priority=5)
        assert svc.binner.bin_index(short[2]) != svc.binner.bin_index(long_job)
        svc.drain()
        assert all(h.done for h in high)
        assert not any(h.done for h in low)
        svc.flush()
        assert all(h.done for h in low)

    def test_submit_jobs_propagates_deadline(self, rng):
        svc = AlignmentService(coalesce_window=1)
        jobs = make_jobs(_pairs(rng, 2))
        svc.submit_jobs(jobs[:1], priority=1)
        timed = svc.submit_jobs(jobs[1:], priority=0, deadline_ms=1e-9)
        svc.drain()  # serves the priority-1 job, advancing the clock
        svc.drain()
        assert timed[0].done and not timed[0].ok
        assert timed[0].failure.error == "DeadlineExceeded"

    def test_wait_and_service_times_accumulate(self, rng):
        svc = AlignmentService(coalesce_window=1)
        handles = _submit_pairs(svc, _pairs(rng, 3))
        svc.flush()
        # Later requests waited for earlier rounds on the modeled clock.
        assert handles[0].wait_ms == 0.0
        assert handles[2].wait_ms > handles[1].wait_ms > 0.0
        assert all(h.service_ms > 0 for h in handles)
        assert svc.clock_ms == pytest.approx(
            handles[2].wait_ms + handles[2].service_ms
        )


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_queue_full_rejects(self, rng):
        svc = AlignmentService(max_queue_depth=2)
        pairs = _pairs(rng, 3)
        _submit_pairs(svc, pairs[:2])
        q, r = pairs[2]
        with pytest.raises(CapacityExceeded):
            svc.submit(q, r)
        assert svc.try_submit(q, r) is None
        m = svc.metrics()
        assert m.rejected == 2 and m.submitted == 2
        # Draining frees capacity: the same request is admitted now.
        svc.flush()
        assert svc.try_submit(q, r) is not None

    def test_cell_budget_rejects_large_work(self, rng):
        svc = AlignmentService(max_queued_cells=50 * 50)
        small = svc.submit("ACGT" * 5, "ACGT" * 5)
        with pytest.raises(CapacityExceeded):
            svc.submit("A" * 400, "C" * 400)
        assert small is not None
        assert svc.metrics().rejected == 1

    def test_rejected_try_submit_consumes_no_request_id(self, rng):
        # A rejected submission must leave no trace beyond the
        # rejection counter: the accepted subset of a stream gets the
        # same request ids whether or not rejections were interleaved.
        pairs = _pairs(rng, 4)
        svc = AlignmentService(max_queue_depth=2)
        accepted = _submit_pairs(svc, pairs[:2])
        q, r = pairs[2]
        assert svc.try_submit(q, r) is None
        m = svc.metrics()
        assert m.rejected == 1 and m.submitted == 2
        svc.flush()
        q, r = pairs[3]
        late = svc.submit(q, r)
        assert [h.request_id for h in accepted + [late]] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------


class TestBinning:
    def test_bin_index_uses_longer_side(self, rng):
        binner = LengthBinner((128, 512))
        jobs = make_jobs([(np.zeros(100, np.uint8), np.zeros(600, np.uint8))])
        assert binner.bin_index(jobs[0]) == 2
        assert binner.label(0) == "<=128"
        assert binner.label(2) == ">512"
        with pytest.raises(ValueError):
            LengthBinner((512, 128))

    def test_mixed_stream_forms_homogeneous_batches(self, rng):
        svc = AlignmentService(compute_scores=False, bin_edges=(256,),
                               min_bin_fill=1)
        short = [(rng.integers(0, 4, 60).astype(np.uint8),
                  rng.integers(0, 4, 80).astype(np.uint8)) for _ in range(6)]
        long_ = [(rng.integers(0, 4, 600).astype(np.uint8),
                  rng.integers(0, 4, 700).astype(np.uint8)) for _ in range(4)]
        _submit_pairs(svc, short + long_)
        svc.flush()
        m = svc.metrics()
        assert m.bin_jobs == {"<=256": 6, ">256": 4}
        assert m.n_batches == 2
        # Each bin tuned a legal subwarp size.
        assert set(svc.tuner.chosen_subwarps.values()) <= set(SUBWARP_SIZES)

    def test_tune_reports_per_bin_settings(self, rng):
        svc = AlignmentService(compute_scores=False, bin_edges=(256,),
                               max_batch_jobs=512)
        jobs = make_jobs(_pairs(rng, 10, 30, 60))
        report = svc.tune(jobs, candidates=(64, 256))
        assert "<=256" in report
        info = report["<=256"]
        assert info["subwarp"] in SUBWARP_SIZES
        assert 1 <= info["batch_size"] <= 512
        assert info["engine"] == "reference"

    def test_bin_tune_span_carries_only_tuning_attrs(self, rng):
        """Fixed-engine traces stay byte-identical across engines only
        while ``bin.tune`` records the subwarp tuning and nothing about
        the engine."""
        sample = make_jobs(_random_pairs(rng, 8, hi=40, with_n=False))
        for name in ("reference", "batched", "pruned"):
            tracer = Tracer()
            tuner = BinTuner(ScoringScheme(), SalobaConfig(), GTX1650,
                             engine=name, tracer=tracer)
            tuner.kernel_for(0, sample)
            (span,) = [s for root in tracer.roots for s in root.find("bin.tune")]
            assert list(span.attrs) == [
                "bin", "chosen", "candidates_ms", "skipped", "sample"]

    def test_set_engine_rebuilds_tuned_bins(self, rng):
        svc = AlignmentService(engine="batched")
        sample = make_jobs(_random_pairs(rng, 8, hi=40, with_n=False))
        before = svc.tuner.kernel_for(0, sample)
        subwarps = dict(svc.tuner.chosen_subwarps)
        svc.set_engine("pruned")
        after = svc.tuner.kernel_for(0, sample)
        assert after is not before
        assert svc.engine.name == after.engine.name == "pruned"
        assert svc.tuner.chosen_subwarps == subwarps
        assert after.config.subwarp_size == before.config.subwarp_size


# ---------------------------------------------------------------------------
# tune_batch_size over-capacity fallback
# ---------------------------------------------------------------------------


class TestTuneBatchSizeFallback:
    def _sample(self, rng):
        return make_jobs(_random_pairs(rng, 6, hi=40, with_n=False))

    def test_fallback_probes_default_and_raises_when_it_cannot_fit(self, rng):
        """Nothing fits a 1-byte device: the old code would hand back
        the (equally over-capacity) default; the fix raises the
        taxonomy error up front."""
        tiny = dataclasses.replace(GTX1650, name="tiny", device_mem_gb=1e-9)
        tuner = BinTuner(ScoringScheme(), SalobaConfig(), tiny)
        with pytest.raises(CapacityExceeded, match="fallback batch size"):
            tuner.tune_batch_size(0, self._sample(rng))

    def test_fallback_returns_default_when_it_fits(self, rng):
        """Candidates that all exceed capacity but a default that fits
        must still fall back silently (the pre-fix contract)."""
        sample = self._sample(rng)
        per = sum(j.ref_len + j.query_len for j in sample) / len(sample)
        # Fits ~32 sample-shaped jobs: every default candidate (>= 256)
        # is disqualified, the probed default of 8 is not.
        mid = dataclasses.replace(
            GTX1650, name="mid", device_mem_gb=per * 32 / 1e9
        )
        tuner = BinTuner(ScoringScheme(), SalobaConfig(), mid)
        assert tuner.tune_batch_size(0, sample, default=8) == 8

    def test_normal_tuning_path_unchanged(self, rng):
        tuner = BinTuner(ScoringScheme(), SalobaConfig(), GTX1650)
        got = tuner.tune_batch_size(0, self._sample(rng))
        assert got in (256, 1024, 4096)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


class TestCache:
    def test_key_separates_scoring_and_content(self, rng):
        jobs = make_jobs(_pairs(rng, 2))
        s1, s2 = ScoringScheme(), ScoringScheme(match=2)
        assert cache_key(jobs[0], s1) == cache_key(jobs[0], s1)
        assert cache_key(jobs[0], s1) != cache_key(jobs[1], s1)
        assert cache_key(jobs[0], s1) != cache_key(jobs[0], s2)

    def test_key_separates_trailing_lengths(self):
        # 4-bit packing pads to word boundaries: lengths are in the key.
        a = make_jobs([(np.ones(7, np.uint8), np.ones(9, np.uint8))])[0]
        b = make_jobs([(np.ones(8, np.uint8), np.ones(9, np.uint8))])[0]
        s = ScoringScheme()
        assert cache_key(a, s) != cache_key(b, s)

    def test_lru_byte_budget_evicts(self, rng):
        jobs = make_jobs(_pairs(rng, 4, 30, 32))
        s = ScoringScheme()
        keys = [cache_key(j, s) for j in jobs]
        entry_bytes = len(keys[0]) + 96
        cache = ResultCache(max_bytes=entry_bytes * 2 + 10)
        for k in keys[:3]:
            cache.put(k, None, scored=False)
        assert len(cache) == 2  # the first key was evicted (LRU)
        assert cache.stats.evictions == 1
        assert cache.get(keys[0], scored=False) is None
        assert cache.get(keys[2], scored=False) is not None
        assert cache.current_bytes <= cache.max_bytes

    def test_scored_request_rejects_model_entry(self, rng):
        job = make_jobs(_pairs(rng, 1))[0]
        s = ScoringScheme()
        key = cache_key(job, s)
        cache = ResultCache()
        cache.put(key, None, scored=False)
        assert cache.get(key, scored=True) is None
        res = sw_align(job.ref, job.query, s)
        cache.put(key, res, scored=True)
        got = cache.get(key, scored=True)
        assert got is not None and got.result == res
        # A model-only request is happy with the scored entry.
        assert cache.get(key, scored=False) is not None


# ---------------------------------------------------------------------------
# Fault injection through the service (the ISSUE's test contract)
# ---------------------------------------------------------------------------

FAULTY = FaultPlan(seed=9, transient_rate=0.15, stall_rate=0.05, overflow_rate=0.1)


def _faulty_service(**kw):
    kw.setdefault("fault_plan", FAULTY)
    kw.setdefault("retry_policy", RetryPolicy(max_attempts=2))
    return AlignmentService(**kw)


def _find_overflow_job(rng, plan, max_attempts):
    """A job the plan overflows on every attempt (terminal failure)."""
    while True:
        q, r = _pairs(rng, 1)[0]
        job = make_jobs([(q, r)])[0]
        if all(
            (d := plan.decide(job_key(job), a)) is not None and d.kind == "overflow"
            for a in range(max_attempts)
        ):
            return q, r


class TestServeFaultInjection:
    def test_every_request_resolves(self, rng):
        svc = _faulty_service()
        handles = _submit_pairs(svc, _pairs(rng, 40))
        svc.flush()
        for h in handles:
            assert h.done
            if h.ok:
                assert h.result() is not None  # scored mode
            else:
                assert h.failure is not None and h.failure.error
        m = svc.metrics()
        assert m.completed + m.failed == len(handles)
        # The plan's rates guarantee recoveries at this stream size.
        assert m.fallbacks + m.retries_recovered > 0

    def test_cache_never_serves_failed_jobs(self, rng):
        # No fallback, one attempt: a terminal overflow job must fail.
        policy = RetryPolicy(max_attempts=1, cpu_fallback=False)
        q, r = _find_overflow_job(rng, FAULTY, policy.max_attempts)
        svc = _faulty_service(retry_policy=policy)
        first = svc.submit(q, r)
        svc.flush()
        assert not first.ok and first.failure.error == "CapacityExceeded"
        assert len(svc.cache) == 0  # failure was not inserted
        second = svc.submit(q, r)
        svc.flush()
        assert not second.from_cache  # resubmission re-executes
        assert not second.ok  # content-keyed plan fails it again
        assert svc.metrics().cache_hits == 0

    def test_fallback_results_are_cacheable(self, rng):
        # With CPU fallback the overflow job recovers with a real
        # result; *that* may be cached and served to a duplicate.
        policy = RetryPolicy(max_attempts=1, cpu_fallback=True)
        q, r = _find_overflow_job(rng, FAULTY, policy.max_attempts)
        svc = _faulty_service(retry_policy=policy)
        first = svc.submit(q, r)
        svc.flush()
        assert first.ok and first.result() is not None
        second = svc.submit(q, r)
        svc.flush()
        assert second.from_cache and second.result() == first.result()

    def test_deterministic_rerun_identical_metrics(self, rng):
        pairs = _pairs(np.random.default_rng(31), 30)

        def run():
            svc = _faulty_service(coalesce_window=8)
            handles = _submit_pairs(svc, pairs)
            svc.flush()
            return svc.metrics(), [
                (h.state, h.failure.error if h.failure else None,
                 h.wait_ms, h.service_ms, h.from_cache)
                for h in handles
            ]

        first_metrics, first_handles = run()
        second_metrics, second_handles = run()
        assert first_metrics == second_metrics
        assert first_handles == second_handles
        assert first_metrics.to_dict() == second_metrics.to_dict()


# ---------------------------------------------------------------------------
# Bench harness (tier-1 smoke; the full bar lives in benchmarks/)
# ---------------------------------------------------------------------------


class TestServeBench:
    def test_mixed_stream_shape(self):
        stream = mixed_stream(200, duplicate_fraction=0.3, seed=1)
        assert len(stream) == 200
        unique = len({(j.ref.tobytes(), j.query.tobytes()) for j in stream})
        assert unique == 140

    def test_small_bench_beats_naive_and_matches_scores(self):
        res = run_serve_bench(600, scored_pairs=8, seed=0)
        assert res.scored_identical
        assert res.speedup > 1.0
        assert res.metrics["cache_hits"] + res.metrics["coalesced"] == (
            res.n_requests - res.n_unique
        )
