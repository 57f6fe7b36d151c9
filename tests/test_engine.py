"""Tests for the execution-engine layer (repro.engine) and the PR's
satellite fixes: batched scores bit-identical to the oracle and to the
per-pair engine (fault injection included); the modeled clock, metric
snapshots, and traces engine-independent; the precomputed wavefront
stagger schedule; the stable subwarp sort; and the cache upgrade-only
``put``."""

import numpy as np
import pytest

from repro.align import ScoringScheme, sw_align
from repro.align.matrix import AlignmentResult
from repro.align.scoring import bwa_mem_scoring
from repro.align.smith_waterman import sw_align_slow
from repro.baselines import make_jobs
from repro.core import SalobaConfig, SalobaKernel
from repro.core.intra_query import _stagger_schedule, saloba_extend_exact
from repro.core.subwarp import schedule_subwarps
from repro.engine import (
    BatchedWavefrontEngine,
    ExecutionEngine,
    ReferenceEngine,
    batched_sw_align,
    engine_names,
    resolve_engine,
)
from repro.gpusim import GTX1650
from repro.obs import Tracer, chrome_trace_json
from repro.resilience import FaultPlan, RetryPolicy
from repro.serve import AlignmentService, ResultCache, cache_key
from repro.serve.bench import mixed_stream
from repro.cluster import AlignmentCluster, WorkerSpec

SCHEMES = [
    ScoringScheme(),
    bwa_mem_scoring(),
    ScoringScheme(match=2, mismatch=-3, alpha=5, beta=2),
    ScoringScheme(match=3, mismatch=-1, alpha=2, beta=1),
]


def _random_pairs(rng, n, hi=60, with_n=True):
    top = 5 if with_n else 4
    return [
        (rng.integers(0, top, int(rng.integers(0, hi))).astype(np.uint8),
         rng.integers(0, top, int(rng.integers(0, hi))).astype(np.uint8))
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Registry / resolution
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_builtin_names(self):
        assert engine_names() == (
            "banded", "batched", "nw", "pruned",
            "reference", "semiglobal", "xdrop",
        )

    def test_resolve_default_is_reference(self):
        assert isinstance(resolve_engine(None), ReferenceEngine)

    def test_resolve_by_name_and_instance(self):
        assert isinstance(resolve_engine("batched"), BatchedWavefrontEngine)
        inst = BatchedWavefrontEngine(max_state_cells=1 << 10)
        assert resolve_engine(inst) is inst

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("gpu3000")
        with pytest.raises(TypeError):
            resolve_engine(42)

    def test_batched_engine_validates_budget(self):
        with pytest.raises(ValueError):
            BatchedWavefrontEngine(max_state_cells=0)

    def test_custom_engine_must_be_named(self):
        from repro.engine import register_engine

        with pytest.raises(ValueError):
            register_engine(type("Anon", (ExecutionEngine,), {}))


# ---------------------------------------------------------------------------
# The batched sweep vs the oracle (the property test)
# ---------------------------------------------------------------------------


class TestBatchedSweepProperties:
    @pytest.mark.parametrize("scheme_idx", range(len(SCHEMES)))
    def test_random_ragged_batches_match_oracle(self, scheme_idx):
        """Scores bit-identical to the row-scan oracle; full results
        (endpoints included) bit-identical to sw_align, across ragged
        lengths, empty sides, N codes, and all scoring schemes."""
        scoring = SCHEMES[scheme_idx]
        rng = np.random.default_rng(1000 + scheme_idx)
        pairs = _random_pairs(rng, 30)
        pairs.append((pairs[0][0], pairs[0][0].copy()))  # identical pair
        pairs.append((np.empty(0, np.uint8), pairs[1][1]))  # empty ref
        pairs.append((pairs[2][0], np.empty(0, np.uint8)))  # empty query
        got = batched_sw_align(pairs, scoring)
        for (r, q), res in zip(pairs, got):
            assert res == sw_align(r, q, scoring)
            assert res.score == sw_align_slow(r, q, scoring).score

    def test_tiny_cell_budget_changes_nothing(self):
        """Forcing single-pair groups through the chunker is invisible."""
        rng = np.random.default_rng(5)
        pairs = _random_pairs(rng, 20)
        assert batched_sw_align(pairs) == batched_sw_align(pairs, max_state_cells=1)

    def test_length_mixed_batch_matches_per_pair(self):
        """Short and long pairs in one call regroup without mixups."""
        rng = np.random.default_rng(6)
        pairs = _random_pairs(rng, 10, hi=40) + _random_pairs(rng, 3, hi=400)
        rng.shuffle(pairs)
        got = batched_sw_align(pairs)
        assert got == [sw_align(r, q) for r, q in pairs]

    def test_identical_pair_scores_its_length(self):
        seq = np.arange(12, dtype=np.uint8) % 4
        (res,) = batched_sw_align([(seq, seq)])
        assert res == AlignmentResult(score=12, ref_end=12, query_end=12)


# ---------------------------------------------------------------------------
# Engine-independence of the modeled side
# ---------------------------------------------------------------------------


def _service_outcome(engine, pairs, *, fault_plan=None):
    tracer = Tracer()
    svc = AlignmentService(
        compute_scores=True, engine=engine, tracer=tracer,
        fault_plan=fault_plan,
        retry_policy=RetryPolicy(max_attempts=2) if fault_plan else None,
    )
    handles = [svc.submit(q, r) for q, r in pairs]
    svc.flush()
    outcomes = [
        (h.state, h.result().score if h.ok else h.failure.error,
         h.wait_ms, h.service_ms, h.from_cache)
        for h in handles
    ]
    return outcomes, svc.clock_ms, svc.metrics().to_dict(), chrome_trace_json(tracer)


class TestEngineIndependence:
    def test_kernel_timing_identical_across_engines(self, rng):
        jobs = make_jobs(_random_pairs(rng, 12, with_n=False))
        ref = SalobaKernel(engine="reference").run(jobs, GTX1650, compute_scores=True)
        for name in ("batched", "pruned"):
            got = SalobaKernel(engine=name).run(jobs, GTX1650, compute_scores=True)
            assert ref.timing == got.timing
            assert [r.score for r in ref.results] == [r.score for r in got.results]

    def test_service_run_identical_across_engines(self, rng):
        pairs = _random_pairs(rng, 24, with_n=False)
        pairs += pairs[:6]  # duplicates exercise cache + coalescing
        a = _service_outcome("reference", pairs)
        for name in ("batched", "pruned"):
            # outcomes, clock, metrics, and trace bytes
            assert _service_outcome(name, pairs) == a

    def test_service_identical_under_fault_injection(self, rng):
        plan = FaultPlan(seed=9, transient_rate=0.15, stall_rate=0.05,
                         overflow_rate=0.1)
        pairs = _random_pairs(rng, 30, with_n=False)
        a = _service_outcome("reference", pairs, fault_plan=plan)
        for name in ("batched", "pruned"):
            assert _service_outcome(name, pairs, fault_plan=plan) == a

    def test_cluster_mixed_engines_identical_scores(self, rng):
        pairs = _random_pairs(rng, 16, with_n=False)
        pairs = [(q, r) for q, r in pairs if q.size and r.size]

        def run(specs, **kw):
            cl = AlignmentCluster(specs, **kw)
            handles = [cl.submit(q, r) for q, r in pairs]
            m = cl.run()
            return [h.result().score for h in handles], m.makespan_ms

        uniform, t0 = run([WorkerSpec("w0"), WorkerSpec("w1")])
        mixed, t1 = run(
            [WorkerSpec("w0", engine="batched"), WorkerSpec("w1", engine="pruned")],
            engine="reference",
        )
        batched, t2 = run([WorkerSpec("w0"), WorkerSpec("w1")], engine="batched")
        assert uniform == mixed == batched
        assert t0 == t1 == t2  # modeled schedule is engine-independent


# ---------------------------------------------------------------------------
# Satellite 1: precomputed wavefront stagger schedule
# ---------------------------------------------------------------------------


class TestStaggerSchedule:
    @pytest.mark.parametrize("h", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("q", [1, 2, 7, 16])
    def test_schedule_matches_membership_definition(self, h, q):
        schedule = _stagger_schedule(h, q)
        assert len(schedule) == q + h - 1
        for t, (ks, cols) in enumerate(schedule):
            assert ks == [k for k in range(h) if 0 <= t - k < q]
            assert cols == [t - k for k in ks]

    def test_executor_still_bit_identical(self, rng, scoring):
        """Regression: the schedule cache must not change a single
        score, endpoint, or audit counter."""
        for _ in range(6):
            r = rng.integers(0, 4, int(rng.integers(20, 120))).astype(np.uint8)
            q = rng.integers(0, 4, int(rng.integers(20, 120))).astype(np.uint8)
            res, audit = saloba_extend_exact(r, q, scoring, SalobaConfig(subwarp_size=4))
            assert audit.consistent
            assert res.score == sw_align(r, q, scoring).score


# ---------------------------------------------------------------------------
# Satellite 2: stable subwarp sort
# ---------------------------------------------------------------------------


class TestStableSubwarpSort:
    def test_tied_costs_deal_in_submission_order(self):
        sched = schedule_subwarps([5.0] * 8, 4, 1, sort_jobs=True)
        # All-equal costs: a stable descending sort is the identity, so
        # least-loaded dealing walks queues 0..n-1 in job order.
        assert sched.queues == [[0, 4], [1, 5], [2, 6], [3, 7]]

    def test_ties_within_mixed_costs_keep_index_order(self):
        costs = [3.0, 9.0, 3.0, 9.0, 3.0]
        sched = schedule_subwarps(costs, 2, 2, sort_jobs=True)
        dealt = [i for q in sched.queues for i in q]
        nines = [i for i in dealt if costs[i] == 9.0]
        # Ranks among equal costs follow submission order (stable).
        order = sorted(range(5), key=lambda i: (-costs[i], i))
        assert sorted(nines) == nines == [i for i in order if costs[i] == 9.0]

    def test_deterministic_across_reruns(self, rng):
        costs = list(rng.integers(1, 4, 40).astype(float))  # heavy ties
        first = schedule_subwarps(costs, 4, 5, sort_jobs=True)
        second = schedule_subwarps(costs, 4, 5, sort_jobs=True)
        assert first.queues == second.queues
        assert first.warp_cycles == second.warp_cycles


# ---------------------------------------------------------------------------
# Satellite 3: cache upgrade-only put
# ---------------------------------------------------------------------------


def _key_for(ref_codes, query_codes):
    job = make_jobs([(query_codes, ref_codes)])[0]
    return cache_key(job, ScoringScheme())


class TestCacheUpgradeOnly:
    def test_model_only_put_cannot_downgrade_scored_entry(self):
        cache = ResultCache()
        key = _key_for(np.arange(4, dtype=np.uint8), np.arange(4, dtype=np.uint8))
        res = AlignmentResult(score=4, ref_end=4, query_end=4)
        cache.put(key, res, scored=True)
        cache.put(key, None, scored=False)  # the old silent downgrade
        got = cache.get(key, scored=True)
        assert got is not None and got.scored and got.result == res

    def test_downgrade_attempt_keeps_bytes_consistent(self):
        cache = ResultCache()
        key = _key_for(np.arange(4, dtype=np.uint8), np.arange(4, dtype=np.uint8))
        cache.put(key, AlignmentResult(1, 1, 1), scored=True)
        before = cache.current_bytes
        cache.put(key, None, scored=False)
        assert cache.current_bytes == before and len(cache) == 1

    def test_downgrade_attempt_refreshes_recency(self):
        k1 = _key_for(np.zeros(1, np.uint8), np.zeros(1, np.uint8))
        k2 = _key_for(np.ones(1, np.uint8), np.ones(1, np.uint8))
        k3 = _key_for(np.full(1, 2, np.uint8), np.zeros(1, np.uint8))
        probe = ResultCache()
        probe.put(k1, None, scored=False)
        entry_bytes = probe.current_bytes  # same-length keys, same size
        cache = ResultCache(max_bytes=2 * entry_bytes)  # exactly 2 fit
        cache.put(k1, AlignmentResult(1, 1, 1), scored=True)
        cache.put(k2, None, scored=False)
        cache.put(k1, None, scored=False)  # touch k1: k2 becomes LRU
        cache.put(k3, None, scored=False)  # evicts k2, not k1
        assert cache.get(k1, scored=True) is not None
        assert cache.get(k2, scored=False) is None

    def test_upgrade_still_works(self):
        cache = ResultCache()
        key = _key_for(np.arange(4, dtype=np.uint8), np.arange(4, dtype=np.uint8))
        cache.put(key, None, scored=False)
        res = AlignmentResult(score=2, ref_end=3, query_end=3)
        cache.put(key, res, scored=True)
        got = cache.get(key, scored=True)
        assert got is not None and got.result == res


# ---------------------------------------------------------------------------
# Bench plumbing
# ---------------------------------------------------------------------------


class TestBenchPlumbing:
    def test_mixed_stream_b_max_length_caps_the_tail(self):
        from repro.datasets.profiles import DATASET_B

        capped = mixed_stream(60, b_fraction=0.4, seed=3, b_max_length=500)
        assert (
            max(max(j.ref_len, j.query_len) for j in capped)
            <= 500 + DATASET_B.gap_margin
        )
        full = mixed_stream(60, b_fraction=0.4, seed=3)
        assert (
            max(max(j.ref_len, j.query_len) for j in full)
            > max(max(j.ref_len, j.query_len) for j in capped)
        )

    def test_engine_bench_deterministic_json_drops_wall_fields(self):
        from repro.engine.bench import _WALL_FIELDS, run_engine_bench

        res = run_engine_bench(
            n_requests=10, b_fraction=0.0, duplicate_fraction=0.3,
            seed=0, b_max_length=None, oracle_pairs=2,
        )
        assert res.ok and res.wall_speedup > 0
        import json

        det = json.loads(res.deterministic_json())
        for f in _WALL_FIELDS:
            assert f not in det
        assert det["scores_identical"] and det["modeled_identical"]
