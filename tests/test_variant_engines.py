"""The `repro.align` variant family on the engine registry.

Covers the capability descriptors (`EngineCapabilities`, `find_engines`,
`parse_engine_spec`, parameterized `resolve_engine`); bit-identity of
each registered variant engine against its per-pair reference
algorithm; the hypothesis property tests for `banded_sw_align`
boundary behaviour (wide bands reduce to full SW, tight bands {0,1,2}
match a masked-DP oracle); the `xdrop_extend` x=inf edge cases; the
bound-parameter plumbing (degraded handles carry `tier_params`,
`cache_key` never conflates two bounds); and the CLI taxonomy exit
code for unknown/malformed `--engine` specs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import ScoringScheme
from repro.align.banded import band_for_error_rate, banded_sw_align
from repro.align.matrix import AlignmentResult
from repro.align.needleman_wunsch import nw_score_slow
from repro.align.pruning import pruned_grid_sweep
from repro.align.scoring import NEG_INF
from repro.align.semiglobal import semiglobal_align, semiglobal_score_slow
from repro.align.smith_waterman import sw_align_slow
from repro.align.xdrop import anchored_best_slow, xdrop_extend
from repro.baselines import make_jobs
from repro.baselines.base import ExtensionJob
from repro.cli import main
from repro.core import SalobaConfig, SalobaKernel
from repro.engine import (
    BandedEngine,
    EngineCapabilities,
    NWEngine,
    PrunedEngine,
    SemiglobalEngine,
    XDropEngine,
    batched_banded_sw_align,
    engine_capabilities,
    engine_names,
    find_engines,
    parse_engine_spec,
    resolve_engine,
)
from repro.gpusim import GTX1650
from repro.qos import QoSPolicy, TenantPolicy
from repro.qos.tiers import (
    TIER_BANDED,
    TIER_XDROP,
    score_degraded,
    tier_engine_name,
    tier_params,
)
from repro.serve import AlignmentService, cache_key

SCORING = ScoringScheme()

codes = st.lists(st.integers(0, 4), min_size=0, max_size=40).map(
    lambda xs: np.asarray(xs, dtype=np.uint8)
)


def _random_pairs(rng, n, hi=60):
    return [
        (rng.integers(0, 5, int(rng.integers(0, hi))).astype(np.uint8),
         rng.integers(0, 5, int(rng.integers(0, hi))).astype(np.uint8))
        for _ in range(n)
    ]


def _jobs(pairs):
    return [ExtensionJob(ref=r, query=q) for r, q in pairs]


# ---------------------------------------------------------------------------
# Capability descriptors
# ---------------------------------------------------------------------------


class TestCapabilities:
    def test_every_registered_engine_has_a_descriptor(self):
        for name in engine_names():
            caps = engine_capabilities(name)
            assert isinstance(caps, EngineCapabilities)

    def test_descriptor_table(self):
        expect = {
            "reference": ("exact", "affine", "local", ()),
            "batched": ("exact", "affine", "local", ()),
            "pruned": ("exact", "affine", "local", ()),
            "banded": ("bounded", "affine", "local", ("band",)),
            "xdrop": ("bounded", "affine", "anchored", ("x",)),
            "semiglobal": ("exact", "affine", "semiglobal", ()),
            "nw": ("exact", "affine", "global", ()),
        }
        assert set(expect) == set(engine_names())
        for name, (exc, gap, ends, bounds) in expect.items():
            caps = engine_capabilities(name)
            assert (caps.exactness, caps.gap_model, caps.endpoints,
                    caps.bound_params) == (exc, gap, ends, bounds)

    def test_descriptor_validation(self):
        with pytest.raises(ValueError):
            EngineCapabilities(exactness="bounded")  # needs bound_params
        with pytest.raises(ValueError):
            EngineCapabilities(bound_params=("band",))  # exact forbids them
        with pytest.raises(ValueError):
            EngineCapabilities(endpoints="diagonal")
        with pytest.raises(ValueError):
            EngineCapabilities(gap_model="convex")

    def test_find_engines_queries(self):
        assert find_engines() == engine_names()
        assert find_engines(exactness="exact", endpoints="local") == (
            "batched", "pruned", "reference")
        assert find_engines(requires=("band",)) == ("banded",)
        assert find_engines(requires=("x",)) == ("xdrop",)
        assert find_engines(endpoints="global") == ("nw",)
        assert find_engines(gap_model="linear") == ()

    def test_unknown_engine_capabilities(self):
        with pytest.raises(ValueError, match="unknown engine"):
            engine_capabilities("gpu3000")

    def test_bound_values(self):
        assert resolve_engine("banded", band=16).bound_values == {"band": 16}
        assert resolve_engine("banded").bound_values == {"band": None}
        assert resolve_engine("xdrop").bound_values == {"x": 50}
        assert resolve_engine("reference").bound_values == {}


class TestSpecParsing:
    def test_bare_name(self):
        assert parse_engine_spec("banded") == ("banded", {})

    def test_params(self):
        assert parse_engine_spec("banded:band=16") == ("banded", {"band": 16})
        assert parse_engine_spec("xdrop:x=7") == ("xdrop", {"x": 7})
        assert parse_engine_spec("banded:band=none") == ("banded", {"band": None})
        assert parse_engine_spec("banded:error_rate=0.1,band=auto") == (
            "banded", {"error_rate": 0.1, "band": None})

    @pytest.mark.parametrize("bad", ["banded:", "banded:band", "banded:=3"])
    def test_malformed_specs(self, bad):
        with pytest.raises(ValueError):
            parse_engine_spec(bad)

    def test_resolve_spec_string(self):
        eng = resolve_engine("banded:band=16")
        assert isinstance(eng, BandedEngine) and eng.band == 16
        assert resolve_engine("xdrop:x=7").x == 7

    def test_resolve_kwargs_override_spec(self):
        assert resolve_engine("banded:band=16", band=4).band == 4

    def test_resolve_rejects_bad_params(self):
        with pytest.raises(ValueError, match="bad parameters"):
            resolve_engine("banded:frob=1")
        with pytest.raises(ValueError):
            resolve_engine("banded", band=-1)
        with pytest.raises(ValueError):
            resolve_engine(BandedEngine(), band=3)  # params on an instance

    def test_engine_constructor_validation(self):
        with pytest.raises(ValueError):
            BandedEngine(error_rate=0.0)
        with pytest.raises(ValueError):
            BandedEngine(max_state_cells=0)
        with pytest.raises(ValueError):
            XDropEngine(x=-1)


# ---------------------------------------------------------------------------
# Variant engines vs their per-pair references (bit-identity incl endpoints)
# ---------------------------------------------------------------------------


class TestVariantEngineFidelity:
    def test_banded_engine_bit_identical_to_banded_sw_align(self, rng):
        jobs = _jobs(_random_pairs(rng, 24, hi=70))
        for band in (0, 1, 3, 11):
            got = BandedEngine(band=band).score_batch(jobs, SCORING)
            for j, res in zip(jobs, got):
                assert res == banded_sw_align(j.ref, j.query, band, SCORING)

    def test_banded_engine_default_band_matches_qos_sizing(self, rng):
        jobs = _jobs(_random_pairs(rng, 12, hi=90))
        eng = BandedEngine(error_rate=0.05)
        got = eng.score_batch(jobs, SCORING)
        for j, res in zip(jobs, got):
            band = band_for_error_rate(max(j.ref_len, j.query_len), 0.05)
            assert eng.band_for_job(j) == band
            assert res == banded_sw_align(j.ref, j.query, band, SCORING)

    def test_batched_banded_regrouping_invariant(self, rng):
        pairs = _random_pairs(rng, 10, hi=40) + _random_pairs(rng, 3, hi=200)
        bands = [int(b) for b in rng.integers(0, 30, len(pairs))]
        full = batched_banded_sw_align(pairs, bands, SCORING)
        forced = batched_banded_sw_align(pairs, bands, SCORING, max_state_cells=1)
        assert full == forced
        for (r, q), band, res in zip(pairs, bands, full):
            assert res == banded_sw_align(r, q, band, SCORING)

    def test_batched_banded_validates_inputs(self):
        with pytest.raises(ValueError, match="one band per pair"):
            batched_banded_sw_align([(np.zeros(3, np.uint8),) * 2], [])
        with pytest.raises(ValueError, match="non-negative"):
            batched_banded_sw_align([(np.zeros(3, np.uint8),) * 2], [-1])

    def test_xdrop_engine_matches_xdrop_extend(self, rng):
        jobs = _jobs(_random_pairs(rng, 20))
        for x in (0, 5, 50):
            got = XDropEngine(x=x).score_batch(jobs, SCORING)
            for j, res in zip(jobs, got):
                e = xdrop_extend(j.ref, j.query, x, SCORING)
                assert res == AlignmentResult(
                    score=max(e.score, 0), ref_end=e.ref_end, query_end=e.query_end)

    def test_semiglobal_engine_matches_reference(self, rng):
        jobs = _jobs(_random_pairs(rng, 20))
        got = SemiglobalEngine().score_batch(jobs, SCORING)
        for j, res in zip(jobs, got):
            exp = semiglobal_align(j.ref, j.query, SCORING)
            assert res == AlignmentResult(
                score=exp.score, ref_end=exp.ref_end, query_end=j.query_len)
            assert res.score == semiglobal_score_slow(j.ref, j.query, SCORING)

    def test_nw_engine_matches_oracle(self, rng):
        jobs = _jobs(_random_pairs(rng, 16))
        got = NWEngine().score_batch(jobs, SCORING)
        for j, res in zip(jobs, got):
            assert res == AlignmentResult(
                score=nw_score_slow(j.ref, j.query, SCORING),
                ref_end=j.ref_len, query_end=j.query_len)

    def test_pruned_engine_preserves_exact_scores(self, rng):
        jobs = _jobs(_random_pairs(rng, 16))
        got = PrunedEngine().score_batch(jobs, SCORING)
        for j, res in zip(jobs, got):
            assert res == pruned_grid_sweep(j.ref, j.query, SCORING).result
            assert res.score == sw_align_slow(j.ref, j.query, SCORING).score

    def test_kernel_band_config_routes_through_banded_engine(self, rng):
        """SalobaKernel(config.band) now scores via the registered
        banded engine — results stay bit-identical to the historical
        per-pair banded path."""
        jobs = make_jobs(_random_pairs(rng, 8, hi=40))
        kernel = SalobaKernel(SCORING, SalobaConfig(band=5))
        out = kernel.run(jobs, GTX1650, compute_scores=True)
        for j, res in zip(jobs, out.results):
            assert res == banded_sw_align(j.ref, j.query, 5, SCORING)


# ---------------------------------------------------------------------------
# Satellite 1: banded_sw_align boundary property tests (hypothesis)
# ---------------------------------------------------------------------------


def _banded_slow(ref, query, band, scoring):
    """Masked-DP oracle: full SW row scan with out-of-band cells held
    at the boundary state, the obviously-correct tight-band reference
    (exercises the p0/new_f halo and the jlo>jhi early exit in the
    production banded sweep)."""
    m, n = len(ref), len(query)
    sub = scoring.matrix
    H = np.zeros((m + 1, n + 1), dtype=np.int64)
    E = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    F = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    best, bi, bj = 0, 0, 0
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if abs(i - j) > band:
                continue
            e = max(H[i, j - 1] - scoring.alpha, E[i, j - 1] - scoring.beta)
            f = max(H[i - 1, j] - scoring.alpha, F[i - 1, j] - scoring.beta)
            h = max(e, f, H[i - 1, j - 1] + int(sub[ref[i - 1], query[j - 1]]), 0)
            E[i, j], F[i, j], H[i, j] = e, f, h
            if h > best:
                best, bi, bj = h, i, j
    return AlignmentResult(score=int(best), ref_end=bi, query_end=bj)


class TestBandedProperties:
    @settings(max_examples=60, deadline=None)
    @given(r=codes, q=codes)
    def test_wide_band_reduces_to_full_sw(self, r, q):
        """band >= max(m, n) covers every cell: score AND endpoint must
        equal the full-table row scan."""
        band = max(r.size, q.size)
        got = banded_sw_align(r, q, band, SCORING)
        exp = sw_align_slow(r, q, SCORING)
        assert got == exp

    @settings(max_examples=60, deadline=None)
    @given(r=codes, q=codes, band=st.integers(0, 2))
    def test_tight_bands_match_masked_dp(self, r, q, band):
        """Tight bands are where the p0 halo re-seed and the jlo>jhi
        break fire; the production sweep must equal the masked oracle
        bit for bit."""
        assert banded_sw_align(r, q, band, SCORING) == _banded_slow(r, q, band, SCORING)

    @settings(max_examples=40, deadline=None)
    @given(r=codes, q=codes, band=st.integers(0, 6))
    def test_band_monotone_and_bounded_by_full(self, r, q, band):
        lo = banded_sw_align(r, q, band, SCORING).score
        hi = banded_sw_align(r, q, band + 1, SCORING).score
        full = sw_align_slow(r, q, SCORING).score
        assert 0 <= lo <= hi <= full

    @settings(max_examples=40, deadline=None)
    @given(r=codes, q=codes, band=st.integers(0, 5))
    def test_batched_banded_engine_matches_per_pair(self, r, q, band):
        (res,) = BandedEngine(band=band).score_batch(
            [ExtensionJob(ref=r, query=q)], SCORING)
        assert res == banded_sw_align(r, q, band, SCORING)


# ---------------------------------------------------------------------------
# Satellite 2: xdrop_extend x=inf edge cases
# ---------------------------------------------------------------------------


class TestXDropEdgeCases:
    INF = float("inf")

    def test_empty_query_is_empty_extension(self):
        res = xdrop_extend(np.arange(8, dtype=np.uint8) % 4, np.empty(0, np.uint8), self.INF)
        assert (res.score, res.ref_end, res.query_end) == (0, 0, 0)
        assert not res.dropped and res.cells_computed == 0

    def test_empty_ref_is_empty_extension(self):
        res = xdrop_extend(np.empty(0, np.uint8), np.arange(8, dtype=np.uint8) % 4, self.INF)
        assert (res.score, res.ref_end, res.query_end) == (0, 0, 0)

    def test_all_mismatch_is_empty_extension(self):
        """Every cell loses score, so the exhaustive anchored optimum
        is the empty extension at the anchor."""
        r = np.zeros(12, np.uint8)
        q = np.ones(12, np.uint8)
        res = xdrop_extend(r, q, self.INF)
        assert (res.score, res.ref_end, res.query_end) == (0, 0, 0)
        assert anchored_best_slow(r, q) == (0, 0, 0)

    def test_first_diagonal_cannot_terminate_before_scoring(self):
        """x=0 on an all-mismatch pair: the harshest pruning still
        must not drop before cell (1,1) is evaluated."""
        res = xdrop_extend(np.zeros(6, np.uint8), np.ones(6, np.uint8), 0)
        assert res.cells_computed >= 1
        assert (res.score, res.ref_end, res.query_end) == (0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(r=codes, q=codes)
    def test_inf_x_equals_exhaustive_anchored_optimum(self, r, q):
        """With x=inf nothing is ever pruned: the sweep must find the
        exhaustive anchored optimum (scores compared — among equal
        maxima the diagonal sweep and the row-major oracle may pick
        different endpoints)."""
        res = xdrop_extend(r, q, self.INF)
        exp_score, _, _ = anchored_best_slow(r, q)
        assert res.score == exp_score
        assert not res.dropped

    @settings(max_examples=40, deadline=None)
    @given(r=codes, q=codes, x=st.integers(0, 30))
    def test_finite_x_never_beats_inf(self, r, q, x):
        assert xdrop_extend(r, q, x).score <= xdrop_extend(r, q, self.INF).score


# ---------------------------------------------------------------------------
# Satellite 3: bound params on degraded results and cache keys
# ---------------------------------------------------------------------------


class TestBoundParamPlumbing:
    def test_qos_tiers_resolve_by_capability(self):
        assert tier_engine_name(TIER_BANDED) == "banded"
        assert tier_engine_name(TIER_XDROP) == "xdrop"
        with pytest.raises(ValueError, match="not an approximate tier"):
            tier_engine_name("exact")

    def test_tier_params_carry_the_effective_bound(self, rng):
        job = _jobs(_random_pairs(rng, 1, hi=50))[0]
        p = tier_params(job, TIER_BANDED, error_rate=0.05, xdrop_x=50)
        assert p == {"band": band_for_error_rate(
            max(job.ref_len, job.query_len), 0.05)}
        assert tier_params(job, TIER_XDROP, error_rate=0.05, xdrop_x=9) == {"x": 9}

    def test_score_degraded_bit_identical_to_reference_algorithms(self, rng):
        """The registry-routed degraded path must reproduce the
        historical per-pair results byte for byte (PR 9 identity)."""
        for job in _jobs(_random_pairs(rng, 12, hi=60)):
            banded = score_degraded(job, TIER_BANDED, SCORING,
                                    error_rate=0.05, xdrop_x=50)
            band = band_for_error_rate(max(job.ref_len, job.query_len), 0.05)
            assert banded == banded_sw_align(job.ref, job.query, band, SCORING)
            xd = score_degraded(job, TIER_XDROP, SCORING,
                                error_rate=0.05, xdrop_x=50)
            e = xdrop_extend(job.ref, job.query, 50, SCORING)
            assert xd == AlignmentResult(
                score=max(e.score, 0), ref_end=e.ref_end, query_end=e.query_end)

    def test_cache_key_exact_default_unchanged(self, rng):
        job = _jobs(_random_pairs(rng, 1, hi=30))[0]
        assert cache_key(job, SCORING) == cache_key(job, SCORING, tier="exact")
        assert cache_key(job, SCORING) == cache_key(
            job, SCORING, tier="exact", params=None)

    def test_cache_key_distinguishes_tiers_and_bounds(self, rng):
        job = _jobs(_random_pairs(rng, 1, hi=30))[0]
        exact = cache_key(job, SCORING)
        b8 = cache_key(job, SCORING, tier="banded", params={"band": 8})
        b16 = cache_key(job, SCORING, tier="banded", params={"band": 16})
        x8 = cache_key(job, SCORING, tier="xdrop", params={"x": 8})
        keys = {exact, b8, b16, x8}
        assert len(keys) == 4
        # param order never matters
        two = cache_key(job, SCORING, tier="banded", params={"band": 8, "x": 1})
        assert two == cache_key(job, SCORING, tier="banded", params={"x": 1, "band": 8})

    def test_degraded_handles_carry_bound_params(self, rng):
        policy = QoSPolicy(
            tenants=(TenantPolicy(name="bg", tenant_class="best_effort"),),
            banded_error_rate=0.05, xdrop_x=50,
        )
        pairs = [(q, r) for q, r in _random_pairs(rng, 6, hi=50)
                 if q.size and r.size]
        svc = AlignmentService(compute_scores=True, qos=policy)
        svc.set_overload_level(1)  # best_effort -> banded
        handles = [svc.submit(q, r, tenant="bg") for q, r in pairs]
        svc.flush()
        for h, (q, r) in zip(handles, pairs):
            assert h.ok and h.tier == TIER_BANDED and h.approximate
            band = band_for_error_rate(max(len(r), len(q)), 0.05)
            assert h.tier_params == {"band": band}
        svc2 = AlignmentService(compute_scores=True, qos=policy)
        svc2.set_overload_level(2)  # best_effort -> xdrop
        handles = [svc2.submit(q, r, tenant="bg") for q, r in pairs]
        svc2.flush()
        for h in handles:
            assert h.ok and h.tier == TIER_XDROP
            assert h.tier_params == {"x": 50}

    def test_exact_handles_have_empty_tier_params(self, rng):
        svc = AlignmentService(compute_scores=True)
        pairs = [(q, r) for q, r in _random_pairs(rng, 4, hi=40)
                 if q.size and r.size]
        handles = [svc.submit(q, r) for q, r in pairs]
        svc.flush()
        for h in handles:
            assert h.tier == "exact" and h.tier_params == {}


# ---------------------------------------------------------------------------
# Capability-aware bench fidelity gates
# ---------------------------------------------------------------------------


class TestBenchFidelityGates:
    """Bounded engines compute a different quantity than the reference
    oracle, so the serve/cluster bench fidelity gates must compare
    them against their own ``score_batch`` contract — not against the
    exact local reference path (which they would always 'fail')."""

    @pytest.mark.parametrize("spec", ["banded:band=6", "xdrop", "nw"])
    def test_serve_bench_gate_passes_for_bounded_engines(self, spec):
        from repro.serve.bench import run_serve_bench

        res = run_serve_bench(
            40, scored_pairs=6, seed=3, engine=resolve_engine(spec)
        )
        assert res.scored_checked == 6 and res.scored_identical

    @pytest.mark.parametrize("engine", ["banded", "xdrop", "semiglobal"])
    def test_cluster_bench_gate_passes_for_bounded_engines(self, engine):
        from repro.cluster.bench import run_cluster_bench

        res = run_cluster_bench(
            30, 2, scored_pairs=4, seed=3, engine=engine,
            policies=("static_hash",),
        )
        assert res.scored_checked == 4 and res.scored_identical


# ---------------------------------------------------------------------------
# Satellite 6 (CLI side): unknown --engine exits with taxonomy code 2
# ---------------------------------------------------------------------------


class TestCliEngineValidation:
    def test_unknown_engine_exits_2(self, capsys):
        for spec in ("gpu3000", "auto"):
            rc = main(["serve-bench", "--requests", "1", "--engine", spec])
            captured = capsys.readouterr()
            assert rc == 2
            assert "unknown engine" in captured.err
            assert "Traceback" not in captured.err

    def test_malformed_engine_params_exit_2(self, capsys):
        rc = main(["serve-bench", "--requests", "1", "--engine", "banded:frob=1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "Traceback" not in captured.err

    def test_cluster_bench_validates_engine_too(self, capsys):
        for spec in ("gpu3000", "auto"):
            rc = main(["cluster-bench", "--requests", "1", "--engine", spec])
            captured = capsys.readouterr()
            assert rc == 2
            assert "unknown engine" in captured.err
            assert "Traceback" not in captured.err

    def test_service_rejects_auto(self):
        with pytest.raises(ValueError, match="unknown engine"):
            AlignmentService(engine="auto")
