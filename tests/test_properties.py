"""Property-based tests (hypothesis) on core invariants.

These probe the algebraic properties that must hold for *any* input:
alignment-score bounds and symmetries, packing bijectivity, FM-index
counting consistency, simulator conservation laws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import ScoringScheme, grid_sweep, nw_score, sw_align, sw_align_slow
from repro.core import SUBWARP_SIZES, SalobaConfig, saloba_extend_exact
from repro.core.layout import ChunkPlan, plan_job
from repro.align.blocks import BLOCK
from repro.align.grid import job_geometry
from repro.seqs import pack, reverse_complement, unpack
from repro.seeding import FMIndex, suffix_array

SCORING = ScoringScheme()

codes = st.lists(st.integers(0, 4), min_size=0, max_size=48).map(
    lambda xs: np.asarray(xs, dtype=np.uint8)
)
codes_nonempty = st.lists(st.integers(0, 4), min_size=1, max_size=48).map(
    lambda xs: np.asarray(xs, dtype=np.uint8)
)
acgt = st.lists(st.integers(0, 3), min_size=1, max_size=60).map(
    lambda xs: np.asarray(xs, dtype=np.uint8)
)


class TestAlignmentProperties:
    @settings(max_examples=40, deadline=None)
    @given(r=codes, q=codes)
    def test_score_bounds(self, r, q):
        """0 <= SW score <= match * min(m, n)."""
        score = sw_align(r, q, SCORING).score
        assert 0 <= score <= SCORING.match * min(r.size, q.size)

    @settings(max_examples=30, deadline=None)
    @given(r=codes_nonempty, q=codes_nonempty)
    def test_symmetry(self, r, q):
        """SW is symmetric under swapping the sequences."""
        assert sw_align(r, q, SCORING).score == sw_align(q, r, SCORING).score

    @settings(max_examples=30, deadline=None)
    @given(s=codes_nonempty)
    def test_self_alignment_without_n(self, s):
        """A sequence aligned to itself scores match * (non-N length
        contributions) — for N-free input exactly match * len."""
        if (s == 4).any():
            return
        assert sw_align(s, s, SCORING).score == SCORING.match * s.size

    @settings(max_examples=25, deadline=None)
    @given(r=codes_nonempty, q=codes_nonempty)
    def test_concatenation_monotonicity(self, r, q):
        """Appending context can only help a local alignment."""
        base = sw_align(r, q, SCORING).score
        extended = sw_align(np.concatenate([r, q]), q, SCORING).score
        assert extended >= base

    @settings(max_examples=25, deadline=None)
    @given(r=codes_nonempty, q=codes_nonempty)
    def test_fast_matches_oracle(self, r, q):
        assert sw_align(r, q, SCORING).score == sw_align_slow(r, q, SCORING).score

    @settings(max_examples=25, deadline=None)
    @given(r=codes_nonempty, q=codes_nonempty)
    def test_grid_matches_oracle(self, r, q):
        assert grid_sweep([(r, q)], SCORING)[0].score == sw_align_slow(r, q, SCORING).score

    @settings(max_examples=20, deadline=None)
    @given(r=codes_nonempty, q=codes_nonempty)
    def test_nw_upper_bounded_by_sw(self, r, q):
        """Global score never exceeds the best local score."""
        assert nw_score(r, q, SCORING) <= sw_align(r, q, SCORING).score

    @settings(max_examples=20, deadline=None)
    @given(s=acgt)
    def test_reverse_invariance_of_self_score(self, s):
        """Score(s, s) == Score(reverse(s), reverse(s))."""
        rev = s[::-1].copy()
        assert sw_align(s, s, SCORING).score == sw_align(rev, rev, SCORING).score


class TestSalobaDataflowProperties:
    @settings(max_examples=15, deadline=None)
    @given(r=codes_nonempty, q=codes_nonempty, s=st.sampled_from([4, 8, 16, 32]))
    def test_exact_and_audited_for_any_input(self, r, q, s):
        res, audit = saloba_extend_exact(r, q, SCORING, SalobaConfig(subwarp_size=s))
        assert res.score == sw_align_slow(r, q, SCORING).score
        assert audit.consistent

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(1, 5000),
        n=st.integers(1, 5000),
        s=st.sampled_from([4, 8, 16, 32]),
        band=st.integers(0, 200),
    )
    def test_plan_conservation(self, m, n, s, band):
        """Busy + idle thread-steps == steps * lanes, for every chunk;
        chunk heights tile the block rows exactly."""
        plan = plan_job(job_geometry(m, n), s, band)
        assert sum(c.height for c in plan.chunks) == plan.geometry.r
        for c in plan.chunks:
            assert c.busy_thread_steps + c.idle_thread_steps(s) == c.steps * s
            assert 1 <= c.height <= s


def chunk_walk(geometry, s: int, band: int = 0) -> dict:
    """Oracle for :func:`plan_job`: cut the block rows into chunks one
    at a time and sum each total over the chunk list."""
    width = geometry.q
    if band > 0:
        width = min(geometry.q, 2 * -(-band // BLOCK) + 1)
    chunks = []
    row = 0
    while row < geometry.r:
        height = min(s, geometry.r - row)
        chunks.append(ChunkPlan(height=height, width=width))
        row += height
    inner = max(len(chunks) - 1, 0)
    return {
        "chunks": tuple(chunks),
        "n_chunks": len(chunks),
        "total_steps": sum(c.steps for c in chunks),
        "total_blocks": sum(c.busy_thread_steps for c in chunks),
        "idle_thread_steps": sum(c.idle_thread_steps(s) for c in chunks),
        "ramp_steps": sum(min(c.width, c.height) - 1 if c.width else 0 for c in chunks),
        "boundary_cells": inner * min(geometry.query_len, width * BLOCK if chunks else 0),
        "spill_events": inner * -(-width // s) if inner else 0,
    }


_PLAN_TOTALS = ("n_chunks", "total_steps", "total_blocks", "idle_thread_steps",
                "ramp_steps", "boundary_cells", "spill_events")


class TestClosedFormPlan:
    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(0, 5000),
        n=st.integers(0, 5000),
        s=st.sampled_from(SUBWARP_SIZES),
        band=st.integers(0, 200),
    )
    def test_scalar_plan_equals_chunk_walk(self, m, n, s, band):
        geometry = job_geometry(m, n)
        plan = plan_job(geometry, s, band)
        walk = chunk_walk(geometry, s, band)
        for name in _PLAN_TOTALS:
            got = getattr(plan, name)
            assert type(got) is int and got == walk[name], name
        assert plan.chunks == walk["chunks"]

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
                      min_size=0, max_size=40),
        s=st.sampled_from(SUBWARP_SIZES),
        band=st.integers(0, 200),
    )
    def test_batch_plan_equals_stacked_scalar_plans(self, dims, s, band):
        ref_len = np.array([m for m, _ in dims], dtype=np.int64)
        query_len = np.array([n for _, n in dims], dtype=np.int64)
        batch = plan_job(job_geometry(ref_len, query_len), s, band)
        scalars = [plan_job(job_geometry(m, n), s, band) for m, n in dims]
        for name in _PLAN_TOTALS:
            got = getattr(batch, name)
            assert got.dtype == np.int64, name
            assert got.tolist() == [getattr(p, name) for p in scalars], name


class TestPackingProperties:
    @settings(max_examples=40, deadline=None)
    @given(s=acgt, bits=st.sampled_from([2, 4, 8]))
    def test_pack_unpack_bijection(self, s, bits):
        assert (unpack(pack(s, bits), s.size, bits) == s).all()

    @settings(max_examples=30, deadline=None)
    @given(s=codes)
    def test_reverse_complement_involution(self, s):
        assert (reverse_complement(reverse_complement(s)) == s).all()


class TestIndexProperties:
    @settings(max_examples=10, deadline=None)
    @given(text=st.lists(st.integers(0, 3), min_size=2, max_size=120).map(
        lambda xs: np.asarray(xs, dtype=np.uint8)))
    def test_suffix_array_sorted(self, text):
        sa = suffix_array(text)
        padded = np.concatenate([text + 1, [0]])
        for a, b in zip(sa, sa[1:]):
            assert tuple(padded[a:]) < tuple(padded[b:])

    @settings(max_examples=8, deadline=None)
    @given(
        text=st.lists(st.integers(0, 3), min_size=8, max_size=150).map(
            lambda xs: np.asarray(xs, dtype=np.uint8)),
        start=st.integers(0, 120),
        plen=st.integers(1, 12),
    )
    def test_fm_count_every_substring_present(self, text, start, plen):
        if start + plen > text.size:
            return
        fm = FMIndex(text)
        assert fm.count(text[start : start + plen]) >= 1
