"""The ``repro.align`` variant family as registered engines.

Before this module the banded, x-drop, semiglobal, NW, and pruning
scorers were reachable only as per-module entry points — the QoS
degradation ladder imported them directly, per pair.  Here they become
:class:`~repro.engine.base.ExecutionEngine` backends with capability
descriptors, so serve, cluster, pipeline, and CLI select them through
the registry like any exact engine:

``banded``
    Band-restricted local Smith-Waterman (Discussion VII-B).  Bounded
    (``bound_params=("band",)``): cells with ``|i - j| > band`` are
    unreachable.  Implemented as a **batched** anti-diagonal sweep
    reusing the ``repro.engine.batched`` lane machinery with a
    per-pair band mask; results are bit-identical — endpoints
    included — to :func:`repro.align.banded.banded_sw_align`.
``xdrop``
    Anchored X-drop seed extension (``bound_params=("x",)``), the
    semantics of BWA-MEM's ``ksw_extend``; per-pair wrapper over
    :func:`repro.align.xdrop.xdrop_extend` with the score floored at
    0 exactly as the QoS ladder has always reported it.
``semiglobal``
    Whole-query / free-reference-ends alignment (exact, endpoint
    semantics ``"semiglobal"``); scores can be negative.
``nw``
    Global Needleman-Wunsch (exact, ``"global"``); the anti-diagonal
    vectorized :func:`repro.align.antidiagonal.nw_score`.
``pruned``
    Exact local block-grid sweep with CUDAlign-style block pruning
    (:func:`repro.align.pruning.pruned_grid_sweep`) — score-identical
    to the oracle, per pair.

Bit-identity contracts: the **banded** and **xdrop** engines reproduce
their per-pair reference algorithms byte for byte (the degraded QoS
tiers resolve through them, and degraded results must stay
reproducible across PRs); **pruned** is score-identical to
``sw_align_slow`` with block-grid endpoints (the library-wide
tie-break caveat applies, as for ``batched``).
"""

from __future__ import annotations

import numpy as np

from ..align.antidiagonal import nw_score
from ..align.banded import band_for_error_rate, banded_sw_align
from ..align.matrix import AlignmentResult
from ..align.pruning import pruned_grid_sweep
from ..align.scoring import NEG_INF, PAD, ScoringScheme
from ..align.semiglobal import semiglobal_align
from ..align.xdrop import xdrop_extend
from .base import EngineCapabilities, ExecutionEngine, register_engine

__all__ = [
    "BandedEngine",
    "XDropEngine",
    "SemiglobalEngine",
    "NWEngine",
    "PrunedEngine",
    "batched_banded_sw_align",
]

_EMPTY = AlignmentResult(score=0, ref_end=0, query_end=0)


def _banded_sweep_group(
    refs: list[np.ndarray],
    queries: list[np.ndarray],
    bands: list[int],
    scoring: ScoringScheme,
) -> list[AlignmentResult]:
    """Score one padded sub-batch of band-restricted pairs.

    Same ``batch x lane`` layout as the exact batched sweep (lane
    ``i`` holds cell ``(i, d - i)`` of anti-diagonal ``d``), with one
    extra mask: lanes outside a pair's band ``|i - j| <= band`` are
    forced back to the local boundary state (``H = 0``,
    ``E = F = NEG_INF``) after every diagonal.  That forcing is
    *score-preserving* for the in-band cells: a cell's diagonal
    predecessor shares its ``|i - j|`` and is therefore never
    out-of-band, so only the E/F arms can cross the band edge — and
    they enter as ``max(0 - alpha, NEG_INF - beta) < 0``, which the
    local zero floor dominates and whose propagation is dominated by
    the in-band ``H - alpha`` arm.  In-band ``H`` values are thus bit-
    identical to :func:`~repro.align.banded.banded_sw_align`'s.

    Best-cell tracking reproduces the row-scan's tie-break (smallest
    ``(i, j)`` row-major among maxima) rather than the anti-diagonal
    first-maximum one, so *endpoints* match the per-pair reference
    too: on an equal score, a candidate on a later diagonal only wins
    with a strictly smaller reference row.
    """
    B = len(refs)
    m = np.array([r.size for r in refs], dtype=np.int64)
    n = np.array([q.size for q in queries], dtype=np.int64)
    M = int(m.max())
    N = int(n.max())
    r_pad = np.full((B, M), PAD, dtype=np.intp)
    q_pad = np.full((B, N), PAD, dtype=np.intp)
    for b, (r, q) in enumerate(zip(refs, queries)):
        r_pad[b, : r.size] = r
        q_pad[b, : q.size] = q
    sub = scoring.matrix.astype(np.int64)
    alpha = np.int64(scoring.alpha)
    beta = np.int64(scoring.beta)

    H_prev2 = np.zeros((B, M + 1), dtype=np.int64)
    H_prev = np.zeros((B, M + 1), dtype=np.int64)
    E_prev = np.full((B, M + 1), NEG_INF, dtype=np.int64)
    F_prev = np.full((B, M + 1), NEG_INF, dtype=np.int64)

    best = np.zeros(B, dtype=np.int64)
    best_i = np.zeros(B, dtype=np.int64)
    best_j = np.zeros(B, dtype=np.int64)
    m_col = m[:, None]
    n_col = n[:, None]
    band_col = np.array(bands, dtype=np.int64)[:, None]
    lane_i = np.arange(M + 1, dtype=np.int64)

    for d in range(2, M + N + 1):
        lo = max(1, d - N)
        hi = min(M, d - 1)  # inclusive
        if lo > hi:
            continue
        sl = slice(lo, hi + 1)
        i_vals = lane_i[sl]
        e_new = np.maximum(H_prev[:, sl] - alpha, E_prev[:, sl] - beta)
        f_new = np.maximum(
            H_prev[:, lo - 1 : hi] - alpha, F_prev[:, lo - 1 : hi] - beta
        )
        s = sub[r_pad[:, lo - 1 : hi], q_pad[:, d - i_vals - 1]]
        h_diag = H_prev2[:, lo - 1 : hi] + s
        h_new = np.maximum(np.maximum(e_new, f_new), np.maximum(h_diag, 0))

        # In-matrix AND in-band: |i - j| = |2i - d| <= band per pair.
        valid = (
            (i_vals[None, :] <= m_col)
            & ((d - i_vals)[None, :] <= n_col)
            & (np.abs(2 * i_vals - d)[None, :] <= band_col)
        )
        h_new = np.where(valid, h_new, 0)
        e_new = np.where(valid, e_new, NEG_INF)
        f_new = np.where(valid, f_new, NEG_INF)

        H_prev2, H_prev = H_prev, H_prev2
        H_prev.fill(0)
        H_prev[:, sl] = h_new
        E_prev.fill(NEG_INF)
        E_prev[:, sl] = e_new
        F_prev.fill(NEG_INF)
        F_prev[:, sl] = f_new

        # Row-major tie-break: strict improvement always wins; an
        # equal score on this (later) diagonal wins only with a
        # smaller reference row — equal rows mean a larger j here.
        # Forced/invalid lanes hold 0 and never beat best > 0.
        dmax = h_new.max(axis=1)
        pos = h_new.argmax(axis=1) + lo
        improved = dmax > best
        tied = (dmax == best) & (best > 0) & (pos < best_i)
        take = improved | tied
        if take.any():
            best_i = np.where(take, pos, best_i)
            best_j = np.where(take, d - pos, best_j)
            best = np.where(improved, dmax, best)

    return [
        AlignmentResult(score=int(best[b]), ref_end=int(best_i[b]), query_end=int(best_j[b]))
        for b in range(B)
    ]


def batched_banded_sw_align(
    pairs,
    bands,
    scoring: ScoringScheme | None = None,
    *,
    max_state_cells: int = 1 << 22,
) -> list[AlignmentResult]:
    """Banded Smith-Waterman results for a batch of code pairs.

    *bands* gives each pair its own band width.  Results come back in
    submission order, bit-identical (endpoints included) to calling
    :func:`~repro.align.banded.banded_sw_align` per pair; internally
    the batch is regrouped into length-coherent sub-batches under the
    same state-cell budget discipline as the exact batched sweep.
    """
    scoring = scoring or ScoringScheme()
    pairs = list(pairs)
    bands = list(bands)
    if len(bands) != len(pairs):
        raise ValueError("need exactly one band per pair")
    results: list[AlignmentResult | None] = [None] * len(pairs)
    items: list[tuple[int, np.ndarray, np.ndarray, int]] = []
    for i, (ref, query) in enumerate(pairs):
        band = int(bands[i])
        if band < 0:
            raise ValueError("band must be non-negative")
        r = np.asarray(ref, dtype=np.uint8)
        q = np.asarray(query, dtype=np.uint8)
        if r.size == 0 or q.size == 0:
            results[i] = _EMPTY
            continue
        items.append((i, r, q, band))
    items.sort(key=lambda t: (t[1].size + t[2].size, t[0]))

    group_idx: list[int] = []
    group_r: list[np.ndarray] = []
    group_q: list[np.ndarray] = []
    group_b: list[int] = []
    group_max_m = 0
    group_min_extent = 0

    def flush() -> None:
        nonlocal group_max_m
        if not group_idx:
            return
        for i, res in zip(
            group_idx, _banded_sweep_group(group_r, group_q, group_b, scoring)
        ):
            results[i] = res
        group_idx.clear()
        group_r.clear()
        group_q.clear()
        group_b.clear()
        group_max_m = 0

    for i, r, q, band in items:
        extent = r.size + q.size
        new_max = max(group_max_m, r.size)
        if group_idx and (
            extent > 2 * group_min_extent
            or (len(group_idx) + 1) * (new_max + 1) > max_state_cells
        ):
            flush()
            new_max = r.size
        if not group_idx:
            group_min_extent = extent
        group_idx.append(i)
        group_r.append(r)
        group_q.append(q)
        group_b.append(band)
        group_max_m = new_max
    flush()
    return results  # type: ignore[return-value]


@register_engine
class BandedEngine(ExecutionEngine):
    """Batched band-restricted local SW.  See module docstring.

    ``band=None`` (the default) derives each job's band from its
    longer sequence via
    :func:`~repro.align.banded.band_for_error_rate` at *error_rate* —
    the same sizing rule the QoS banded tier uses, so
    ``resolve_engine("banded")`` is serviceable without tuning.  A
    fixed integer band (``resolve_engine("banded", band=16)`` or the
    spec string ``"banded:band=16"``) applies to every job.
    """

    name = "banded"
    capabilities = EngineCapabilities(
        exactness="bounded", gap_model="affine", endpoints="local",
        bound_params=("band",),
    )

    def __init__(self, band: int | None = None, *, error_rate: float = 0.05,
                 max_state_cells: int = 1 << 22):
        if band is not None and band < 0:
            raise ValueError("band must be non-negative")
        if not 0.0 < error_rate < 1.0:
            raise ValueError("error_rate must be in (0, 1)")
        if max_state_cells < 1:
            raise ValueError("max_state_cells must be positive")
        self.band = band
        self.error_rate = error_rate
        self.max_state_cells = max_state_cells

    @staticmethod
    def band_for(length: int, error_rate: float) -> int:
        """The band-sizing heuristic, reachable without an
        ``repro.align`` import (the QoS tier table and proxy-job
        slicing both need the numeric band)."""
        return band_for_error_rate(length, error_rate)

    def band_for_job(self, job) -> int:
        """The band this engine will use for *job*."""
        if self.band is not None:
            return self.band
        return band_for_error_rate(
            max(job.ref_len, job.query_len), self.error_rate
        )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return batched_banded_sw_align(
            [(j.ref, j.query) for j in jobs],
            [self.band_for_job(j) for j in jobs],
            scoring,
            max_state_cells=self.max_state_cells,
        )


@register_engine
class XDropEngine(ExecutionEngine):
    """Anchored X-drop extension (per-pair).  See module docstring.

    The anchored score is floored at 0 in the returned
    :class:`AlignmentResult` (the empty extension always being
    available), matching how the QoS ladder has always reported the
    x-drop tier; the raw :class:`~repro.align.xdrop.XDropResult` —
    drop flag, cells computed — remains available from
    :func:`~repro.align.xdrop.xdrop_extend` directly.
    """

    name = "xdrop"
    capabilities = EngineCapabilities(
        exactness="bounded", gap_model="affine", endpoints="anchored",
        bound_params=("x",),
    )

    def __init__(self, x: int = 50):
        if x < 0:
            raise ValueError("x-drop threshold must be non-negative")
        self.x = x

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        out = []
        for j in jobs:
            res = xdrop_extend(j.ref, j.query, self.x, scoring)
            out.append(AlignmentResult(
                score=max(res.score, 0),
                ref_end=res.ref_end,
                query_end=res.query_end,
            ))
        return out


@register_engine
class SemiglobalEngine(ExecutionEngine):
    """Whole-query / free-reference-ends alignment (per-pair).

    ``query_end`` is always the full query length (the query is
    consumed end to end by definition); scores can be negative for a
    junk query, unlike the local engines.
    """

    name = "semiglobal"
    capabilities = EngineCapabilities(
        exactness="exact", gap_model="affine", endpoints="semiglobal",
    )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        out = []
        for j in jobs:
            res = semiglobal_align(j.ref, j.query, scoring)
            out.append(AlignmentResult(
                score=res.score, ref_end=res.ref_end, query_end=j.query_len,
            ))
        return out


@register_engine
class NWEngine(ExecutionEngine):
    """Global Needleman-Wunsch scoring (anti-diagonal vectorized).

    Both sequences are consumed end to end, so the endpoints are the
    full lengths by definition and only the score is informative;
    scores can be negative.
    """

    name = "nw"
    capabilities = EngineCapabilities(
        exactness="exact", gap_model="affine", endpoints="global",
    )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return [
            AlignmentResult(
                score=int(nw_score(j.ref, j.query, scoring)),
                ref_end=j.ref_len,
                query_end=j.query_len,
            )
            for j in jobs
        ]


@register_engine
class PrunedEngine(ExecutionEngine):
    """Exact local block-grid sweep with block pruning (per-pair).

    Scores are bit-identical to the oracle (pruning is exact by
    construction); endpoints follow the block-grid scan order, which
    may pick a different equal-scoring cell than the row scan (the
    library-wide tie-break caveat, as for ``batched``).
    """

    name = "pruned"
    capabilities = EngineCapabilities(
        exactness="exact", gap_model="affine", endpoints="local",
    )

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return [
            pruned_grid_sweep(j.ref, j.query, scoring).result for j in jobs
        ]
