"""The ``repro.align`` variant family as registered engines.

The banded, x-drop, semiglobal, NW and pruning scorers are
:class:`~repro.engine.base.ExecutionEngine` backends with capability
descriptors, so serve, cluster, pipeline, QoS and CLI select them
through the registry like any exact engine.  Every one but ``pruned``
is one call of the ``batched`` engine's anti-diagonal kernel
(:func:`repro.engine.batched._align_batch`); the engine fixes the
kernel's boundary, and the ``repro.align`` per-pair functions stay as
the test oracles:

==============  ==============  ===============================  ===========================
engine          boundary        bound / termination              bit-identical to
==============  ==============  ===============================  ===========================
``banded``      ``local``       per-pair band, row-major ties    ``banded_sw_align``
``xdrop``       ``anchored``    per-pair X-drop ``x``            ``xdrop_extend``, score
                                                                 floored at 0
``semiglobal``  ``semiglobal``  none                             ``semiglobal_align``
                                                                 (``query_end = n``)
``nw``          ``global``      none                             ``nw_score_slow`` (ends
                                                                 ``(m, n)``)
``pruned``      own sweep       block pruning                    ``sw_align_slow`` (scores)
==============  ==============  ===============================  ===========================

``banded``
    Band-restricted local Smith-Waterman (Discussion VII-B).  Bounded
    (``bound_params=("band",)``): cells with ``|i - j| > band`` are
    unreachable.  Each diagonal is cut to the union of the group's
    band windows, so a narrow band sweeps only its own lanes.
``xdrop``
    Anchored X-drop seed extension (``bound_params=("x",)``), the
    semantics of BWA-MEM's ``ksw_extend``: cell (0, 0) is the only
    free start, and a pair stops once a whole anti-diagonal has
    dropped more than ``x`` below its best.
``semiglobal``
    Whole-query / free-reference-ends alignment (exact, endpoint
    semantics ``"semiglobal"``); scores can be negative.
``nw``
    Global Needleman-Wunsch (exact, ``"global"``); scores can be
    negative.
``pruned``
    Exact local block-grid sweep with CUDAlign-style block pruning
    (:func:`repro.align.pruning.pruned_grid_sweep`) — score-identical
    to the oracle, per pair.

The kernel's invariants (module docstring of
:mod:`repro.engine.batched`) carry over to the unfloored boundaries:

1. padded cells never reach a real cell; ``nw`` and ``semiglobal``
   read their score from fixed cells, ``xdrop`` counts only real
   cells as alive, and no padded ``H`` beats or ties the best;
2. the gap-charged boundary ``H`` of lane 0 and lane ``d`` is written
   once per diagonal, so no buffer is ever filled;
3. the state stays int32 while ``-(alpha + (M + N - 1) * beta)``,
   twice over, plus one ``NEG_INF`` from a padded or dropped cell fits
   in ``+-2**30``, else int64.

Bit-identity contracts: every engine but ``pruned`` reproduces its
per-pair reference algorithm byte for byte, endpoints included (the
degraded QoS tiers resolve through ``banded`` and ``xdrop``, and
degraded results must stay reproducible); **pruned** is
score-identical to ``sw_align_slow`` with block-grid endpoints (the
library-wide tie-break caveat applies, as for ``batched``).
"""

from __future__ import annotations

from ..align.banded import band_for_error_rate
from ..align.matrix import AlignmentResult
from ..align.pruning import pruned_grid_sweep
from ..align.scoring import ScoringScheme
from .base import EngineCapabilities, ExecutionEngine, register_engine
from .batched import _align_batch

__all__ = [
    "BandedEngine",
    "XDropEngine",
    "SemiglobalEngine",
    "NWEngine",
    "PrunedEngine",
    "batched_banded_sw_align",
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
    :func:`~repro.align.banded.banded_sw_align` per pair.  The pairs
    run through the exact batched sweep's kernel and regrouping
    (:func:`repro.engine.batched._align_batch`) with per-pair bands,
    each diagonal cut to the union of its group's band windows, and
    the row scan's tie-break.
    """
    pairs = list(pairs)
    bands = [int(b) for b in bands]
    if len(bands) != len(pairs):
        raise ValueError("need exactly one band per pair")
    if any(b < 0 for b in bands):
        raise ValueError("band must be non-negative")
    return _align_batch(
        pairs, scoring or ScoringScheme(), max_state_cells, bands,
        row_major_ties=True,
    )


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
    """Anchored X-drop extension.  See module docstring.

    The anchored best starts at the empty extension, so the returned
    score is never below 0, matching how the QoS ladder has always
    reported the x-drop tier; the raw
    :class:`~repro.align.xdrop.XDropResult` — drop flag, cells
    computed — remains available from
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
        return _align_batch(
            [(j.ref, j.query) for j in jobs], scoring,
            xs=[self.x] * len(jobs), boundary="anchored",
        )


@register_engine
class SemiglobalEngine(ExecutionEngine):
    """Whole-query / free-reference-ends alignment.

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
        return _align_batch(
            [(j.ref, j.query) for j in jobs], scoring, boundary="semiglobal"
        )


@register_engine
class NWEngine(ExecutionEngine):
    """Global Needleman-Wunsch scoring.

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
        return _align_batch(
            [(j.ref, j.query) for j in jobs], scoring, boundary="global"
        )


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
