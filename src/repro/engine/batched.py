"""Cross-query batched anti-diagonal sweep: one DP kernel for every engine.

The reference engine walks one Python wavefront per job; this kernel
scores an entire micro-batch at once.  All pairs are padded into one
``lane x batch`` state array (lane ``i`` holds cell ``(i, d - i)`` of
the current anti-diagonal ``d`` for every pair), so each step of the
affine-gap recurrence (Eqs. 1-3) is a handful of in-place
``np.maximum``/gather passes over the diagonal's live lanes, one
contiguous block of rows — AnySeq/GPU's cross-sequence batching idea,
with its one DP description specialised by boundary, band and
termination rather than copied per variant.

:func:`_sweep_group` serves every DP engine of the registry.  The
engine name picks the boundary; no caller passes one:

==============  ===========================  ==========  ====================================
boundary        row 0 / column 0 ``H``       zero floor  score read at
==============  ===========================  ==========  ====================================
``local``       0 / 0                        yes         best cell (``batched``, ``banded``)
``global``      ``-gap(j)`` / ``-gap(i)``    no          ``(m, n)`` (``nw``)
``semiglobal``  ``-gap(j)`` / 0              no          best of column ``n``, smallest ``i``
                                                         on ties (``semiglobal``)
``anchored``    ``-gap(j)`` / ``-gap(i)``    no          best visited cell (``xdrop``)
==============  ===========================  ==========  ====================================

``gap(k) = alpha + (k - 1) * beta``.  ``local`` optionally takes a
per-pair band (each diagonal is cut to the union of the group's band
windows) and a tie-break choosing anti-diagonal or row-major first
maxima; ``anchored`` optionally takes a per-pair X-drop threshold.
Each diagonal costs O(batch x live lanes), never O(batch x lanes).
The sweep rests on five invariants:

1. **Padded cells need no mask.**  A padded cell (``i > m`` or
   ``j > n`` for its pair) only feeds cells with a larger ``i`` or
   ``j``, i.e. other padded cells, so real cells never read it.  Its
   diagonal arm reads the ``PAD`` code, whose substitution score is
   :data:`~repro.align.scoring.NEG_INF`, and its E/F arms lose
   ``alpha`` or ``beta`` from a cell of an earlier diagonal, so its
   ``H`` is the local floor 0 or strictly below the best ``H`` of the
   diagonals before it: it can neither beat nor tie the best cell,
   and best-cell tracking may scan it.  Unfloored boundaries read
   their score from a fixed cell instead (``global``,
   ``semiglobal``), and X-drop counts only real cells as alive.
2. **No fill.**  Lanes a diagonal does not compute are never read
   stale.  Under ``local``, lane 0 and lane ``d - 1`` keep the
   boundary (``H = 0``, ``E = F = NEG_INF``) every buffer is created
   with, and the one lane a banded window can leave behind is reset
   to that boundary before it is read.  Under the unfloored
   boundaries, ``H`` of lane 0 (cell ``(0, d)``) and lane ``d`` (cell
   ``(d, 0)``) is written once per diagonal; no real cell reads
   ``E`` of row 0 or ``F`` of column 0, and the ``E`` of column 0 and
   ``F`` of row 0 stay ``NEG_INF`` as created.
3. **Narrow state.**  Under ``local``, ``H >= 0`` always and ``E``,
   ``F`` are at least ``-alpha`` after their first write.  Unfloored
   ``H`` falls to about twice the gap-charged boundary
   ``-(alpha + (M + N - 1) * beta)``, and a padded or X-dropped cell
   adds one ``NEG_INF`` on top of that.  int32 is exact whenever those
   magnitudes and ``match * min(M, N)`` stay well inside its range
   (:func:`_state_dtype`); otherwise the state is int64.
4. **Contiguous substitution gather.**  Queries are reversed once, so
   a diagonal's query codes are one contiguous slice and the
   substitution lookup is one ``np.take`` on the flattened matrix.
5. **In place.**  ``E`` updates on its own lanes, ``F`` and ``H``
   rotate through two and three preallocated buffers, and every
   temporary of the recurrence is a contiguous prefix of a
   preallocated scratch buffer (X-drop's two boolean masks are the
   only per-diagonal allocations).

X-drop keeps :func:`repro.align.xdrop.xdrop_extend`'s order exactly:
interior cells of diagonal ``d`` falling more than ``x`` below the
pair's best *before* ``d`` are dropped (``H = NEG_INF``), the best is
updated, and the boundary cells of ``d`` survive only within ``x`` of
the best *after* it.  A pair stops once no real cell of a diagonal
survives (a surviving padded cell does not count).  A stopped pair's
threshold is raised past every value, so the ``d - 2`` diagonal arm
cannot revive it; the group stops once every pair has.  A dropped cell's ``E`` and
``F`` are left as computed: they were below the threshold, which
never falls, and only lose ``beta`` per step, so they can neither
revive a cell nor set a surviving cell's ``H``.  The successors of
dropped cells come out near ``NEG_INF``, below any threshold a real
cell can be dropped against, which is why computing the whole
diagonal equals ``xdrop_extend``'s skipping of dead lanes.

The exact sweep keeps the first maximum in anti-diagonal order
(smallest diagonal, then smallest reference index), so scores *and*
end coordinates are bit-identical to
:func:`repro.align.antidiagonal.sw_align`; scores are bit-identical to
the row-scan oracle ``sw_align_slow`` and to the reference engine.

Very large or very ragged batches are split into length-coherent
sub-batches under a cell budget (``max_state_cells``) so short pairs
never pay for a long pair's padding and state arrays stay
cache-resident instead of thrashing; the split is deterministic
(stable extent sort) and invisible in the results.
"""

from __future__ import annotations

import math

import numpy as np

from ..align.matrix import AlignmentResult
from ..align.scoring import NEG_INF, PAD, ScoringScheme
from .base import ExecutionEngine, register_engine

__all__ = ["BatchedWavefrontEngine", "batched_sw_align"]

#: Every value the sweep forms must stay below this in magnitude for
#: the int32 state to be chosen (half the int32 range: headroom).
_INT32_SAFE = 2**30


def _state_dtype(scoring: ScoringScheme, m_max: int, n_max: int,
                 boundary: str = "local") -> type:
    """int32 when the sweep cannot leave ``+-2**30``, else int64.

    ``H`` peaks below the best substitution score times
    ``min(M, N) + 1``.  Under ``local`` it is never negative, and
    ``E``, ``F`` and the diagonal arm bottom out at the most negative
    matrix entry or ``-alpha``, minus one ``beta``.  Unfloored, ``H``
    (padded cells included) stays above twice the gap-charged boundary
    minus ``2 * alpha``; a padded or dropped cell's diagonal arm adds
    ``NEG_INF`` to that, and an E/F arm ``-alpha - beta``.
    """
    sub = scoring.matrix
    peak = max(int(sub.max()), 0) * (min(m_max, n_max) + 1)
    floor = min(int(sub.min()), -scoring.alpha) - scoring.beta
    if boundary != "local":
        low = -2 * (scoring.gap_cost(m_max + n_max) + scoring.alpha)
        floor = min(low, NEG_INF) + NEG_INF - scoring.alpha - scoring.beta
    return np.int32 if max(peak, -floor) < _INT32_SAFE else np.int64


def _empty_result(boundary: str, m: int, n: int,
                  scoring: ScoringScheme) -> AlignmentResult:
    """The result of a pair with an empty side: every cell is boundary."""
    if boundary == "global":
        return AlignmentResult(score=-scoring.gap_cost(m + n), ref_end=m, query_end=n)
    if boundary == "semiglobal":
        return AlignmentResult(score=-scoring.gap_cost(n), ref_end=0, query_end=n)
    return AlignmentResult(score=0, ref_end=0, query_end=0)


def _sweep_group(
    refs: list[np.ndarray],
    queries: list[np.ndarray],
    scoring: ScoringScheme,
    bands: list[int] | None = None,
    xs: list[float] | None = None,
    *,
    boundary: str = "local",
    row_major_ties: bool = False,
) -> list[AlignmentResult]:
    """Score one padded sub-batch with the anti-diagonal sweep.

    *boundary* is one of the module docstring's table.

    *bands* (one per pair, ``local`` only) restricts pair ``b`` to
    ``|i - j| <= bands[b]``: each diagonal is cut to the union of the
    group's band windows, and inside it a pair's out-of-band ``H`` is
    forced to 0.  That is score-preserving for the in-band cells: a
    cell's diagonal predecessor shares its ``|i - j|``, so only the
    E/F arms cross the band edge, and a forced cell feeds them ``0 -
    alpha`` (an out-of-band E/F reaching an in-band cell comes from a
    further-out forced ``H`` as well), which the local zero floor
    dominates and whose propagation the in-band ``H - alpha`` arm
    dominates.  In-band ``H`` values are thus bit-identical to
    :func:`~repro.align.banded.banded_sw_align`'s.  A lane the window
    leaves behind holds a stale value from an earlier diagonal in the
    rotating buffers, so it is reset to the boundary before it is read.

    *xs* (one per pair, ``anchored`` only) are X-drop thresholds,
    applied as the module docstring describes; ``inf`` never drops.

    With *row_major_ties* the best cell is the smallest ``(i, j)``
    row-major among maxima (the row scan's tie-break, as
    ``banded_sw_align`` keeps it): on an equal score, a candidate on a
    later diagonal wins only with a strictly smaller reference row.
    Otherwise the first maximum in anti-diagonal order wins
    (``sw_align``'s tie-break).
    """
    B = len(refs)
    M = max(r.size for r in refs)
    N = max(q.size for q in queries)
    dtype = _state_dtype(scoring, M, N, boundary)
    K = scoring.matrix.shape[1]
    sub = scoring.matrix.astype(dtype).ravel()
    alpha = scoring.alpha
    beta = scoring.beta
    m = np.array([r.size for r in refs])
    n = np.array([q.size for q in queries])

    # State is lane-major, so a diagonal's live lanes lo..hi are one
    # contiguous block of rows.  Cell (i, j) reads r[i - 1] (pre-scaled
    # to its matrix row) and q[j - 1] = q_rev[N - j]: on diagonal d the
    # lanes read the contiguous runs r_row[lo - 1 : hi] and
    # q_rev[N - d + lo : N - d + hi + 1].
    r_row = np.full((M, B), PAD, dtype=np.intp)
    q_rev = np.full((N, B), PAD, dtype=np.intp)
    for b, (r, q) in enumerate(zip(refs, queries)):
        r_row[: r.size, b] = r
        q_rev[N - q.size :, b] = q[::-1]
    r_row *= K

    if bands is None:
        b_max = b_min = M + N
        band_ok = None
    else:
        band = np.asarray(bands, dtype=np.int64)
        b_max = min(int(band.max()), M + N)
        b_min = int(band.min())
        # band_ok[t, b]: i - j = t - (M + N) lies in pair b's band.
        offset = np.abs(np.arange(2 * (M + N) + 1) - (M + N))
        band_ok = offset[:, None] <= band[None, :]

    # Lane 0 and the never-yet-written lanes hold the local boundary.
    H = [np.zeros((M + 1, B), dtype=dtype) for _ in range(3)]
    F = [np.full((M + 1, B), NEG_INF, dtype=dtype) for _ in range(2)]
    E = np.full((M + 1, B), NEG_INF, dtype=dtype)
    width = min(M, N, b_max + 1) + 1
    t_buf = np.empty(width * B, dtype=dtype)
    s_buf = np.empty(width * B, dtype=dtype)
    idx_buf = np.empty(width * B, dtype=np.intp)
    zeros = np.zeros(width * B, dtype=dtype)  # faster than a scalar 0

    cols = np.arange(B)
    best = np.zeros(B, dtype=dtype)
    best_i = np.zeros(B, dtype=np.int64)
    best_d = np.zeros(B, dtype=np.int64)
    local = boundary == "local"
    semi = boundary == "semiglobal"
    at_cell = boundary in ("local", "anchored")  # else: read column n
    if not local:
        # H of the gap-charged boundary cells (0, k) and (k, 0).
        gap = np.array([-scoring.gap_cost(k) for k in range(M + N + 1)], dtype=dtype)
        H[1][0], H[1][1] = gap[1], 0 if semi else gap[1]
    if not at_cell:
        # global takes its one column-n cell; semiglobal starts from the
        # whole query as one leading gap.
        best[:] = gap[n] if semi else np.iinfo(dtype).min
        best_d[:] = n
    if xs is not None:
        top = np.iinfo(dtype).max
        x = np.array([math.floor(min(v, top)) for v in xs], dtype=dtype)
        thr = best - x  # interior cells below this are dropped
        stopped = np.zeros(B, dtype=bool)
        # Real cells: lane i <= m, and k = N - j >= N - n on the
        # reversed-query axis, where a diagonal's lanes are contiguous.
        row_ok = np.arange(M + 1)[:, None] <= m
        col_ok = np.arange(N)[:, None] >= N - n
    prev_lo, prev_hi = 1, 0
    d_end = min(M + N, 2 * min(M, N) + b_max)
    for d in range(2, d_end + 1):
        H0, H1, H2 = H[(d - 2) % 3], H[(d - 1) % 3], H[d % 3]
        F1, F2 = F[(d - 1) % 2], F[d % 2]
        lo = max(1, d - N, (d - b_max + 1) // 2)
        hi = min(M, d - 1, (d + b_max) // 2)
        if lo > hi:
            prev_lo, prev_hi = lo, hi
            continue
        if lo > 1 and not prev_lo <= lo - 1 <= prev_hi:
            # Lane lo - 1 left the banded window on an earlier diagonal
            # and still holds that diagonal's value.
            H1[lo - 1] = 0
            F1[lo - 1] = NEG_INF
        prev_lo, prev_hi = lo, hi
        w = hi - lo + 1
        k0 = N - d + lo

        # H(i, j-1) - alpha and H(i-1, j) - alpha share one pass.
        t = t_buf[: (w + 1) * B].reshape(w + 1, B)
        np.subtract(H1[lo - 1 : hi + 1], alpha, out=t)
        e = E[lo : hi + 1]
        np.subtract(e, beta, out=e)
        np.maximum(e, t[1:], out=e)
        f = F2[lo : hi + 1]
        np.subtract(F1[lo - 1 : hi], beta, out=f)
        np.maximum(f, t[:w], out=f)
        idx = idx_buf[: w * B].reshape(w, B)
        np.add(r_row[lo - 1 : hi], q_rev[k0 : k0 + w], out=idx)
        s = s_buf[: w * B].reshape(w, B)
        np.take(sub, idx, out=s, mode="wrap")  # fastest mode; all in range
        np.add(s, H0[lo - 1 : hi], out=s)
        if local:
            np.maximum(s, zeros[: w * B].reshape(w, B), out=s)
        h = H2[lo : hi + 1]
        np.maximum(e, f, out=h)
        np.maximum(h, s, out=h)

        # Force H to 0 on out-of-band cells, unless every lane of the
        # diagonal lies in every pair's band.
        if max(d - 2 * lo, 2 * hi - d) > b_min:
            t0 = 2 * lo - d + M + N
            np.multiply(h, band_ok[t0 : t0 + 2 * w - 1 : 2], out=h)

        if xs is not None:
            dead = h < thr
            np.copyto(h, NEG_INF, where=dead)
            live = row_ok[lo : hi + 1] & col_ok[k0 : k0 + w] & ~dead
            alive = live.any(axis=0)  # a real cell survives

        if at_cell:
            pos = h.argmax(axis=0)
            dmax = h[pos, cols]
            take = dmax > best
            if row_major_ties:
                take |= (dmax == best) & (pos + lo < best_i)
            if take.any():
                np.copyto(best_i, pos + lo, where=take)
                np.copyto(best_d, d, where=take)
                np.maximum(best, dmax, out=best)
        else:
            rows = d - n  # the lane of each pair's cell (rows, n)
            sel = np.flatnonzero((rows >= 1) & (rows <= m) if semi else rows == m)
            sel = sel[h[rows[sel] - lo, sel] > best[sel]]  # smallest i on ties
            best[sel] = h[rows[sel] - lo, sel]
            best_i[sel] = rows[sel]
            best_d[sel] = d

        if local:
            continue
        edge = gap[d]
        if xs is not None:
            np.subtract(best, x, out=thr)
            np.copyto(thr, top, where=stopped)
            keep = thr <= edge  # boundary cells against the best after d
            alive |= keep & ((d <= n) | (d <= m))
            stopped |= ~alive
            if stopped.all():
                break
            np.copyto(thr, top, where=stopped)
            edge = np.where(keep, edge, NEG_INF)
        H2[0] = edge
        if d <= M:
            H2[d] = 0 if semi else edge

    return [
        AlignmentResult(
            score=int(best[b]), ref_end=int(best_i[b]),
            query_end=int(best_d[b] - best_i[b]),
        )
        for b in range(B)
    ]


def _align_batch(
    pairs,
    scoring: ScoringScheme,
    max_state_cells: int = 1 << 22,
    bands: list[int] | None = None,
    xs: list[float] | None = None,
    *,
    boundary: str = "local",
    row_major_ties: bool = False,
) -> list[AlignmentResult]:
    """Regroup *pairs* into length-coherent sub-batches and sweep them.

    Pairs with an empty side short-circuit to the *boundary*'s empty
    alignment (:func:`_empty_result`); *bands* and *xs*, when given,
    hold one entry per pair.  Results come back in submission order,
    but every pair in a group pays for the *widest* pair's lanes and
    the *longest* pair's diagonals, so mixing a 250 bp read into an
    8 kbp group would waste most of the sweep on padding.  Pairs are therefore sorted by
    matrix extent (stable, index tie-break) and a group is cut
    whenever the next pair would more than double the group's smallest
    extent or push the padded state (``rows x (max_ref_len + 1)``
    lanes) past *max_state_cells*.  The regrouping is deterministic
    and invisible in the results.
    """
    results: list[AlignmentResult | None] = [None] * len(pairs)
    items: list[tuple[int, np.ndarray, np.ndarray]] = []
    for i, (ref, query) in enumerate(pairs):
        r = np.asarray(ref, dtype=np.uint8)
        q = np.asarray(query, dtype=np.uint8)
        if r.size == 0 or q.size == 0:
            results[i] = _empty_result(boundary, r.size, q.size, scoring)
            continue
        items.append((i, r, q))
    items.sort(key=lambda t: (t[1].size + t[2].size, t[0]))

    groups: list[list[tuple[int, np.ndarray, np.ndarray]]] = []
    group_max_m = 0
    group_min_extent = 0
    for item in items:
        r, q = item[1], item[2]
        extent = r.size + q.size
        new_max = max(group_max_m, r.size)
        if not groups or (
            extent > 2 * group_min_extent
            or (len(groups[-1]) + 1) * (new_max + 1) > max_state_cells
        ):
            groups.append([])
            group_min_extent = extent
            new_max = r.size
        groups[-1].append(item)
        group_max_m = new_max

    for group in groups:
        swept = _sweep_group(
            [r for _, r, _ in group], [q for _, _, q in group], scoring,
            None if bands is None else [bands[i] for i, _, _ in group],
            None if xs is None else [xs[i] for i, _, _ in group],
            boundary=boundary, row_major_ties=row_major_ties,
        )
        for (i, _, _), res in zip(group, swept):
            results[i] = res
    return results  # type: ignore[return-value]


def batched_sw_align(
    pairs,
    scoring: ScoringScheme | None = None,
    *,
    max_state_cells: int = 1 << 22,
) -> list[AlignmentResult]:
    """Smith-Waterman results for a batch of ``(ref, query)`` code pairs.

    Results come back in submission order, bit-identical (endpoints
    included) to :func:`repro.align.antidiagonal.sw_align` per pair;
    see :func:`_align_batch` for the length-coherent regrouping.
    """
    return _align_batch(list(pairs), scoring or ScoringScheme(), max_state_cells)


@register_engine
class BatchedWavefrontEngine(ExecutionEngine):
    """Cross-query batched anti-diagonal scoring.  See module docstring."""

    name = "batched"

    def __init__(self, max_state_cells: int = 1 << 22):
        if max_state_cells < 1:
            raise ValueError("max_state_cells must be positive")
        self.max_state_cells = max_state_cells

    def score_batch(
        self, jobs, scoring: ScoringScheme, *, config=None
    ) -> list[AlignmentResult]:
        return batched_sw_align(
            [(j.ref, j.query) for j in jobs],
            scoring,
            max_state_cells=self.max_state_cells,
        )
