"""Scoring tiers and the degradation ladder.

Under sustained overload the service sheds *precision*, not requests:
a tenant's work moves from exact Smith-Waterman to the band-restricted
kernel and then to anchored x-drop extension before anything is
rejected.  The ladder is a table — ``LADDER[level][tenant_class]`` —
so each overload level is a total, inspectable assignment of tiers to
classes:

======  ========  ========  ===========
level   premium   standard  best_effort
======  ========  ========  ===========
0       exact     exact     exact
1       exact     exact     banded
2       exact     banded    xdrop
3       exact     xdrop     xdrop + admission shed
======  ========  ========  ===========

Only at the top level does the service start refusing best-effort
admissions (reason ``overload_shed``); every lower level keeps
admitting and serves explicitly-flagged approximate results instead.

The approximate tiers are not hard-coded imports: each tier resolves
to a registered execution engine by **capability query**
(:func:`repro.engine.find_engines`) — the banded tier wants a bounded
local engine parameterized by ``band``, the x-drop tier a bounded
anchored engine parameterized by ``x`` — and scores through
``score_batch`` like any other backend.  The engines themselves
(:mod:`repro.engine.variants`) are bit-identical to the historical
per-pair algorithms, so degraded results are byte-reproducible across
the refactor.  :func:`tier_params` reports the effective bound
parameters per job; results and cache keys carry them so two different
bounds can never be conflated.

Modeled time for a degraded batch is charged through the **same**
kernel/device path as exact batches: each degraded job is replaced by
a *proxy job* whose shorter sequence is sliced to the tier's band
width, and the proxy batch runs through ``run_isolated`` in model-only
mode.  That keeps exact-vs-degraded modeled durations directly
comparable (same packing, launch, and memory model) and deterministic
— the data-dependent ``cells_computed`` of x-drop never feeds the
clock.  Actual degraded *scores* (scored mode only) come from the
resolved engines on the full sequences, one :func:`score_degraded`
call per chunk.  The helpers take the configured engine rather than
the policy's knobs, so a service resolves each tier once
(:meth:`repro.qos.runtime.QoSState.engine`).
"""

from __future__ import annotations

from ..align.matrix import AlignmentResult
from ..align.scoring import ScoringScheme
from ..baselines.base import ExtensionJob
from ..engine import ExecutionEngine, find_engines, resolve_engine

__all__ = [
    "TIER_EXACT",
    "TIER_BANDED",
    "TIER_XDROP",
    "APPROX_TIERS",
    "LADDER",
    "SHED_LEVEL",
    "tier_for",
    "tier_engine_name",
    "tier_engine",
    "tier_params",
    "proxy_job",
    "score_degraded",
]

TIER_EXACT = "exact"
TIER_BANDED = "banded"
TIER_XDROP = "xdrop"

#: Tiers whose results are approximate (flagged on the handle).
APPROX_TIERS = (TIER_BANDED, TIER_XDROP)

#: ``LADDER[level][tenant_class]`` — tier assignment per overload level.
LADDER: tuple[dict[str, str], ...] = (
    {"premium": TIER_EXACT, "standard": TIER_EXACT, "best_effort": TIER_EXACT},
    {"premium": TIER_EXACT, "standard": TIER_EXACT, "best_effort": TIER_BANDED},
    {"premium": TIER_EXACT, "standard": TIER_BANDED, "best_effort": TIER_XDROP},
    {"premium": TIER_EXACT, "standard": TIER_XDROP, "best_effort": TIER_XDROP},
)

#: Levels at or above this shed best-effort admissions entirely.
SHED_LEVEL = len(LADDER) - 1

#: Capability query per approximate tier: what the ladder needs from
#: the engine registry, not which module implements it.
_TIER_QUERIES: dict[str, dict[str, object]] = {
    TIER_BANDED: dict(exactness="bounded", endpoints="local", requires=("band",)),
    TIER_XDROP: dict(exactness="bounded", endpoints="anchored", requires=("x",)),
}


def tier_for(level: int, tenant_class: str) -> str:
    """The scoring tier *tenant_class* receives at overload *level*."""
    return LADDER[min(max(level, 0), len(LADDER) - 1)][tenant_class]


def tier_engine_name(tier: str) -> str:
    """The registered engine name backing an approximate *tier*.

    Resolved by capability query, so a faster registered drop-in with
    the same descriptor is picked up without touching the ladder.
    """
    try:
        query = _TIER_QUERIES[tier]
    except KeyError:
        raise ValueError(f"not an approximate tier: {tier!r}") from None
    names = find_engines(**query)
    if not names:
        raise ValueError(f"no registered engine satisfies tier {tier!r}: {query}")
    return names[0]


def tier_engine(tier: str, *, error_rate: float, xdrop_x: int) -> ExecutionEngine:
    """A configured engine instance for an approximate *tier*."""
    name = tier_engine_name(tier)
    if tier == TIER_BANDED:
        return resolve_engine(name, error_rate=error_rate)
    return resolve_engine(name, x=xdrop_x)


def tier_params(job: ExtensionJob, tier: str, engine: ExecutionEngine) -> dict[str, int]:
    """The effective bound parameters for *job* at an approximate *tier*.

    *engine* is the tier's configured engine (:func:`tier_engine`).
    ``{"band": b}`` for the banded tier (sized per job from its error
    rate), ``{"x": x}`` for x-drop.  Degraded results carry this
    mapping in their metadata and the result cache keys on it — two
    different bounds are two different results.
    """
    if tier == TIER_BANDED:
        return {"band": engine.band_for_job(job)}
    if tier == TIER_XDROP:
        return {"x": engine.x}
    raise ValueError(f"not an approximate tier: {tier!r}")


def proxy_job(job: ExtensionJob, tier: str, band_engine: ExecutionEngine) -> ExtensionJob:
    """The timing proxy for running *job* at an approximate *tier*.

    The shorter sequence is sliced down to the tier's effective band
    width, so the proxy's ``cells`` reflect the reduced DP area the
    approximate kernel actually sweeps — banded covers ``2*band + 1``
    diagonals, x-drop's live window is typically about half that.
    Both tiers size the band with the banded tier's *band_engine*.
    The proxy runs through the normal kernel path in model-only mode;
    its duration is the degraded batch's modeled cost.
    """
    band = band_engine.band_for_job(job)
    width = 2 * band + 1 if tier == TIER_BANDED else band + 1
    short = min(job.ref_len, job.query_len)
    if width >= short:
        return job
    if job.ref_len <= job.query_len:
        return ExtensionJob(ref=job.ref[:width], query=job.query)
    return ExtensionJob(ref=job.ref, query=job.query[:width])


def score_degraded(
    jobs: list[ExtensionJob],
    engine: ExecutionEngine,
    scoring: ScoringScheme,
) -> list[AlignmentResult]:
    """Score *jobs* on an approximate tier's *engine* (full sequences).

    Banded keeps local-SW semantics inside the band; x-drop is
    anchored (seed-extension semantics) with its score floored at 0 so
    the result type stays comparable.  Either way the caller flags the
    handle's ``tier`` so consumers know the semantics.  One call scores
    a whole chunk in one ``score_batch``, bit-identical — endpoints
    included — to the historical per-pair algorithms.  It stays a named
    function so a trace can attribute degraded scoring to the QoS layer.
    """
    return engine.score_batch(jobs, scoring)
