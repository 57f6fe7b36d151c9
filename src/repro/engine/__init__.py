"""Pluggable scoring execution engines.

See :mod:`repro.engine.base` for the contract and the capability
descriptors, :mod:`repro.engine.batched` for the cross-query batched
anti-diagonal sweep that motivates the package, and
:mod:`repro.engine.variants` for the bounded / alternative-endpoint
family (banded, x-drop, semiglobal, NW, pruned).  Engines change how
fast the host process computes scores; exact engines never change the
scores themselves nor a single modeled millisecond, and every engine
declares *what* it computes via :class:`EngineCapabilities`.
"""

from .base import (
    EngineCapabilities,
    ExecutionEngine,
    engine_capabilities,
    engine_names,
    find_engines,
    parse_engine_spec,
    register_engine,
    resolve_engine,
)
from .batched import BatchedWavefrontEngine, batched_sw_align
from .reference import ReferenceEngine
from .variants import (
    BandedEngine,
    NWEngine,
    PrunedEngine,
    SemiglobalEngine,
    XDropEngine,
    batched_banded_sw_align,
)

__all__ = [
    "EngineCapabilities",
    "ExecutionEngine",
    "ReferenceEngine",
    "BatchedWavefrontEngine",
    "BandedEngine",
    "XDropEngine",
    "SemiglobalEngine",
    "NWEngine",
    "PrunedEngine",
    "EngineBenchResult",
    "batched_sw_align",
    "batched_banded_sw_align",
    "engine_capabilities",
    "engine_names",
    "find_engines",
    "parse_engine_spec",
    "register_engine",
    "resolve_engine",
    "run_engine_bench",
]


def __getattr__(name):
    # The bench submodule imports the serve layer, which imports
    # repro.core.kernel, which imports this package — so the bench
    # exports resolve lazily to keep the package import acyclic.
    if name in ("EngineBenchResult", "run_engine_bench"):
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
