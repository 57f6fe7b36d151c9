"""Benchmark-side tracing: wrappers around each layer's public calls.

Only the traced run (``--trace 1``) installs these wrappers; untraced
runs execute the program untouched.  Each timed wrapper records one
span (name, start, end, parent, run id) in memory; the recorder rolls
spans up online into calls, outermost-inclusive seconds and self
seconds (inclusive minus time in wrapped children).  Tiny hot calls
(``plan_job``, ``MemoryModel.access``, ``FMIndex.occ``) are counted
but not timed.

Several functions are imported by value, so they are wrapped where
their caller looks them up (``repro.core.kernel.plan_job``,
``repro.serve.service.run_isolated`` and ``cache_key``,
``repro.core.mapper.run_isolated`` and ``chain_seeds``, ...).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

#: Engines the workloads pin, with the capability descriptor each must
#: still carry: ``(exactness, gap_model, endpoints, bound_params)``.
PINNED_ENGINES = {
    "batched": ("exact", "affine", "local", ()),
    "banded": ("bounded", "affine", "local", ("band",)),
    "xdrop": ("bounded", "affine", "anchored", ("x",)),
}

#: ``(module, attribute path, span name, timed)`` for every wrapper
#: except the per-engine ``score_batch`` ones, which are found among the
#: exported engine classes at install time.
TARGETS = (
    ("repro.baselines.base", "ExtensionKernel.run", "core.kernel_run", True),
    ("repro.core.kernel", "plan_job", "core.plan_job", False),
    ("repro.gpusim.memory", "MemoryModel.access", "gpusim.mem_access", False),
    ("repro.serve.service", "AlignmentService.submit", "serve.submit", True),
    ("repro.serve.service", "AlignmentService.try_submit", "serve.submit", True),
    ("repro.serve.service", "AlignmentService.drain", "serve.drain", True),
    ("repro.serve.service", "AlignmentService.tune", "serve.tune", True),
    ("repro.serve.binning", "BinTuner.kernel_for", "serve.tune", True),
    ("repro.serve.service", "cache_key", "serve.cache_key", True),
    ("repro.serve.service", "run_isolated", "resilience.run_isolated", True),
    ("repro.core.mapper", "run_isolated", "resilience.run_isolated", True),
    ("repro.qos.runtime", "score_degraded", "qos.score_degraded", True),
    ("repro.qos.wfq", "WFQAdmissionQueue.pop", "qos.wfq_pop", True),
    ("repro.seeding.fm_index", "FMIndex.__init__", "seeding.index_build", True),
    ("repro.seeding.smem", "SmemSeeder.seed", "seeding.seed", True),
    ("repro.seeding.fm_index", "FMIndex.occ", "seeding.occ", False),
    ("repro.core.mapper", "chain_seeds", "seeding.chain", True),
    ("repro.pipeline.mapping", "MappingService.map_stream", "pipeline.map_stream", True),
    ("repro.pipeline.mapping", "compute_schedule", "pipeline.compute_schedule", True),
)


def check_pinned_engines() -> None:
    """Fail loudly when a pinned engine is gone or computes something else."""
    from repro.engine import engine_capabilities, engine_names

    names = engine_names()
    for name, expected in PINNED_ENGINES.items():
        if name not in names:
            raise SystemExit(f"pinned engine {name!r} is not registered ({names})")
        caps = engine_capabilities(name)
        got = (caps.exactness, caps.gap_model, caps.endpoints, tuple(caps.bound_params))
        if got != expected:
            raise SystemExit(
                f"pinned engine {name!r} has capabilities {got}, expected {expected}"
            )


class SpanRecorder:
    """In-memory spans plus their online rollup."""

    def __init__(self) -> None:
        self.run_id = ""
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        #: name -> [calls, outermost-inclusive s, self s]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.cells: dict[str, int] = defaultdict(int)
        #: Time covered by spans with no wrapped parent.
        self.root_s = 0.0

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self._open[name] += 1
        self._stack.append([self._next_id, name, perf_counter(), 0.0, parent])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, start, child_s, parent = self._stack.pop()
        dur = end - start
        st = self.stats[name]
        st[0] += 1
        st[2] += dur - child_s
        self._open[name] -= 1
        if not self._open[name]:
            st[1] += dur
        if self._stack:
            self._stack[-1][3] += dur
        else:
            self.root_s += dur
        self.spans.append((self.run_id, span_id, parent, name, start, end))

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def engine(self, fn):
        """Time ``score_batch`` under the calling engine's registry name."""
        cells = self.cells

        @functools.wraps(fn)
        def wrapper(engine, jobs, *args, **kwargs):
            name = f"engine.{engine.name}"
            cells[name] += sum(j.cells for j in jobs)
            self.enter(name)
            try:
                return fn(engine, jobs, *args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def calls(self, name: str) -> int:
        return self.counts[name] if name in self.counts else self.stats[name][0]

    def write(self, path) -> None:
        """Write the kept spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for run_id, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "run": run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        raise SystemExit(f"trace target {module_name}.{path} no longer exists")
    return owner, attr


@contextlib.contextmanager
def installed(recorder: SpanRecorder):
    """Install every wrapper for the duration of the block."""
    import repro.engine as engines

    patches = []
    for module_name, path, name, timed in TARGETS:
        owner, attr = _resolve(module_name, path)
        fn = vars(owner)[attr]
        wrap = recorder.timed if timed else recorder.counted
        patches.append((owner, attr, fn, wrap(name, fn)))
    for cls in vars(engines).values():
        if (isinstance(cls, type) and issubclass(cls, engines.ExecutionEngine)
                and "score_batch" in vars(cls) and cls.name in engines.engine_names()):
            fn = vars(cls)["score_batch"]
            patches.append((cls, "score_batch", fn, recorder.engine(fn)))
    for owner, attr, _, wrapper in patches:
        setattr(owner, attr, wrapper)
    try:
        yield recorder
    finally:
        for owner, attr, fn, _ in reversed(patches):
            setattr(owner, attr, fn)
