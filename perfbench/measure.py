"""One workload, one fresh process: warm up, measure, check, report.

Started by ``run.py`` with the thread-count variables pinned to 1.
The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ORACLE_DIR = HERE / ".oracle"
TRACE_DIR = HERE / "out"
#: Every pass is repeated at least this often, whatever ``--seconds`` says.
MIN_REPS = 3
#: Nominal duration of the reference work (about its undisturbed time on
#: the 2-vCPU Intel Xeon development host).  Host times are reported in
#: seconds scaled so that the reference work takes exactly this long.
REF_NOMINAL_S = 0.015
#: glibc's malloc moves its mmap threshold up as large blocks are freed,
#: so how much freed memory stays resident depends on the order of every
#: earlier allocation and free, which the seed changes.  The peak-RSS
#: probe pins the threshold: each block of 64 KiB or more is its own
#: mapping, returned when freed, so the peak follows live memory.
PROBE_ENV = {"MALLOC_MMAP_THRESHOLD_": "65536"}
PROBE_TIMEOUT_S = 60


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(1)


def _reference_work() -> int:
    """Fixed CPU work that shares no code with the program under test:
    dict and string churn like the program's Python layers, plus NumPy
    ops over a 1 MB array like its engines' batch sweeps (so memory
    bandwidth taken by other tenants slows it too)."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(10000):
        counts[i % 977] = counts.get(i % 977, 0) + i
        acc += len(str(i))
    arr = np.arange(256 * 1024, dtype=np.int32).reshape(256, 1024)
    for _ in range(6):
        arr = np.maximum(arr - 1, (arr * 3) % 1021)
    return acc + int(arr.sum())


def reference_samples(runs: int = 5) -> list[float]:
    """*runs* timings of the reference work, GC paused.

    The host this benchmark was built on is shared: other tenants slow
    every core by up to 2x for minutes at a time, which no statistic
    inside one run can remove.  Timing the reference work right before
    and after each pass measures that slowdown, and dividing it out
    keeps runs made minutes apart comparable.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(runs):
            t0 = perf_counter()
            _reference_work()
            samples.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return samples


class Rep:
    """One set-up plus one timed pass, with the host speed around it."""

    def __init__(self, setup_s: float, stamps: list[float], digest: str,
                 ref_s: float):
        self.ref_s = ref_s
        #: Host seconds to reference-scaled seconds.
        self.scale = REF_NOMINAL_S / ref_s
        self.setup_s = setup_s
        self.segments = [b - a for a, b in zip(stamps, stamps[1:])]
        self.digest = digest


def measure(workload, inputs, budget_s: float, recorder=None):
    """Repeat set-up + pass until *budget_s* is spent (and MIN_REPS done).

    Returns the reps and the first pass's observation; every later
    pass must reproduce its digest.  With a *recorder*, also returns
    the wall time of each pass not covered by a top-level span.
    """
    reps: list[Rep] = []
    first = None
    unattributed = []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start < budget_s:
        if recorder is not None:
            recorder.run_id = f"rep{len(reps)}"
            recorder.spans.clear()
        ref = reference_samples()
        setups = []
        for _ in range(workload.setup_repeats):
            t0 = perf_counter()
            state = workload.setup(inputs)
            setups.append(perf_counter() - t0)
        stamps = [perf_counter()]
        root_before = recorder.root_s if recorder is not None else 0.0
        outcome = workload.run(state, inputs, stamps)
        stamps.append(perf_counter())
        if recorder is not None:
            covered = recorder.root_s - root_before
            unattributed.append(stamps[-1] - stamps[0] - covered)
        ref_s = statistics.median(ref + reference_samples())
        obs = workload.observe(state, outcome, inputs)
        reps.append(Rep(statistics.median(setups), stamps, obs.digest(), ref_s))
        if first is None:
            first = obs
        del state, outcome, obs
    return reps, first, unattributed


def items_per_s(items: int, reps: list[Rep], scaled: bool = True) -> float:
    """Items over the pass time built from per-segment medians.

    Every pass does identical work segment by segment, so the median
    of each segment across passes drops interference that hit only
    some passes; their sum is the typical pass time.  *scaled* first
    converts each pass to reference-scaled seconds (see
    :func:`reference_samples`).
    """
    lengths = {len(r.segments) for r in reps}
    if len(lengths) != 1:
        _fail(f"passes disagree on segment count: {sorted(lengths)}")
    per_pass = [[t * (r.scale if scaled else 1.0) for t in r.segments] for r in reps]
    return items / sum(statistics.median(seg) for seg in zip(*per_pass))


def modeled_sets(workload, seed: int, inputs, obs) -> tuple[list, str | None]:
    """The timed pass's observation plus ``model_sets - 1`` model-only ones
    on ``model_inputs`` drawn from derived seeds.

    Set 0 is also re-run model-only: its modeled clock and latencies
    must equal the scored pass's, the contract that lets the other
    sets skip scoring.
    """
    sets = [obs]
    problem = None
    for i in range(workload.model_sets if workload.model_sets > 1 else 0):
        data = inputs if i == 0 else workload.model_inputs(seed * 1000 + i)
        state = workload.setup(data, model_only=True)
        twin = workload.observe(state, workload.run(state, data, []), data)
        if i:
            sets.append(twin)
        elif (twin.modeled_ms, twin.latencies_ms) != (obs.modeled_ms, obs.latencies_ms):
            problem = "model-only twin of the timed inputs disagrees on the modeled clock"
    return sets, problem


class PeakRSSProbe:
    """Peak RSS in MB of a fresh process (see :data:`PROBE_ENV`) that
    makes the inputs, warms up, sets up once and runs one pass.

    Started after the timed passes, so it overlaps only the untimed
    output checks; :meth:`close` kills it if it is still running.
    """

    def __init__(self, workload_name: str, seed: int):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
               "--seed", str(seed), "--seconds", "0", "--probe-rss"]
        self.proc = subprocess.Popen(cmd, env={**os.environ, **PROBE_ENV},
                                     stdout=subprocess.PIPE, text=True)

    def result(self) -> float:
        try:
            out, _ = self.proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _fail(f"peak-RSS probe exceeded {PROBE_TIMEOUT_S} s")
        lines = out.splitlines()
        if self.proc.returncode or not lines:
            _fail(f"peak-RSS probe exited with code {self.proc.returncode}")
        return float(lines[-1])

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def _peak_rss_mb() -> float:
    """This process's peak RSS.  ``VmHWM`` first: ``ru_maxrss`` carries
    the peak of the process that exec'd this one."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _probe_main(workload, inputs) -> int:
    warm = workload.warmup(inputs)
    workload.run(workload.setup(warm), warm, [])
    workload.run(workload.setup(inputs), inputs, [])
    print(_peak_rss_mb())
    return 0


# ----- output checks -----------------------------------------------------


def _oracle_path(workload, seed: int) -> Path:
    sizes = {k: v for k, v in vars(type(workload)).items()
             if isinstance(v, (int, float, str)) and not k.startswith("_")}
    sig = hashlib.sha1(json.dumps(sizes, sort_keys=True).encode()).hexdigest()[:12]
    return ORACLE_DIR / f"{workload.name}-{seed}-{sig}.json"


def check_outputs(workload, seed: int, obs, inputs) -> tuple[int, str | None]:
    """Compare outputs with the oracle; returns (wrong items, problem).

    Oracle values are cached per (workload, seed, sizes) in
    ``.oracle/`` together with the modeled-output digest, so a second
    run of the same seed also proves the modeled outputs unchanged.
    """
    from workloads import oracle_value

    path = _oracle_path(workload, seed)
    cache = json.loads(path.read_text()) if path.exists() else {"values": {}}
    values = cache["values"]
    problem = None
    digest = obs.digest()
    if cache.get("digest", digest) != digest:
        problem = (f"modeled outputs differ from an earlier run of seed {seed}: "
                   f"{cache['digest'][:16]} != {digest[:16]}")
    wrong = 0
    dirty = "digest" not in cache
    for kind, key, job, produced in obs.checks:
        if kind == "mappings":
            if kind not in values:
                values[kind] = _oracle_mappings(inputs)
                dirty = True
            expected = values[kind]
            wrong += sum(1 for a, b in zip(produced, expected) if a != b)
            wrong += abs(len(produced) - len(expected))
            continue
        slot = f"{kind}|{key}"
        if slot not in values:
            values[slot] = oracle_value(kind, job)
            dirty = True
        if values[slot] != produced:
            wrong += 1
    if dirty:
        cache["digest"] = cache.get("digest", digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        tmp.replace(path)
    return wrong, problem


def _oracle_mappings(inputs) -> list:
    from dataclasses import asdict

    from repro.core.mapper import ReadMapper
    from workloads import SCORING

    reference, reads = inputs
    report = ReadMapper(reference, scoring=SCORING).map_reads(reads)
    return [asdict(m) for m in report.mappings]


# ----- reporting -----------------------------------------------------------


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (f"env python={platform.python_version()} numpy={np.__version__} "
            f"nproc={os.cpu_count()} cpu=\"{cpu}\"")


def layer_metrics(names, recorder, n_reps: int, obs, extra: dict) -> dict:
    """Per-pass values of every per-layer metric *names* lists."""
    stats = recorder.stats
    out = {}
    for name in names:
        if name in extra:
            value = extra[name]
        elif name in obs.counters:
            value = obs.counters[name]
        elif name.endswith(".calls"):
            value = recorder.calls(name[: -len(".calls")]) / n_reps
        elif name.endswith(".self_s"):
            value = stats[name[: -len(".self_s")]][2] / n_reps
        elif name.endswith(".cells"):
            value = recorder.cells[name[: -len(".cells")]] / n_reps
        elif name.endswith(".mcells_per_s"):
            base = name[: -len(".mcells_per_s")]
            busy = stats[base][1]
            value = recorder.cells[base] / busy / 1e6 if busy else 0.0
        elif name.endswith(".s") or name.endswith("_s"):
            value = stats[name[:-2]][1] / n_reps
        else:
            _fail(f"no rule produces per-layer metric {name!r}")
        out[name] = value
    return out


def rollup_text(recorder, n_reps: int) -> str:
    """Self seconds per pass by layer (span-name prefix), largest first."""
    by_layer: dict[str, float] = {}
    for name, (_, _, self_s) in recorder.stats.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s / n_reps
    total = sum(by_layer.values()) or 1.0
    lines = ["layer self time per traced pass (set-up included):"]
    for layer, self_s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<12} {self_s:10.4f} s {self_s / total:7.1%}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-rss", action="store_true",
                        help="only set up and run one pass; print the peak RSS in MB")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    import spans as tracing
    from workloads import POLICY_REFUSALS, WORKLOADS, percentile, tail_percentile

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    tracing.check_pinned_engines()
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    if args.probe_rss:
        return _probe_main(workload, inputs)

    # Imports, engine registration and first calls happen here, untimed.
    warm = workload.warmup(inputs)
    workload.run(workload.setup(warm), warm, [])

    budget = args.seconds / 2 if args.trace else args.seconds
    reps, obs, _ = measure(workload, inputs, budget)
    untraced_ips = items_per_s(obs.items, reps)

    traced = None
    if args.trace:
        recorder = tracing.SpanRecorder()
        with tracing.installed(recorder):
            traced, _, unattributed = measure(workload, inputs, budget, recorder)
        recorder.write(TRACE_DIR / f"spans-{workload.name}-{args.seed}.jsonl")
        missing = [n for n in workload.expected_spans if recorder.calls(n) == 0]
        if missing:
            _fail(f"{workload.name}: wrappers recorded no calls for {missing}")

    probe = None if args.trace else PeakRSSProbe(workload.name, args.seed)
    try:
        problems = []
        wrong, digest_problem = check_outputs(workload, args.seed, obs, inputs)
        problems.append(digest_problem)
        if wrong:
            problems.append(f"{wrong} outputs differ from the oracle")
        digests = {r.digest for r in reps + (traced or [])}
        if len(digests) != 1:
            problems.append(f"passes of one run disagree on modeled outputs "
                            f"({len(digests)} digests)")
        unexpected = {r: n for r, n in obs.refused_by_reason.items() if r not in POLICY_REFUSALS}
        if unexpected:
            problems.append(f"refusals outside the admission policy: {unexpected}")
        sets, twin_problem = modeled_sets(workload, args.seed, inputs, obs)
        problems.append(twin_problem)
        peak_rss_mb = probe.result() if probe else None
    finally:
        if probe:
            probe.close()
    problems = [p for p in problems if p]

    # Admission refusals are the service working as designed: they lower
    # served_fraction but are not failed operations.
    attempted = obs.items
    failed = obs.failed + wrong
    failed_fraction = (failed + obs.refused) / attempted
    tail_p = tail_percentile(len(obs.latencies_ms))
    values = {
        "setup_s": statistics.median(r.setup_s * r.scale for r in reps),
        "items_per_s": untraced_ips,
        "served_fraction": 1.0 - failed_fraction,
        "modeled_items_per_ms": sum(o.items for o in sets) / sum(o.modeled_ms for o in sets),
        "modeled.latency_p50_ms": statistics.mean(
            percentile(o.latencies_ms, 50) for o in sets),
        "modeled.latency_tail_ms": statistics.mean(
            percentile(o.latencies_ms, tail_p) for o in sets),
        "qos.premium_slo_attainment": (sum(o.premium_attained for o in sets)
                                       / sum(o.premium_attempted for o in sets)),
        "bench.failed_fraction": failed_fraction,
        "bench.items_per_s_host": items_per_s(obs.items, reps, scaled=False),
        "bench.reference_s": statistics.median(r.ref_s for r in reps),
        "bench.tail_percentile": tail_p,
    }

    print(environment())
    print(f"workload={workload.name} seed={args.seed} items={attempted} "
          f"passes={len(reps)}{f'+{len(traced)} traced' if traced else ''} "
          f"refused={obs.refused} {obs.refused_by_reason} failed={obs.failed} "
          f"wrong={wrong} failed_fraction={failed_fraction:.6f} "
          f"tail=p{tail_p:g} digest={obs.digest()[:16]}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.trace:
        traced_ips = items_per_s(obs.items, traced)
        values.update({
            "bench.unattributed_s": statistics.median(unattributed),
            "bench.trace_overhead": traced_ips / untraced_ips,
            "bench.items_per_s_traced": traced_ips,
            "bench.items_per_s_untraced": untraced_ips,
        })
        specs = bench["per_layer"]
        values = layer_metrics([m["name"] for m in specs], recorder, len(traced), obs, values)
        print(rollup_text(recorder, len(traced)))
    else:
        specs = bench["end_to_end"]
        values["peak_rss_mb"] = peak_rss_mb
        print(f"  not gated: premium_slo_attainment "
              f"{values['qos.premium_slo_attainment']:.6g} ratio, modeled_latency_p50_ms "
              f"{values['modeled.latency_p50_ms']:.6g} model_ms, modeled_latency_tail_ms "
              f"(p{tail_p:g}) {values['modeled.latency_tail_ms']:.6g} model_ms")
    for spec in specs:
        print(f"  {spec['name']:<36} {values[spec['name']]:>16.6g} {spec['unit']}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
