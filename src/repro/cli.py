"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main entry points without writing Python:

``align``
    Score (and optionally trace back) one pair of sequences.
``experiment``
    Run a registered paper experiment (table1, fig6_gtx1650, ...).
``sweep``
    Quick kernel-vs-length comparison on one device.
``devices``
    List the modeled GPU profiles.
``tune``
    Subwarp auto-tuning for a FASTA/FASTQ workload sample.
``map``
    Map reads (FASTA/FASTQ) against a reference FASTA, TSV output.
``map-serve``
    Map reads through the streaming seed-filter-extend pipeline
    (mapping-as-a-service): SAM on stdout, pipeline stage metrics on
    stderr, optional byte-stable metrics JSON and merged stage trace.
``serve-bench``
    Benchmark the alignment service layer against naive streaming
    (``--trace FILE`` also exports a Chrome trace of the service run;
    ``--trace-spec FILE`` instead replays a generated traffic trace
    through a QoS-enabled service and reports per-tenant-class SLO
    outcomes).
``traffic-gen``
    Generate a replayable multi-tenant traffic trace (JSON
    ``TraceSpec``, byte-identical across reruns) from a named
    scenario preset: steady / bursty / diurnal / flash_crowd.
``trace``
    Trace a seeded service workload: per-stage rollup table on stdout,
    Chrome trace-event JSON (chrome://tracing / Perfetto) to a file.
``cluster-bench``
    Compare cluster routing policies x work stealing on a skewed
    stream (``--out`` writes the byte-stable JSON artifact the CI
    smoke job compares across reruns).  ``--self-heal`` runs the
    fault-storm scenario with the closed-loop control plane attached
    instead (see ``repro.control``); exit 1 flags a failed healing
    acceptance gate.  ``--trace-spec FILE`` drives a QoS-enabled
    cluster with a generated traffic trace's tenants instead.
``heal-report``
    Run the self-healing storm benchmark and print the full audit
    trail — every detect / propose / shadow-verify / apply decision
    (``--audit-out`` writes the byte-deterministic audit JSON).
``report``
    Regenerate the full paper-vs-measured comparison document.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .align import ScoringScheme, align_with_traceback, sw_align
from .baselines import all_baselines, make_jobs
from .bench.experiments import EXPERIMENTS, run_experiment
from .core import SUBWARP_SIZES, SalobaConfig, SalobaKernel
from .engine import resolve_engine
from .gpusim import known_devices
from .resilience import AlignmentError, FaultPlan
from .seqs import read_fasta, read_fastq

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SALoBa reproduction: GPU seed extension on a modeled device",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_align = sub.add_parser("align", help="align two sequences")
    p_align.add_argument("query")
    p_align.add_argument("reference")
    p_align.add_argument("--traceback", action="store_true", help="print the CIGAR/alignment")
    p_align.add_argument("--match", type=int, default=1)
    p_align.add_argument("--mismatch", type=int, default=-4)
    p_align.add_argument("--alpha", type=int, default=6, help="new-gap penalty")
    p_align.add_argument("--beta", type=int, default=1, help="gap-extension penalty")

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--pairs", type=int, default=None,
                       help="batch size override (fig6/fig7)")

    p_sweep = sub.add_parser("sweep", help="kernel comparison at one length")
    p_sweep.add_argument("--device", default="GTX1650", choices=sorted(known_devices()))
    p_sweep.add_argument("--length", type=int, default=512)
    p_sweep.add_argument("--pairs", type=int, default=5000)
    p_sweep.add_argument("--subwarp", type=int, default=8, choices=SUBWARP_SIZES)
    p_sweep.add_argument("--fault-rate", type=float, default=0.0,
                         help="inject transient device faults at this rate")
    p_sweep.add_argument("--fault-seed", type=int, default=0,
                         help="seed for the injected fault plan")

    sub.add_parser("devices", help="list modeled GPU profiles")

    p_tune = sub.add_parser("tune", help="subwarp auto-tuning for a read file")
    p_tune.add_argument("reads", help="FASTA or FASTQ file of queries")
    p_tune.add_argument("--device", default="GTX1650", choices=sorted(known_devices()))

    p_map = sub.add_parser("map", help="map reads against a reference")
    p_map.add_argument("reference", help="reference FASTA (first record used)")
    p_map.add_argument("reads", help="FASTA or FASTQ reads")
    p_map.add_argument("--device", default="GTX1650", choices=sorted(known_devices()))
    p_map.add_argument("--min-seed-len", type=int, default=19)
    p_map.add_argument("--sam", action="store_true", help="emit SAM instead of TSV")
    bad = p_map.add_mutually_exclusive_group()
    bad.add_argument("--strict", action="store_true",
                     help="abort on malformed input records (default)")
    bad.add_argument("--skip-bad-reads", action="store_true",
                     help="drop malformed input records and keep mapping")

    p_ms = sub.add_parser(
        "map-serve",
        help="map reads through the streaming seed-filter-extend pipeline",
    )
    p_ms.add_argument("reference", help="reference FASTA (first record used)")
    p_ms.add_argument("reads", help="FASTA or FASTQ reads")
    p_ms.add_argument("--reads2", default=None, metavar="FILE",
                      help="second-mate reads (paired-end mode)")
    p_ms.add_argument("--device", default="GTX1650", choices=sorted(known_devices()))
    p_ms.add_argument("--min-seed-len", type=int, default=19)
    p_ms.add_argument("--batch-reads", type=int, default=16,
                      help="surviving reads per extension micro-batch")
    p_ms.add_argument("--min-chain-score", type=int, default=0,
                      help="filter stage: drop reads whose best chain "
                           "covers fewer matching bases (0 = pass-through)")
    p_ms.add_argument("--prescreen-margin", type=int, default=0,
                      help="borderline band above the threshold routed "
                           "through the host X-drop pre-screen")
    p_ms.add_argument("--prescreen-min-total", type=int, default=0,
                      help="projected total a borderline read must reach")
    p_ms.add_argument("--out", default=None, metavar="FILE",
                      help="write SAM here instead of stdout")
    p_ms.add_argument("--metrics-out", default=None, metavar="FILE",
                      help="write the pipeline metrics JSON here "
                           "(byte-stable across reruns)")
    p_ms.add_argument("--trace", default=None, metavar="FILE",
                      help="export the merged per-stage Chrome trace here")

    p_srv = sub.add_parser(
        "serve-bench",
        help="benchmark AlignmentService vs naive BatchRunner streaming",
    )
    p_srv.add_argument("--requests", type=int, default=2000,
                       help="total stream length (duplicates included)")
    p_srv.add_argument("--dup-rate", type=float, default=0.25,
                       help="fraction of the stream re-submitting earlier jobs")
    p_srv.add_argument("--long-read-fraction", type=float, default=0.12,
                       help="dataset-B-shaped share of the unique jobs")
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument("--device", default="GTX1650", choices=sorted(known_devices()))
    p_srv.add_argument("--engine", default="reference",
                       help="scoring backend for the service run (any "
                            "registered name, optionally with bound params "
                            "like 'banded:band=16'; see repro.engine)")
    p_srv.add_argument("--out", default=None, help="write the JSON result here")
    p_srv.add_argument("--trace", default=None, metavar="FILE",
                       help="also export a Chrome trace of the service run")
    p_srv.add_argument("--trace-spec", default=None, metavar="FILE",
                       help="replay this traffic-gen TraceSpec JSON through a "
                            "QoS-enabled service instead of the synthetic "
                            "stream (per-tenant-class SLO report; --out "
                            "writes a byte-stable JSON summary)")

    p_tg = sub.add_parser(
        "traffic-gen",
        help="generate a replayable multi-tenant traffic trace (JSON)",
    )
    p_tg.add_argument("scenario",
                      choices=("steady", "bursty", "diurnal", "flash_crowd"),
                      help="scenario preset (see repro.traffic.scenarios)")
    p_tg.add_argument("--rate", type=float, default=50.0,
                      help="aggregate arrival rate in requests per modeled ms")
    p_tg.add_argument("--requests", type=int, default=400,
                      help="number of arrival events in the trace")
    p_tg.add_argument("--seed", type=int, default=0)
    p_tg.add_argument("--slo-horizon-ms", type=float, default=None,
                      help="anchor SLO targets to this horizon instead of the "
                           "trace's own (load sweeps pass the load-1.0 horizon)")
    p_tg.add_argument("--out", default=None, metavar="FILE",
                      help="write the TraceSpec JSON here (default stdout)")

    p_tr = sub.add_parser(
        "trace",
        help="trace a seeded service workload (rollup + Chrome trace JSON)",
    )
    p_tr.add_argument("--requests", type=int, default=1000,
                      help="total stream length (duplicates included)")
    p_tr.add_argument("--dup-rate", type=float, default=0.25,
                      help="fraction of the stream re-submitting earlier jobs")
    p_tr.add_argument("--long-read-fraction", type=float, default=0.12,
                      help="dataset-B-shaped share of the unique jobs")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--device", default="GTX1650", choices=sorted(known_devices()))
    p_tr.add_argument("--fault-rate", type=float, default=0.0,
                      help="inject transient device faults at this rate")
    p_tr.add_argument("--out", default=None, metavar="FILE",
                      help="write the Chrome trace-event JSON here")

    p_cl = sub.add_parser(
        "cluster-bench",
        help="compare cluster routing policies x work stealing",
    )
    p_cl.add_argument("--requests", type=int, default=1500,
                      help="total stream length (duplicates included)")
    p_cl.add_argument("--workers", type=int, default=4,
                      help="cluster size (identical devices)")
    p_cl.add_argument("--policy", default=None, metavar="NAME",
                      help="benchmark only this routing policy "
                           "(default: all registered policies)")
    p_cl.add_argument("--dup-rate", type=float, default=0.25,
                      help="fraction of the stream re-submitting earlier jobs")
    p_cl.add_argument("--long-read-fraction", type=float, default=0.25,
                      help="dataset-B-shaped share of the unique jobs "
                           "(the skew that unbalances hash placement)")
    p_cl.add_argument("--seed", type=int, default=0)
    p_cl.add_argument("--device", default="GTX1650", choices=sorted(known_devices()))
    p_cl.add_argument("--engine", default="reference",
                      help="scoring backend on every worker (any registered "
                           "name, optionally with bound params like "
                           "'banded:band=16'; see repro.engine)")
    p_cl.add_argument("--scored-pairs", type=int, default=24,
                      help="scored fidelity-check workload size (0 skips it)")
    p_cl.add_argument("--out", default=None, metavar="FILE",
                      help="write the JSON result here (byte-stable across reruns)")
    p_cl.add_argument("--self-heal", action="store_true",
                      help="run the fault-storm scenario with the self-healing "
                           "control plane instead of the policy sweep")
    p_cl.add_argument("--audit-out", default=None, metavar="FILE",
                      help="with --self-heal: write the byte-deterministic "
                           "audit-trail JSON here")
    p_cl.add_argument("--trace-spec", default=None, metavar="FILE",
                      help="drive a QoS-enabled cluster with this traffic-gen "
                           "TraceSpec's tenants (arrival times are ignored: "
                           "the cluster loop is work-conserving; --out writes "
                           "a byte-stable JSON summary)")

    p_heal = sub.add_parser(
        "heal-report",
        help="self-healing storm benchmark with the full audit trail",
    )
    p_heal.add_argument("--requests", type=int, default=240,
                        help="total stream length (duplicates included)")
    p_heal.add_argument("--workers", type=int, default=4,
                        help="fleet size (the storm kills one worker and "
                             "degrades another; at least 3)")
    p_heal.add_argument("--dup-rate", type=float, default=0.3,
                        help="fraction of the stream re-submitting earlier jobs")
    p_heal.add_argument("--long-read-fraction", type=float, default=0.1,
                        help="dataset-B-shaped share of the unique jobs")
    p_heal.add_argument("--seed", type=int, default=7)
    p_heal.add_argument("--degrade-factor", type=float, default=6.0,
                        help="clock dilation of the degraded replica")
    p_heal.add_argument("--deadline-factor", type=float, default=2.0,
                        help="per-request deadline as a multiple of the "
                             "healthy makespan")
    p_heal.add_argument("--quick", action="store_true",
                        help="skip the in-process determinism re-run")
    p_heal.add_argument("--out", default=None, metavar="FILE",
                        help="write the full JSON result here")
    p_heal.add_argument("--audit-out", default=None, metavar="FILE",
                        help="write the byte-deterministic audit-trail JSON here")

    p_rep = sub.add_parser("report", help="regenerate the comparison report")
    p_rep.add_argument("--quick", action="store_true", help="smaller batches")
    p_rep.add_argument("--out", default=None, help="write markdown here")
    return parser


def _engine_arg(spec: str) -> str:
    """Validate an ``--engine`` value against the registry.

    The spec must resolve — including any ``:key=value`` bound
    parameters — or the command fails with the taxonomy exit code 2
    (an :class:`AlignmentError`), never a traceback.
    Validation happens here instead of an argparse ``choices`` list so
    parameterized specs like ``banded:band=16`` stay expressible.
    """
    try:
        resolve_engine(spec)
    except (TypeError, ValueError) as exc:
        raise AlignmentError(f"--engine: {exc}") from None
    return spec


def _cmd_align(args) -> int:
    scoring = ScoringScheme(
        match=args.match, mismatch=args.mismatch, alpha=args.alpha, beta=args.beta
    )
    if args.traceback:
        tb = align_with_traceback(args.reference, args.query, scoring)
        print(f"score={tb.score} cigar={tb.cigar} "
              f"ref[{tb.ref_start}:{tb.ref_end}] query[{tb.query_start}:{tb.query_end}]")
        print(tb.pretty(args.reference, args.query))
    else:
        res = sw_align(args.reference, args.query, scoring)
        print(f"score={res.score} ref_end={res.ref_end} query_end={res.query_end}")
    return 0


def _cmd_experiment(args) -> int:
    kwargs = {}
    if args.pairs and args.name.startswith(("fig6", "fig7")):
        kwargs["n_pairs"] = args.pairs
    res = run_experiment(args.name, **kwargs)
    print(res.text)
    return 0


def _cmd_sweep(args) -> int:
    device = known_devices()[args.device]
    if args.fault_rate:
        device = device.with_faults(
            FaultPlan(seed=args.fault_seed, transient_rate=args.fault_rate)
        )
    rng = np.random.default_rng(0)
    jobs = make_jobs(
        [
            (rng.integers(0, 4, args.length).astype(np.uint8),
             rng.integers(0, 4, int(args.length * 1.1)).astype(np.uint8))
            for _ in range(args.pairs)
        ]
    )
    kernels = all_baselines() + [SalobaKernel(config=SalobaConfig(subwarp_size=args.subwarp))]
    print(f"{args.pairs} pairs x {args.length} bp on {device.name}:")
    for k in kernels:
        res = k.run(jobs, device)
        if res.ok:
            line = f"{res.total_ms:9.3f} ms"
            if res.n_faulted:
                line += f"  ({res.n_faulted} faulted)"
        else:
            line = f"skip ({res.skipped})"
        print(f"  {k.name:>14}: {line}")
    return 0


def _cmd_devices(_args) -> int:
    for dev in known_devices().values():
        print(
            f"{dev.name:>10} ({dev.architecture}): {dev.sm_count} SMs @ {dev.clock_ghz} GHz, "
            f"{dev.peak_tflops:.2f} TFLOPs, {dev.mem_bandwidth_gbps} GB/s, "
            f"{dev.access_granularity} B granularity, {dev.device_mem_gb:.0f} GB"
        )
    return 0


def _cmd_tune(args) -> int:
    from .core import SalobaAligner

    if args.reads.endswith((".fq", ".fastq")):
        reads = [rec.codes for rec in read_fastq(args.reads)]
    else:
        reads = list(read_fasta(args.reads).values())
    if not reads:
        print("no reads found", file=sys.stderr)
        return 1
    # Self-extension workload: each read vs itself with 10% margin of
    # random context — a stand-in when no reference is given.
    rng = np.random.default_rng(1)
    pairs = []
    for codes in reads:
        margin = rng.integers(0, 4, max(len(codes) // 10, 1)).astype(np.uint8)
        pairs.append((codes, np.concatenate([codes, margin])))
    aligner = SalobaAligner(device=known_devices()[args.device])
    best = aligner.tune_subwarp(pairs)
    report = aligner.model_batch(pairs)
    print(f"reads: {len(reads)}  device: {args.device}")
    print(f"best subwarp size: {best}")
    print(f"modeled batch time: {report.timing.total_ms:.3f} ms")
    return 0


def _read_queries(path: str, on_error: str = "raise"):
    if path.endswith((".fq", ".fastq")):
        return [(rec.name, rec.codes) for rec in read_fastq(path, on_error=on_error)]
    return list(read_fasta(path, on_error=on_error).items())


def _cmd_map(args) -> int:
    from .core import ReadMapper

    on_error = "skip" if args.skip_bad_reads else "raise"
    reference = next(iter(read_fasta(args.reference).values()), None)
    if reference is None:
        print("empty reference", file=sys.stderr)
        return 1
    queries = _read_queries(args.reads, on_error)
    if not queries:
        print("no reads found", file=sys.stderr)
        return 1
    mapper = ReadMapper(
        reference,
        device=known_devices()[args.device],
        min_seed_len=args.min_seed_len,
    )
    report = mapper.map_reads([codes for _, codes in queries])
    if args.sam:
        from .core import sam_record_for, write_sam

        recs = [
            sam_record_for(name, codes, m, reference)
            for (name, codes), m in zip(queries, report.mappings)
        ]
        print(write_sam(recs, ref_len=reference.size), end="")
        print(
            f"# mapped {report.mapped_fraction:.1%}; modeled GPU time "
            f"{report.extension_ms:.3f} ms",
            file=sys.stderr,
        )
        return 0
    print("read\tmapped\tpos\tstrand\tscore")
    for (name, _), m in zip(queries, report.mappings):
        strand = "-" if m.reverse else "+"
        print(f"{name}\t{int(m.mapped)}\t{m.ref_start}\t{strand}\t{m.total_score}")
    print(
        f"# mapped {report.mapped_fraction:.1%} of {len(queries)} reads; "
        f"{report.n_jobs} extension jobs; modeled GPU time {report.extension_ms:.3f} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_map_serve(args) -> int:
    import json

    from .obs import merged_chrome_trace_json
    from .pipeline import FilterPolicy, MappingService

    reference = next(iter(read_fasta(args.reference).values()), None)
    if reference is None:
        print("empty reference", file=sys.stderr)
        return 1
    queries = _read_queries(args.reads)
    if not queries:
        print("no reads found", file=sys.stderr)
        return 1
    svc = MappingService(
        reference,
        device=known_devices()[args.device],
        min_seed_len=args.min_seed_len,
        batch_reads=args.batch_reads,
        policy=FilterPolicy(
            min_chain_score=args.min_chain_score,
            prescreen_margin=args.prescreen_margin,
            prescreen_min_total=args.prescreen_min_total,
        ),
    )
    if args.reads2:
        queries2 = _read_queries(args.reads2)
        if len(queries2) != len(queries):
            print("error: mate files differ in read count", file=sys.stderr)
            return 2
        report = svc.map_pairs_stream(
            (c1, c2) for (_, c1), (_, c2) in zip(queries, queries2)
        )
        sam = report.to_sam(reference, names=[name for name, _ in queries])
        n_out = 2 * len(report.pairs)
    else:
        report = svc.map_stream(codes for _, codes in queries)
        sam = report.to_sam(reference, names=[name for name, _ in queries])
        n_out = len(report.mappings)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(sam)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(sam, end="")
    m = report.metrics
    print(
        f"# pipeline: {m.reads_in} reads in, {n_out} records out, "
        f"filtration {m.filtration_rate:.1%}, "
        f"{m.n_batches} extension batches / {m.n_jobs} jobs",
        file=sys.stderr,
    )
    print(
        f"# makespan {m.makespan_ms:.3f} ms overlapped "
        f"vs {m.sequential_ms:.3f} ms staged-sequential "
        f"({m.overlap_speedup:.2f}x); occupancy seed {m.seed.occupancy:.1%} "
        f"filter {m.filter.occupancy:.1%} extend {m.extend.occupancy:.1%}",
        file=sys.stderr,
    )
    if args.metrics_out:
        with open(args.metrics_out, "w") as fh:
            fh.write(json.dumps(m.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.metrics_out}", file=sys.stderr)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(merged_chrome_trace_json(
                report.tracers, process_name="repro map-serve"))
        print(f"wrote {args.trace} (load in chrome://tracing or "
              "ui.perfetto.dev)", file=sys.stderr)
    return 0


def _load_trace_spec(path: str):
    from .traffic import TraceSpec

    with open(path) as fh:
        return TraceSpec.from_json(fh.read())


def _class_table(classes: dict) -> str:
    """Render tenant_class_stats as the shared per-class table."""
    lines = [f"{'class':>12} {'events':>6} {'done':>5} {'rej':>4} {'fail':>4} "
             f"{'degr':>5} {'p50':>8} {'p99':>8} {'SLO':>6}"]
    for cls, st in classes.items():
        lat = st["latency_ms"]
        lines.append(
            f"{cls:>12} {st['events']:>6} {st['completed']:>5} "
            f"{st['rejected']:>4} {st['failed']:>4} "
            f"{sum(st['degraded'].values()):>5} "
            f"{lat['p50']:>8.3f} {lat['p99']:>8.3f} {st['slo_attainment']:>6.2f}"
        )
    return "\n".join(lines)


def _cmd_traffic_gen(args) -> int:
    from .traffic import scenario

    spec = scenario(
        args.scenario,
        rate_per_ms=args.rate,
        n_requests=args.requests,
        seed=args.seed,
        slo_horizon_ms=args.slo_horizon_ms,
    )
    text = spec.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        per_tenant = {t.name: sum(1 for e in spec.events if e.tenant == t.name)
                      for t in spec.tenants}
        print(f"wrote {args.out}: {spec.n_requests} events over "
              f"{spec.horizon_ms:.3f} modeled ms, seed {spec.seed}")
        for name, count in sorted(per_tenant.items()):
            t = spec.tenant(name)
            print(f"  {name}: {count} events ({t.tenant_class}, weight "
                  f"{t.weight:g}, slo {t.slo_ms:.3f} ms)")
    else:
        print(text)
    return 0


def _cmd_serve_trace_spec(args) -> int:
    """serve-bench --trace-spec: replay a traffic trace with QoS on."""
    import json

    from .qos.bench import tenant_class_stats
    from .serve import AlignmentService
    from .traffic import replay

    spec = _load_trace_spec(args.trace_spec)
    service = AlignmentService(
        device=known_devices()[args.device],
        compute_scores=False,
        qos=spec.qos_policy(),
        max_queue_depth=max(32, spec.n_requests // 2),
        coalesce_window=24,
    )
    result = replay(service, spec)
    classes = tenant_class_stats(spec, result.handles)
    qm = service.qos_metrics()
    print(f"replayed {spec.name!r}: {spec.n_requests} events, "
          f"{result.accepted} accepted / {result.rejected} rejected, "
          f"makespan {result.makespan_ms:.3f} ms")
    print(f"ladder: final level {qm.level}, {qm.level_shifts} shift(s), "
          f"peak pressure {qm.peak_pressure:.2f}, "
          f"degraded {dict(qm.degraded)}, shed {qm.shed}")
    print()
    print(_class_table(classes))
    if args.out:
        payload = {
            "spec": spec.name,
            "seed": spec.seed,
            "events": spec.n_requests,
            "accepted": result.accepted,
            "rejected": result.rejected,
            "makespan_ms": result.makespan_ms,
            "classes": classes,
            "qos": qm.to_dict(),
        }
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _cmd_serve_bench(args) -> int:
    from .obs import Tracer, chrome_trace_json
    from .serve.bench import run_serve_bench

    if args.trace_spec:
        if args.trace:
            print("error: --trace-spec and --trace are mutually exclusive",
                  file=sys.stderr)
            return 2
        return _cmd_serve_trace_spec(args)
    tracer = Tracer() if args.trace else None
    res = run_serve_bench(
        args.requests,
        b_fraction=args.long_read_fraction,
        duplicate_fraction=args.dup_rate,
        seed=args.seed,
        device=known_devices()[args.device],
        tracer=tracer,
        engine=_engine_arg(args.engine),
    )
    print(res.text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(res.to_json() + "\n")
        print(f"wrote {args.out}")
    if tracer is not None:
        with open(args.trace, "w") as fh:
            fh.write(chrome_trace_json(tracer, process_name="repro serve-bench"))
        print(f"wrote {args.trace} (load in chrome://tracing or ui.perfetto.dev)")
    if not res.scored_identical:
        print("error: service results diverged from the engine contract",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args) -> int:
    from .obs import Tracer, chrome_trace_json, rollup
    from .serve import AlignmentService
    from .serve.bench import mixed_stream

    stream = mixed_stream(
        args.requests,
        b_fraction=args.long_read_fraction,
        duplicate_fraction=args.dup_rate,
        seed=args.seed,
    )
    fault_plan = None
    if args.fault_rate:
        fault_plan = FaultPlan(seed=args.seed, transient_rate=args.fault_rate)
    tracer = Tracer()
    service = AlignmentService(
        device=known_devices()[args.device],
        compute_scores=False,
        fault_plan=fault_plan,
        max_queue_depth=max(len(stream), 1),
        tracer=tracer,
    )
    service.submit_jobs(stream)
    service.flush()
    table = rollup(tracer)
    print(f"{len(stream)} requests on {args.device}, seed {args.seed}"
          + (f", fault rate {args.fault_rate:g}" if args.fault_rate else ""))
    print(f"modeled service time: {service.clock_ms:.3f} ms")
    print()
    print(table.text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(chrome_trace_json(tracer, process_name="repro trace"))
        print(f"\nwrote {args.out} (load in chrome://tracing or ui.perfetto.dev)")
    return 0


def _write_heal_artifacts(result, out: str | None, audit_out: str | None) -> int:
    """Shared tail of the healing commands: artifacts + exit taxonomy."""
    import json

    if out:
        with open(out, "w") as fh:
            fh.write(result.to_json() + "\n")
        print(f"wrote {out}")
    if audit_out:
        with open(audit_out, "w") as fh:
            fh.write(json.dumps(result.audit, indent=2, sort_keys=True) + "\n")
        print(f"wrote {audit_out}")
    if not result.ok:
        print("error: a healing acceptance gate failed (see text above)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_cluster_trace_spec(args) -> int:
    """cluster-bench --trace-spec: QoS fleet fed by a traffic trace."""
    import json

    from .cluster import AlignmentCluster, WorkerSpec
    from .qos.bench import tenant_class_stats

    spec = _load_trace_spec(args.trace_spec)
    cluster = AlignmentCluster(
        [WorkerSpec(f"w{i}", device=known_devices()[args.device])
         for i in range(args.workers)],
        compute_scores=False,
        qos=spec.qos_policy(),
        qos_backlog_capacity=max(32, spec.n_requests // 2),
    )
    jobs = spec.materialize()
    handles = [
        cluster.submit_jobs([job], tenant=ev.tenant)[0]
        for ev, job in zip(spec.events, jobs)
    ]
    metrics = cluster.run()
    classes = tenant_class_stats(spec, handles)
    qm = cluster.qos_metrics()
    print(f"drove {spec.name!r} through {args.workers} worker(s): "
          f"{metrics.completed} completed / {metrics.failed} failed, "
          f"makespan {metrics.makespan_ms:.3f} ms "
          f"(arrival times ignored: the cluster loop is work-conserving)")
    print(f"fleet ladder: final level {qm['level']}, "
          f"{qm['level_shifts']} shift(s), "
          f"peak pressure {qm['peak_pressure']:.2f}, "
          f"ingress rejections {qm['quota_rejections']}")
    print()
    print(_class_table(classes))
    if args.out:
        payload = {
            "spec": spec.name,
            "seed": spec.seed,
            "workers": args.workers,
            "completed": metrics.completed,
            "failed": metrics.failed,
            "makespan_ms": metrics.makespan_ms,
            "classes": classes,
            "qos": qm,
        }
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _cmd_cluster_bench(args) -> int:
    from .cluster import ROUTING_POLICIES
    from .cluster.bench import run_cluster_bench

    if args.trace_spec:
        if args.self_heal:
            print("error: --trace-spec and --self-heal are mutually exclusive",
                  file=sys.stderr)
            return 2
        return _cmd_cluster_trace_spec(args)
    if args.self_heal:
        from .control.bench import run_control_bench

        result = run_control_bench(
            args.requests,
            n_workers=args.workers,
            b_fraction=args.long_read_fraction,
            duplicate_fraction=args.dup_rate,
            seed=args.seed,
        )
        print(result.text)
        return _write_heal_artifacts(result, args.out, args.audit_out)
    if args.audit_out:
        print("error: --audit-out requires --self-heal", file=sys.stderr)
        return 2
    policies = ROUTING_POLICIES
    if args.policy is not None:
        if args.policy not in ROUTING_POLICIES:
            print(
                f"error: unknown policy {args.policy!r}; "
                f"choose one of {', '.join(ROUTING_POLICIES)}",
                file=sys.stderr,
            )
            return 2
        policies = (args.policy,)
    res = run_cluster_bench(
        args.requests,
        args.workers,
        b_fraction=args.long_read_fraction,
        duplicate_fraction=args.dup_rate,
        seed=args.seed,
        device=known_devices()[args.device],
        policies=policies,
        scored_pairs=args.scored_pairs,
        engine=_engine_arg(args.engine),
    )
    print(res.text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(res.to_json() + "\n")
        print(f"wrote {args.out}")
    if not res.scored_identical:
        print("error: cluster results diverged from the engine contract",
              file=sys.stderr)
        return 1
    return 0


def _cmd_heal_report(args) -> int:
    from .control.bench import run_control_bench
    from .control.controller import AuditTrail

    result = run_control_bench(
        args.requests,
        n_workers=args.workers,
        b_fraction=args.long_read_fraction,
        duplicate_fraction=args.dup_rate,
        seed=args.seed,
        degrade_factor=args.degrade_factor,
        deadline_factor=args.deadline_factor,
        check_determinism=not args.quick,
    )
    print(result.text)
    print()
    trail = AuditTrail()
    trail.entries = result.audit["entries"]
    print(trail.text)
    return _write_heal_artifacts(result, args.out, args.audit_out)


def _cmd_report(args) -> int:
    from .bench.report import full_report

    text = full_report(quick=args.quick)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


_COMMANDS = {
    "align": _cmd_align,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "devices": _cmd_devices,
    "tune": _cmd_tune,
    "map": _cmd_map,
    "map-serve": _cmd_map_serve,
    "serve-bench": _cmd_serve_bench,
    "traffic-gen": _cmd_traffic_gen,
    "trace": _cmd_trace,
    "cluster-bench": _cmd_cluster_bench,
    "heal-report": _cmd_heal_report,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (AlignmentError, OSError) as exc:
        # Taxonomy errors (bad input records, rejected jobs, blown
        # deadlines) and I/O failures exit 2 with a one-line message;
        # anything else is a bug and keeps its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
