"""Benchmark entry point: each workload in a fresh single-threaded process.

Run from the repository root::

    python3 perfbench/run.py --workload serve_model --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --repeats 3

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` installs the per-layer wrappers and reports the
per-layer metrics instead.  ``--workload all`` runs every workload,
interleaved, ``--repeats`` times (seed, seed+1, ...) and prints the
median of each metric.  The last line of standard output is always one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Thread pools a BLAS or OpenMP build of NumPy might start.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str]]:
    """One workload in a fresh process; returns (exit code, stdout lines)."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Own session, so a timeout also kills the child's peak-RSS probe.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: {workload} seed {seed} exceeded {CHILD_TIMEOUT_S} s "
              f"or was interrupted", file=sys.stderr)
        return 1, []
    return proc.returncode, out.splitlines()


def parse_result(lines: list[str], names: list[str]) -> dict | None:
    """The child's result line, if it carries every expected metric."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    missing = [n for n in names if n not in result.get("metrics", {})]
    if missing:
        print(f"perfbench: result lacks metrics {missing}", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload with --workload all")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    names = [m["name"] for m in specs]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload != "all":
        if args.workload not in workloads:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"expected one of {workloads} or 'all'", file=sys.stderr)
            return 2
        code, lines = run_child(args.workload, args.seed, args.seconds, args.trace)
        if parse_result(lines, names) is None:
            print("\n".join(lines), file=sys.stderr)
            return code or 1
        print("\n".join(lines))
        return code

    # Interleave: each repeat runs every workload once, rotating the order.
    results: dict[str, list[dict]] = {w: [] for w in workloads}
    code = 0
    for r in range(args.repeats):
        order = workloads[r % len(workloads):] + workloads[: r % len(workloads)]
        for workload in order:
            rc, lines = run_child(workload, args.seed + r, args.seconds, args.trace)
            result = parse_result(lines, names)
            if result is None:
                print("\n".join(lines), file=sys.stderr)
                return rc or 1
            print("\n".join(lines[:-1]))
            code = code or rc
            results[workload].append(result)
    print(f"\nmedians over {args.repeats} run(s) per workload")
    merged = {}
    for workload in workloads:
        for spec in specs:
            value = statistics.median(
                res["metrics"][spec["name"]]["value"] for res in results[workload])
            merged[f"{workload}.{spec['name']}"] = {"value": value, "unit": spec["unit"]}
            print(f"  {workload:<14} {spec['name']:<36} {value:>16.6g} {spec['unit']}")
    print(json.dumps({
        "correct": all(res["correct"] for rs in results.values() for res in rs),
        "attempted": sum(res["attempted"] for rs in results.values() for res in rs),
        "failed": sum(res["failed"] for rs in results.values() for res in rs),
        "metrics": merged,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
