"""Benchmark of lattes: one workload, one process, whole rounds for --seconds.

    python3 bench/run.py --workload fq-dynamics --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; lattes is imported from ./src.
Each round resets the module caches of lattes and runs the workload's
operations in order, timing each one and checking its output; rounds
repeat until --seconds have passed.  Times are each operation's best over
the rounds: other tenants of the machine only ever add time, so the best
of k repeats is the steady estimate.  The last line of standard output is
one JSON object: correct, attempted, failed and the metrics (the
end-to-end ones with --trace 0, the per-layer ones with --trace 1, which
also writes the spans to .bench_trace/).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import lattes.cli; lattes.cli.build_parser()"


def measure_setup() -> float:
    """Seconds for a fresh interpreter to import lattes.cli and build its parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, SRC], check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def import_lattes():
    sys.path.insert(0, SRC)
    import lattes.cli  # imports every other module of the package

    if os.path.dirname(os.path.abspath(lattes.__file__)) != os.path.join(SRC, "lattes"):
        raise ImportError(f"lattes was imported from {lattes.__file__}, not from {SRC}")
    return lattes


def reset_caches(lattes):
    """Forget everything lattes memoizes across calls, so that every round
    is a fresh session: each module-level dict whose name contains CACHE,
    and the lazily built symbolic division-polynomial family."""
    for mod in (lattes.fields, lattes.poly, lattes.legendre, lattes.moduli, lattes.pvi, lattes.detect, lattes.cli):
        for name, value in vars(mod).items():
            if "CACHE" in name and isinstance(value, dict):
                value.clear()
    if hasattr(lattes.legendre, "_SYMBOLIC_PSIHAT"):
        lattes.legendre._SYMBOLIC_PSIHAT = None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s = measure_setup()
    lattes = import_lattes()
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload](lattes, args.seed)
    ops = work.ops()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(lattes)

    attempted = failed = 0
    problems = []
    best = [float("inf")] * len(ops)  # each operation's best time over the rounds
    round_times = []
    start = time.perf_counter()
    while True:
        reset_caches(lattes)
        if tracer:
            tracer.start_round()
        busy = 0.0
        for index, op in enumerate(ops):
            attempted += 1
            if tracer:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an operation that raises counts as failed
                failed += 1
                problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            busy += dt
            best[index] = min(best[index], dt)
            try:
                op.check(result)
            except workloads.CheckFailed as exc:
                problems.append(f"check failed: {exc}")
        round_times.append(busy)
        if time.perf_counter() - start >= args.seconds:
            break

    for line in problems[:20]:
        print(line, file=sys.stderr)
    correct = not any(p.startswith("check failed") for p in problems)
    done = [t for t in best if t < float("inf")]  # operations that never failed

    if tracer:
        tracer.uninstall()
        values, per_round = tracer.round_metrics()
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in tracing.METRICS}
        path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.json")
        header = {"workload": args.workload, "seed": args.seed, "wall_s": sum(done), "round_wall_s": round_times}
        tracer.dump(path, header, per_round)
    else:
        metrics = {
            "wall_s": {"value": sum(done), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(done) * 1000.0, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    print(f"{args.workload}: {len(round_times)} rounds of {len(ops)} operations", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_query"):
        return "count/query"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError, subprocess.CalledProcessError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
