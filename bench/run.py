"""Benchmark of holoreg's decide -> construct -> verify pipeline.

    python3 bench/run.py --workload corpus-classify --seed 1 --seconds 12 --trace 0

Runs one workload (see workloads.py and README.md) for at least ``--seconds``
seconds of whole rounds, checks every output, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, measured with no spans installed.  With
``--trace 1`` it runs one traced round, pairing every fourth operation with
an untraced run, and reports per-layer self times and work counts, plus the
tracing overhead; the spans themselves go to
``.bench_work/spans-<workload>-<seed>.json``.
``--smoke`` runs a few small groups of the workload through the same checks,
in seconds.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_library():
    """Import holoreg from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import holoreg
    if Path(holoreg.__file__).resolve().parent != ROOT / "src" / "holoreg":
        raise ImportError(f"holoreg imported from {holoreg.__file__}")


def end_to_end(setup_s: float, rounds: list) -> dict:
    latencies = sorted(t for r in rounds for t in r.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "p50_ms": (1000 * statistics.median(latencies), "ms"),
        "p95_ms": (1000 * statistics.quantiles(latencies, n=20)[18], "ms"),
        "groups_per_s": (len(latencies) / sum(latencies), "groups/s"),
        "batch_s": (statistics.median(r.batch_s for r in rounds), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--relabel-seed", type=int, default=None,
                        help="large-tables only: seed of the relabelled copies")
    args = parser.parse_args(argv)
    try:
        load_library()
        import workloads
        from spans import Hooks, PairedCalls, Tracer, layer_metrics
    except ImportError as exc:
        print(f"error: cannot load holoreg from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    # Keep the benchmark's own imports (sympy above all) out of the garbage
    # collector's view: otherwise every full collection inside a timed
    # operation scans them too.  Objects the library creates stay in view.
    gc.collect()
    gc.freeze()
    if args.relabel_seed is not None:
        if not hasattr(workload, "relabel_seed"):
            print("error: --relabel-seed applies to large-tables only", file=sys.stderr)
            return 2
        workload.relabel_seed = args.relabel_seed

    if args.trace:
        tracer, hooks = Tracer(), Hooks()
        tracer.install(hooks)
        try:
            tracer.op = "setup"
            workload.setup()
        finally:
            hooks.restore()
        paired = PairedCalls(tracer)
        rounds = [workload.round(paired)]
        metrics = layer_metrics(tracer.spans)
        plain, slow = paired.untraced_s, paired.traced_s
        metrics["trace.untraced_s"] = {"value": plain, "unit": "s"}
        metrics["trace.traced_s"] = {"value": slow, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100 * (slow - plain) / plain, "unit": "%"}
        workloads.WORK.mkdir(exist_ok=True)
        out = workloads.WORK / f"spans-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps(tracer.spans), encoding="utf-8")
        print(f"spans: {out}")
    else:
        # The import is timed several times; a workload's own set-up takes
        # either milliseconds or 5 s to 25 s, so it runs once.
        import_s = workloads.import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setup_s = import_s + time.perf_counter() - t0
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(workload.round())
        metrics = end_to_end(setup_s, rounds)

    gc.unfreeze()
    for problem in workload.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not workload.problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
