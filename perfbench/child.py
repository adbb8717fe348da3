"""One workload iteration in a fresh process; prints one JSON object.

Started by ``run.py`` with ``PYTHONPATH=src``.  ``--started`` is the
parent's ``time.monotonic()`` just before it started this process (the
clock is system-wide), so set-up time includes interpreter start-up and
imports.  With ``--trace 1`` the layer wrappers are installed before the
set-up and removed before the checks, and the output carries the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def peak_rss_mib() -> float:
    """Peak RSS of this process plus the largest of its children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment() -> dict:
    from repro.routing.engine import AUTO_SHARD_MIN_BUDGET
    from repro.routing.shard import shard_worker_budget

    budget = shard_worker_budget()
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "shard_budget": budget,
        "auto_shards_can_engage": budget >= AUTO_SHARD_MIN_BUDGET,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer(run_id=f"{args.workload}:{args.seed}:{os.getpid()}")
        layers.install(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    out = {"setup_s": time.monotonic() - args.started}
    try:
        started = time.perf_counter()
        latencies = workload.run()
        finished = time.perf_counter()
        out.update(
            wall_s=finished - started,
            peak_rss_mib=peak_rss_mib(),
            events=workload.events,
            latencies_s=latencies,
        )
        if tracer is not None:
            tracer.uninstall()
            total, own, calls = reduced = spans.totals(tracer)
            values = layers.layer_metrics(
                reduced,
                spans.coverage(tracer, started, finished),
                workload.layer_metrics(),
                tracer.counts,
            )
            units = layers.metric_units()
            out["layers"] = {name: [value, units[name]] for name, value in values.items()}
            out["run_id"] = tracer.run_id
            out["spans"] = {name: [calls[name], total[name], own[name]] for name in sorted(calls)}
        out["digest"] = workload.digest()
        if args.check:
            out["attempted"], out["failed"], out["detail"] = workload.check()
            out["environment"] = environment()
    except Exception:  # the boundary that reports a failed operation
        traceback.print_exc()
        out["error"] = traceback.format_exc(limit=3)
    finally:
        workload.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
