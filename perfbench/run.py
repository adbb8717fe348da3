"""The repository benchmark: one seeded workload, measured end to end or traced.

Run from the repository root::

    python3 perfbench/run.py --workload table-converge --seed 1 --seconds 12 --trace 0

Each iteration of the workload runs in a fresh process (``child.py``)
so that set-up time and peak RSS are those of a fresh process.  With
``--trace 0`` the workload is repeated until the timed wall adds up to
``--seconds`` and it has run at least :func:`min_iterations` times, and
the metrics below are taken over all iterations.  With ``--trace 1`` one
untraced and one traced iteration run, and the output carries the
per-layer metrics of the traced one (see ``layers.py``).  They cover the whole traced
process, set-up included; ``trace.coverage`` is measured over the timed
part and ``trace.overhead_ratio`` is traced / untraced wall.

End-to-end metrics:

* ``setup_s``: process start to the first timed call (median);
* ``wall_s``: the timed part, checks excluded (median);
* ``peak_rss_mib``: peak RSS of the process at the end of the timed part;
* ``events_per_s``: input events / ``wall_s``; an event is an origination
  (table-converge), a stream event (update-churn), an update message read
  back (archive-report) or a swept community (blackhole-sweep);
* ``drain_p50_ms`` / ``drain_p90_ms``: median and nearest-rank p90 of
  the drain latencies of all iterations: from the ``feed`` call that fills
  the window until the FIB patch and the probe answers return.  A batch
  workload drains its whole input once per iteration, so its drains are
  its iterations.  A p90 needs at least :data:`TAIL_SAMPLES` drains beyond
  it; with fewer (every batch workload) ``drain_p90_ms`` reports the
  median instead, and the detail line says so.

Errors are not a metric (a metric must never read 0): the result line's
``attempted`` and ``failed`` count the checked operations.  The first
iteration runs the workload's full correctness checks; every later
iteration must reproduce its output digest exactly.  The last
line of standard output is the result object; the line before it holds
the environment, the digest and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 3
MAX_ITERATIONS = 8
#: archive-report holds a large heap and is the workload whose walls
#: spread most with the host's load, so its medians take more iterations;
#: blackhole-sweep's walls are long, so two already cover ``--seconds``.
#: The pair keeps all runs of the benchmark within its time budget.
MIN_ITERATIONS_BY_WORKLOAD = {"archive-report": 6, "blackhole-sweep": 2}
#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES = 10
CHILD_TIMEOUT_S = 150


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def highest_supported_percentile(count: int) -> int:
    """The highest whole percentile with at least TAIL_SAMPLES samples beyond
    it in a nearest-rank sample of ``count`` values (0 when none has)."""
    for q in range(99, 0, -1):
        if count - math.ceil(q / 100.0 * count) >= TAIL_SAMPLES:
            return q
    return 0


def min_iterations(workload: str) -> int:
    return MIN_ITERATIONS_BY_WORKLOAD.get(workload, MIN_ITERATIONS)


def drain_p90(drains: list[float]) -> float:
    """The nearest-rank p90 of ``drains`` when the sample supports it,
    else their median."""
    if highest_supported_percentile(len(drains)) >= 90:
        return percentile(drains, 90)
    return median(drains)


def spawn(workload: str, seed: int, **options) -> dict:
    """Run one ``child.py`` process and return its JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed)]
    for key, value in options.items():
        command += [f"--{key}", str(value)]
    command += ["--started", repr(time.monotonic())]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} iteration exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Tally:
    """Operations attempted and failed across a run's iterations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest: str | None = None
        self.notes: list[str] = []

    def add(self, out: dict) -> bool:
        """Fold one iteration in; returns False when it raised."""
        if "error" in out:
            self.attempted += 1
            self.failed += 1
            self.notes.append(out["error"].strip().splitlines()[-1])
            return False
        if "attempted" in out:
            self.attempted += out["attempted"]
            self.failed += out["failed"]
            self.notes.append(out["detail"])
        if self.digest is None:
            self.digest = out["digest"]
        else:
            self.attempted += 1
            self.failed += out["digest"] != self.digest
        return True


def end_to_end(args, tally: Tally) -> tuple[dict, dict]:
    runs = []
    elapsed = 0.0
    least = min_iterations(args.workload)
    while len(runs) < MAX_ITERATIONS and (len(runs) < least or elapsed < args.seconds):
        out = spawn(args.workload, args.seed, check=int(not runs))
        if not tally.add(out):
            return {}, {}
        runs.append(out)
        elapsed += out["wall_s"]
    drains = [d for out in runs for d in out["latencies_s"]] or [o["wall_s"] for o in runs]
    metrics = {
        "setup_s": (median([o["setup_s"] for o in runs]), "s"),
        "wall_s": (median([o["wall_s"] for o in runs]), "s"),
        "peak_rss_mib": (median([o["peak_rss_mib"] for o in runs]), "MiB"),
        "events_per_s": (median([o["events"] / o["wall_s"] for o in runs]), "1/s"),
        "drain_p50_ms": (1000.0 * median(drains), "ms"),
        "drain_p90_ms": (1000.0 * drain_p90(drains), "ms"),
    }
    detail = {
        "iterations": len(runs),
        "drain_samples": len(drains),
        "drain_p90_is_median": highest_supported_percentile(len(drains)) < 90,
        "environment": runs[0].get("environment"),
    }
    return metrics, detail


def traced(args, tally: Tally) -> tuple[dict, dict]:
    plain = spawn(args.workload, args.seed)
    if not tally.add(plain):
        return {}, {}
    out = spawn(args.workload, args.seed, check=0, trace=1)
    if not tally.add(out):
        return {}, {}
    metrics = {name: tuple(value) for name, value in out["layers"].items()}
    metrics["trace.overhead_ratio"] = (out["wall_s"] / plain["wall_s"], "ratio")
    detail = {key: out[key] for key in ("run_id", "spans")}
    detail.update(environment=plain.get("environment"), traced_wall_s=out["wall_s"])
    return metrics, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SystemExit inside subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not Path("src/repro/__init__.py").is_file():
        print("run from the repository root: src/repro is missing", file=sys.stderr)
        return 2
    tally = Tally()
    try:
        metrics, detail = (traced if args.trace else end_to_end)(args, tally)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    detail.update(workload=args.workload, seed=args.seed, digest=tally.digest, checks=tally.notes)
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if metrics else max(1, tally.failed),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
