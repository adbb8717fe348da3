"""The benchmark harness imports program symbols; they must keep existing.

``perfbench/child.py`` prints an environment line with every result.  It
imports :func:`repro.routing.shard.shard_worker_budget` and
:data:`repro.routing.engine.AUTO_SHARD_MIN_BUDGET`, so deleting either
would break every benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def test_child_environment_probe_runs():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    environment = child.environment()
    assert set(environment) == {
        "cpu_count",
        "python",
        "platform",
        "shard_budget",
        "auto_shards_can_engage",
    }
    assert environment["shard_budget"] >= 1
    assert isinstance(environment["auto_shards_can_engage"], bool)
