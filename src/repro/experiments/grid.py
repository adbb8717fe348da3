"""Fan a grid of experiment specs across worker processes.

:func:`expand_grid` turns (seeds x scales x parameter axes) into a
deterministic list of :class:`ExperimentSpec`; :class:`GridRunner`
executes such a list either sequentially in-process or across a
``ProcessPoolExecutor``.  Specs and results cross the process boundary
as plain dicts (the spec/result round-trip), and results always come
back **in spec order**, so a parallel run is comparable element-wise
with a sequential one.

Two orthogonal levels of parallelism compose here: the grid fans *specs*
over workers, and each spec's experiment may fan its *propagation* over
shard workers (``--param shards=K``, see :mod:`repro.routing.shard`).
:func:`worker_budget` splits the machine between the two — the grid
claims ``cpu // shards`` workers and hands each worker a
:data:`~repro.routing.shard.SHARD_BUDGET_ENV` slice of ``cpu //
workers``, so grid workers times propagation shards never oversubscribes
the host.

Results persist as JSON lines: ``GridRunner.run(...,
output_path=...)`` streams each :meth:`ExperimentResult.to_json` line to
disk as it completes (a crashed grid keeps everything finished so far),
and :func:`load_results` replays a file back into result objects.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Iterable, Sequence, TextIO

from repro.experiments.registry import get, run_experiment
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.routing.shard import SHARD_BUDGET_ENV


def expand_grid(
    name: str,
    seeds: Sequence[int] = (42,),
    scales: Sequence[str | None] = (None,),
    param_grid: dict[str, Sequence[Any]] | None = None,
    **base_params: Any,
) -> list[ExperimentSpec]:
    """Expand seeds x scales x parameter axes into specs, deterministically.

    Axes iterate in the order given (parameter axes by sorted key), so the
    same arguments always produce the same spec list in the same order.
    """
    experiment_cls = get(name)
    axes = sorted((param_grid or {}).items())
    keys = [key for key, _values in axes]
    value_lists = [list(values) for _key, values in axes]
    specs: list[ExperimentSpec] = []
    for seed in seeds:
        for scale in scales:
            for combo in itertools.product(*value_lists) if value_lists else [()]:
                params = dict(base_params)
                params.update(zip(keys, combo))
                specs.append(experiment_cls.default_spec(seed=seed, scale=scale, **params))
    return specs


def worker_budget(
    task_count: int,
    max_workers: int | None = None,
    shards_per_task: int = 1,
    cpu_total: int | None = None,
) -> tuple[int, int]:
    """Split the machine between grid workers and per-task propagation shards.

    Returns ``(workers, shard_budget)``: the grid may run ``workers``
    processes, and each of them may in turn use ``shard_budget``
    propagation shard workers — chosen so ``workers * shards_per_task``
    never exceeds the CPU total.  ``max_workers`` is an additional
    caller-imposed cap; ``cpu_total`` overrides ``os.cpu_count()``
    (mainly for tests).
    """
    total = cpu_total if cpu_total is not None else (os.cpu_count() or 1)
    total = max(1, total)
    shards = max(1, shards_per_task)
    ceiling = max(1, total // shards)
    cap = max_workers if max_workers is not None else total
    workers = max(1, min(task_count or 1, cap, ceiling))
    shard_budget = max(1, total // workers)
    return workers, shard_budget


def _spec_shards(spec: ExperimentSpec) -> int:
    """The propagation shard count a spec explicitly asks for (1 otherwise).

    ``shards="auto"`` deliberately counts as 1 here: auto resolves
    *inside* the worker against the shard budget the grid hands it, so
    the budget split — not this hint — is what prevents oversubscription.
    """
    value = spec.params.get("shards")
    if isinstance(value, int) and not isinstance(value, bool):
        return max(1, value)
    return 1


def _initialize_grid_worker(shard_budget: int) -> None:
    """Grid worker initializer: pin this worker's propagation-shard budget."""
    os.environ[SHARD_BUDGET_ENV] = str(shard_budget)


def _run_spec_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """Worker entry point: dict in, dict out (both sides picklable)."""
    spec = ExperimentSpec.from_dict(payload)
    return run_experiment(spec).to_dict()


def write_results(path: str, results: Iterable[ExperimentResult], append: bool = False) -> int:
    """Write results as JSON lines; returns how many were written."""
    written = 0
    with open(path, "a" if append else "w", encoding="utf-8") as stream:
        for result in results:
            _write_line(stream, result)
            written += 1
    return written


def load_results(path: str) -> list[ExperimentResult]:
    """Replay a JSON-lines result file written by :meth:`GridRunner.run`."""
    results: list[ExperimentResult] = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                results.append(ExperimentResult.from_json(line))
    return results


def _write_line(stream: TextIO, result: ExperimentResult) -> None:
    stream.write(result.to_json())
    stream.write("\n")
    stream.flush()


@dataclass
class GridRunner:
    """Run many experiment specs with deterministic result ordering."""

    #: Worker processes (None = the shard-aware budget, at most the CPU count).
    max_workers: int | None = None

    def run(
        self,
        specs: Iterable[ExperimentSpec],
        parallel: bool = True,
        output_path: str | None = None,
    ) -> list[ExperimentResult]:
        """Run every spec; results are returned in spec order.

        With ``parallel=True`` the specs fan out over worker processes,
        the worker count chosen by :func:`worker_budget` so that grid
        workers x the largest explicit ``shards`` parameter stays within
        the machine; a single-spec grid always runs in-process (no pool
        overhead).  With ``output_path`` every result is streamed to
        disk as a JSON line the moment it is available (spec order).
        """
        specs = list(specs)
        stream: TextIO | None = None
        if output_path is not None:
            stream = open(output_path, "w", encoding="utf-8")
        try:
            results: list[ExperimentResult] = []
            if not parallel or len(specs) <= 1:
                for spec in specs:
                    result = run_experiment(spec)
                    results.append(result)
                    if stream is not None:
                        _write_line(stream, result)
                return results
            shards_per_task = max((_spec_shards(spec) for spec in specs), default=1)
            workers, shard_budget = worker_budget(
                len(specs), self.max_workers, shards_per_task
            )
            payloads = [spec.to_dict() for spec in specs]
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_initialize_grid_worker,
                initargs=(shard_budget,),
            ) as pool:
                for result_payload in pool.map(_run_spec_payload, payloads):
                    result = ExperimentResult.from_dict(result_payload)
                    results.append(result)
                    if stream is not None:
                        _write_line(stream, result)
            return results
        finally:
            if stream is not None:
                stream.close()

    def run_sequential(
        self, specs: Iterable[ExperimentSpec], output_path: str | None = None
    ) -> list[ExperimentResult]:
        """The in-process reference execution (same ordering guarantee)."""
        return self.run(specs, parallel=False, output_path=output_path)
