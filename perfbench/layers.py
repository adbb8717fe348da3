"""Which public functions the traced run wraps, and the per-layer metrics.

Layers are named after the program's modules.  For each span name,
``<span>_s`` is its total time, ``<span>_self_s`` its time minus child
spans, and the plural count is its number of calls; the remaining counts
are recorded by hooks at the same boundaries.
"""

from __future__ import annotations

import os

from spans import Tracer

from repro.collectors.observation import ObservationArchive
from repro.collectors.platform import CollectorDeployment
from repro.dataplane.forwarding import DataPlane
from repro.datasets import synthetic
from repro.experiments import Experiment, registry
from repro.measurement import propagation
from repro.measurement.report import MeasurementReport
from repro.net.lpm import LpmTable
from repro.probing.atlas import AtlasPlatform
from repro.routing import stream
from repro.routing.engine import BgpSimulator
from repro.routing.router import Router
from repro.topology.generator import TopologyGenerator

#: Span name -> name of its call-count metric (None: no count metric).
SPANS = {
    "topology.generate": None,
    "engine.init": "engine.inits",
    "engine.apply": "engine.applies",
    "router.import": "router.imports",
    "router.decision": "router.decisions",
    "router.export": "router.exports",
    "lpm.insert": "lpm.inserts",
    "lpm.delete": "lpm.deletes",
    "lpm.get": "lpm.gets",
    "lpm.longest_match": "lpm.longest_matches",
    "stream.parse": None,
    "stream.feed": None,
    "stream.drain": "stream.drains",
    "dataplane.build": "dataplane.builds",
    "dataplane.patch": "dataplane.patches",
    "dataplane.traceroute": "dataplane.traceroutes",
    "probing.measure": "probing.measures",
    "harvest.collect": None,
    "mrt.write": None,
    "mrt.read": None,
    "datasets.build": None,
    "measurement.report": None,
    "runner.build": None,
    "runner.attach": None,
    "runner.execute": None,
}

#: Spans whose time minus their children's is a metric of its own.
SELF_TIMED = ("engine.apply", "probing.measure", "harvest.collect", "measurement.report")

#: The sections of ``MeasurementReport.full_report``: method -> span name.
REPORT_SECTIONS = {
    "table1": "measurement.table1",
    "table2": "measurement.table2",
    "figure3": "measurement.figure3",
    "figure4a": "measurement.figure4a",
    "figure4b": "measurement.figure4b",
    "figure5a": "measurement.figure5a",
    "figure5b": "measurement.figure5b",
    "figure5c": "measurement.figure5c",
    "figure6": "measurement.figure6",
    "section43_transit_forwarders": "measurement.transit_forwarders",
    "blackhole_summary": "measurement.blackhole_summary",
}

#: Counts recorded by hooks, and values the workloads read from program objects.
COUNTS = (
    "engine.events",
    "engine.announcements",
    "engine.best_changes",
    "dataplane.fib_patches",
    "harvest.observations",
    "mrt.records",
    "mrt.bytes",
    "datasets.messages",
)
WORKLOAD_VALUES = {
    "stream.events_seen": "count",
    "stream.coalesced_ratio": "ratio",
    "runner.build_s": "s",
    "runner.attach_s": "s",
    "runner.execute_s": "s",
}
RATIOS = ("engine.useful_ratio", "trace.overhead_ratio", "trace.coverage")

#: Spans reported through a workload value instead of their own time.
_NOT_TIMED = ("stream.drain", "runner.build", "runner.attach", "runner.execute")


def _sources() -> dict[str, tuple[str, str]]:
    """Metric name -> (``total``, ``self``, ``calls`` or ``counts``, key)."""
    sources = {}
    for span in list(SPANS) + list(REPORT_SECTIONS.values()):
        if span not in _NOT_TIMED:
            sources[f"{span}_s"] = ("total", span)
        if span in SELF_TIMED:
            sources[f"{span}_self_s"] = ("self", span)
        if SPANS.get(span):
            sources[SPANS[span]] = ("calls", span)
    sources.update({name: ("counts", name) for name in COUNTS})
    return sources


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    timed = ("total", "self")
    units = {
        name: "s" if table in timed else "count" for name, (table, _key) in _sources().items()
    }
    units.update(WORKLOAD_VALUES)
    units.update(dict.fromkeys(RATIOS, "ratio"))
    return units


def _as_list(args: tuple) -> tuple:
    return (args[0], list(args[1])) + args[2:]


def _count(metric: str, value):
    def record(counts, _args, result):
        counts[metric] += value(result)

    return record


def _applied(counts, args, report) -> None:
    counts["engine.events"] += len(args[1])
    counts["engine.announcements"] += report.announcements_processed


def _mrt_written(counts, args, result) -> None:
    counts["mrt.records"] += result
    counts["mrt.bytes"] += os.path.getsize(args[1])


def _rebuild_kind(args: tuple) -> str:
    """``DataPlane.rebuild(report)`` patches; without a report it builds."""
    return "dataplane.patch" if len(args) > 1 and args[1] is not None else "dataplane.build"


def _fib_patches(counts, args, _result) -> None:
    report = args[1] if len(args) > 1 else None
    if report is not None:
        counts["dataplane.fib_patches"] += sum(len(p) for p in report.dirty.values())


def install(tracer: Tracer) -> None:
    """Wrap every layer's public entry points."""
    wrap = tracer.wrap
    wrap(TopologyGenerator, "generate", "topology.generate")
    wrap(BgpSimulator, "__init__", "engine.init")
    wrap(BgpSimulator, "apply", "engine.apply", prepare=_as_list, record=_applied)
    wrap(Router, "import_announcement", "router.import")
    wrap(Router, "remove_announcement", "router.import")
    wrap(Router, "refresh_best", "router.decision", record=_count("engine.best_changes", int))
    wrap(Router, "export_to", "router.export")
    for method in ("insert", "delete", "get", "longest_match"):
        wrap(LpmTable, method, f"lpm.{method}")
    wrap(stream, "read_event_stream", "stream.parse")
    wrap(stream.SimulatorService, "feed", "stream.feed")
    wrap(stream.SimulatorService, "drain", "stream.drain")
    wrap(DataPlane, "rebuild", _rebuild_kind, record=_fib_patches)
    wrap(DataPlane, "traceroute", "dataplane.traceroute")
    wrap(AtlasPlatform, "measure", "probing.measure")
    wrap(
        CollectorDeployment, "collect_from_simulator", "harvest.collect",
        record=_count("harvest.observations", len),
    )
    wrap(ObservationArchive, "write_mrt", "mrt.write", record=_mrt_written)
    wrap(ObservationArchive, "from_mrt", "mrt.read")
    wrap(
        synthetic, "build_default_dataset", "datasets.build",
        record=_count("datasets.messages", lambda dataset: dataset.message_count()),
    )
    wrap(MeasurementReport, "full_report", "measurement.report")
    for method, span in REPORT_SECTIONS.items():
        wrap(MeasurementReport, method, span)
    wrap(propagation, "transit_forwarders", "measurement.transit_forwarders")
    wrap(Experiment, "build", "runner.build")
    wrap(Experiment, "attach", "runner.attach")
    for name in registry.available():
        wrap(registry.get(name), "execute", "runner.execute")


def layer_metrics(
    reduced: tuple[dict, dict, dict], covered: float, workload_values: dict[str, float],
    counts: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``reduced`` is :func:`spans.totals` of the run's tracer, ``counts`` its
    hook counts and ``covered`` the share of the timed part its top-level
    spans cover.  ``trace.overhead_ratio`` is left at 0 for the caller,
    which also knows the untraced wall time.
    """
    total, own, calls = reduced
    tables = {"total": total, "self": own, "calls": calls, "counts": counts}
    metrics = dict.fromkeys(metric_units(), 0.0)
    for name, (table, key) in _sources().items():
        metrics[name] = tables[table].get(key, 0)
    metrics.update(workload_values)
    announcements = metrics["engine.announcements"]
    metrics["engine.useful_ratio"] = (
        metrics["engine.best_changes"] / announcements if announcements else 0.0
    )
    metrics["trace.coverage"] = covered
    return metrics
