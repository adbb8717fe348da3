"""The four benchmark workloads, each driven through the public Python API.

A workload is a class: its constructor is the set-up (everything up to
the first timed call), :meth:`run` is the timed part, and :meth:`check`
verifies the outputs afterwards, untimed.  Modules whose functions the
traced run wraps (``stream``, ``synthetic``, ``propagation``) are called
through their module attribute so the wrappers installed at run time are
the ones that run.

Why each workload is here:

* ``table-converge`` is the seed stage of ``report --param source=harvest``,
  the slowest path of the simulator: one big batch through the engine,
  the FIB build and the collector harvest, with deaggregated /24s so
  prefixes share attributes the way real tables do.
* ``update-churn`` is the ``repro-bgp stream`` path: many small batches of
  unrelated prefixes, Loc-RIB/LPM deletes beside inserts, and FIB reads
  after every write.  It is a closed loop with one client.
* ``archive-report`` is the paper's measurement pipeline (dataset, MRT,
  report).  It never calls the routing engine, so engine changes must
  leave it unchanged.
* ``blackhole-sweep`` builds one fresh simulator per what-if, so the fixed
  cost of each simulation (engine init, FIB build, probing) dominates.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from pathlib import Path

import inputs
from repro.collectors.observation import ObservationArchive
from repro.collectors.platform import CollectorDeployment
from repro.dataplane.forwarding import DataPlane
from repro.datasets import synthetic
from repro.experiments import ExperimentStatus, registry
from repro.measurement import propagation
from repro.measurement.report import MeasurementReport
from repro.probing.atlas import AtlasPlatform
from repro.routing import stream
from repro.routing.engine import BgpSimulator
from repro.topology.relationships import Relationship

#: update-churn: events in the stream, keys buffered per drain, and probes.
#: One iteration drains about 160 times, so its p90 has more than ten
#: drains beyond it on its own.
CHURN_EVENTS = 900
CHURN_WINDOW = 4
CHURN_PROBES = 16

#: Where archive-report writes its MRT files, relative to the checkout root.
SCRATCH = Path(".perfbench-scratch")


def _digest(rows) -> str:
    """SHA-256 over the ``repr`` of each row, in order."""
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(row).encode())
        sha.update(b"\n")
    return sha.hexdigest()


def _route_row(entry) -> tuple:
    return (
        str(entry.prefix),
        tuple(entry.attributes.as_path.asns()),
        tuple(str(c) for c in entry.attributes.communities),
        entry.attributes.local_pref,
        entry.learned_from,
        entry.blackholed,
    )


def _fib_rows(dataplane: DataPlane) -> list[tuple]:
    return [
        (asn, str(e.prefix), e.next_hop_asn, e.blackholed)
        for asn in sorted(dataplane.fibs)
        for e in sorted(dataplane.fibs[asn].entries(), key=lambda e: e.prefix)
    ]


def _best_rows(simulator: BgpSimulator) -> list[tuple]:
    return [
        (asn,) + _route_row(entry)
        for asn in sorted(simulator.routers)
        for entry in sorted(simulator.routers[asn].loc_rib.best_routes(), key=lambda e: e.prefix)
    ]


def valley_free(topology, path: tuple[int, ...]) -> bool:
    """True when ``path`` (peer first, origin last) climbs, crosses at most
    one peering link, then only descends, walking from the origin."""
    descending = False
    hops = path[::-1]
    for sender, receiver in zip(hops, hops[1:]):
        relationship = topology.relationship(sender, receiver)
        if relationship == Relationship.CUSTOMER or (
            relationship == Relationship.PEER and not descending
        ):
            descending = True
        elif relationship != Relationship.PROVIDER or descending:
            return False
    return True


class Workload:
    """Set-up in the constructor, the timed part in :meth:`run`, then checks.

    ``events`` is the number of input events the timed part processes;
    :meth:`run` returns the latency of each drain of a closed loop (none
    for a batch).  :meth:`digest` fingerprints the outputs so runs can be
    compared byte for byte; :meth:`check` returns ``(attempted, failed,
    detail)``, where attempted counts the operations checked.
    """

    name = ""
    events = 0

    def run(self) -> list[float]:
        raise NotImplementedError

    def digest(self) -> str:
        raise NotImplementedError

    def check(self) -> tuple[int, int, str]:
        raise NotImplementedError

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values read from program objects after the run."""
        return {}

    def close(self) -> None:
        """Remove whatever the workload wrote."""


class TableConverge(Workload):
    """Converge the deaggregated small table, build FIBs, harvest collectors."""

    name = "table-converge"

    def __init__(self, seed: int):
        self.topology = inputs.small_topology()
        inputs.deaggregate(self.topology, seed)
        self.deployment = CollectorDeployment.default_deployment(self.topology)
        self.events = len(self.topology.originated_prefixes())

    def run(self) -> list[float]:
        self.simulator = BgpSimulator(self.topology)
        self.simulator.announce_originated()
        self.dataplane = DataPlane(self.simulator)
        self.archive = self.deployment.collect_from_simulator(self.simulator)
        return []

    def digest(self) -> str:
        return _digest(
            (o.collector_id, o.peer_asn, str(o.prefix), o.as_path, str(o.communities))
            for o in self.archive
        )

    def check(self) -> tuple[int, int, str]:
        failed = 0 if len(self.archive) else 1
        origins = {p: self.topology.origin_of(p) for p in self.topology.originated_prefixes()}
        for observation in self.archive:
            path = observation.path_without_prepending
            if (
                len(set(path)) != len(path)
                or not valley_free(self.topology, path)
                or observation.origin_asn != origins.get(observation.prefix)
            ):
                failed += 1
        return len(self.archive) + 1, failed, f"observations={len(self.archive)}"


class UpdateChurn(Workload):
    """Feed a seeded churn stream through the streaming service, one client."""

    name = "update-churn"

    def __init__(self, seed: int):
        self.topology = inputs.small_topology()
        self.lines = inputs.churn_lines(self.topology, seed, CHURN_EVENTS)
        self.simulator = BgpSimulator(self.topology)
        self.simulator.announce_originated()
        self.dataplane = DataPlane(self.simulator)
        self.atlas = AtlasPlatform.deploy(self.topology, probe_count=CHURN_PROBES, seed=seed)
        self.events = len(self.lines)

    def _settle(self, report) -> list[tuple]:
        """Patch the FIBs for one drain and ping every touched prefix."""
        self.dataplane.rebuild(report)
        return [
            (str(prefix), sorted(self.atlas.measure(self.dataplane, prefix).responsive_probes()))
            for prefix in sorted(report.prefixes)
        ]

    def run(self) -> list[float]:
        self.service = stream.SimulatorService(self.simulator, window=CHURN_WINDOW)
        self.answers: list[tuple] = []
        latencies = []
        for line in self.lines:
            events = list(stream.read_event_stream([line]))
            started = time.perf_counter()
            reports = self.service.feed(events)
            if reports:
                for report in reports:
                    self.answers.extend(self._settle(report))
                latencies.append(time.perf_counter() - started)
        started = time.perf_counter()
        report = self.service.drain()
        if report.prefixes:
            self.answers.extend(self._settle(report))
            latencies.append(time.perf_counter() - started)
        return latencies

    def digest(self) -> str:
        return _digest(_best_rows(self.simulator) + _fib_rows(self.dataplane) + self.answers)

    def check(self) -> tuple[int, int, str]:
        reference = BgpSimulator(self.topology)
        reference.announce_originated()
        reference.apply(stream.coalesce_events(stream.read_event_stream(self.lines)))
        best = _best_rows(self.simulator)
        patched = _fib_rows(self.dataplane)
        comparisons = (
            (best, _best_rows(reference)),
            (patched, _fib_rows(DataPlane(reference))),
            (patched, _fib_rows(DataPlane(self.simulator))),
        )
        failed = sum(mine != theirs for mine, theirs in comparisons)
        stats = self.service.stats
        return (
            stats.events_seen + stats.batches + len(comparisons),
            failed,
            f"drains={stats.batches} coalesced={stats.events_coalesced}",
        )

    def layer_metrics(self) -> dict[str, float]:
        stats = self.service.stats
        return {
            "stream.events_seen": stats.events_seen,
            "stream.coalesced_ratio": stats.events_coalesced / max(1, stats.events_seen),
        }


class ArchiveReport(Workload):
    """Dataset, one MRT file per collector, read back, Section 4 report."""

    name = "archive-report"

    def __init__(self, seed: int):
        self.topology = inputs.small_topology()
        self.scratch = SCRATCH / f"mrt-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)

    def run(self) -> list[float]:
        self.dataset = synthetic.build_default_dataset(self.topology)
        archive = self.dataset.archive
        self.files = []
        for platform, collector_id in archive.collectors():
            path = self.scratch / f"{platform}.{collector_id}.mrt"
            archive.by_collector(platform, collector_id).write_mrt(path)
            self.files.append((platform, collector_id, path))
        self.readback = ObservationArchive(
            observation
            for platform, collector_id, path in self.files
            for observation in ObservationArchive.from_mrt(
                path, platform=platform, collector_id=collector_id
            )
        )
        self.events = len(self.readback)
        self.report = MeasurementReport(
            self.readback, self.topology, self.dataset.blackhole_list
        ).full_report()
        self.forwarders = propagation.transit_forwarders(self.readback)
        return []

    @staticmethod
    def _row(o) -> tuple:
        return (
            o.platform, o.collector_id, o.peer_asn, str(o.prefix), o.as_path,
            str(o.communities), int(o.timestamp), o.withdrawn,
        )

    def digest(self) -> str:
        return _digest([self.report, self.forwarders] + [self._row(o) for o in self.readback])

    def check(self) -> tuple[int, int, str]:
        archive = self.dataset.archive
        written = [
            self._row(o)
            for platform, collector_id, _path in self.files
            for o in archive.by_collector(platform, collector_id)
        ]
        read = [self._row(o) for o in self.readback]
        failed = sum(a != b for a, b in zip(written, read)) + abs(len(written) - len(read))
        in_memory = MeasurementReport(
            archive, self.topology, self.dataset.blackhole_list
        ).full_report()
        failed += in_memory != self.report
        failed += propagation.transit_forwarders(archive) != self.forwarders
        return len(written) + 2, failed, f"records={len(read)}"

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another process still has files there
            pass


class BlackholeSweep(Workload):
    """The registered Section 7.6 experiment at the ``default`` scale."""

    name = "blackhole-sweep"

    def __init__(self, seed: int):
        self.experiment = registry.get("blackhole-sweep")
        self.spec = self.experiment.default_spec(scale="default")

    def run(self) -> list[float]:
        self.result = self.experiment(self.spec).run()
        self.events = self.result.metrics.get("communities_swept", 0)
        return []

    def digest(self) -> str:
        return _digest([json.dumps(self.result.metrics, sort_keys=True)])

    def check(self) -> tuple[int, int, str]:
        ok = self.result.status == ExperimentStatus.OK and bool(
            self.result.metrics.get("confirmed")
        )
        return 1, 0 if ok else 1, f"status={self.result.status.value}"

    def layer_metrics(self) -> dict[str, float]:
        timings = self.result.timings
        stages = ("build", "attach", "execute")
        return {f"runner.{stage}_s": timings.get(stage, 0.0) for stage in stages}


WORKLOADS = {cls.name: cls for cls in (TableConverge, UpdateChurn, ArchiveReport, BlackholeSweep)}
