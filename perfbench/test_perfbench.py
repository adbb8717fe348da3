"""Tests of the benchmark itself: percentiles, inputs, spans and metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import inputs
import layers
import run
import workloads
from spans import Tracer, coverage, self_times, totals

from repro.routing import stream

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# ------------------------------------------------------------------ percentiles
def test_tail_percentile_needs_ten_samples_beyond():
    assert run.highest_supported_percentile(100) == 90
    assert run.highest_supported_percentile(99) == 89
    assert run.highest_supported_percentile(1000) == 99
    assert run.highest_supported_percentile(10) == 0


def test_p90_falls_back_to_the_median_without_a_supported_tail():
    assert run.drain_p90(list(range(100, 0, -1))) == 90
    assert run.drain_p90(list(range(99, 0, -1))) == 50
    assert run.drain_p90([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile([7.0], 90) == 7.0


# ----------------------------------------------------------------------- inputs
def _added(seed: int) -> list:
    topology = inputs.small_topology()
    before = set(topology.originated_prefixes())
    inputs.deaggregate(topology, seed)
    return sorted(set(topology.originated_prefixes()) - before)


def test_deaggregation_is_seeded_and_fixed_in_size():
    first, again, other = _added(1), _added(1), _added(2)
    assert first == again
    assert first != other
    assert len(first) == len(other) > 0
    assert all(p.length == 24 for p in first)


def test_deaggregated_prefixes_stay_with_their_origin():
    topology = inputs.small_topology()
    owners = {p: asn for p, asn in topology.originated_prefixes().items()}
    inputs.deaggregate(topology, 3)
    for prefix, asn in topology.originated_prefixes().items():
        if prefix not in owners:
            covering = [p for p in owners if p.contains_prefix(prefix)]
            assert [owners[p] for p in covering] == [asn]


@pytest.fixture(scope="module")
def churn():
    topology = inputs.small_topology()
    lines = inputs.churn_lines(topology, 7, 600)
    return topology, lines, list(stream.read_event_stream(lines))


def test_churn_is_seeded(churn):
    topology, lines, _events = churn
    assert inputs.churn_lines(topology, 7, 600) == lines
    assert inputs.churn_lines(topology, 8, 600) != lines
    assert len(lines) == 600


def test_churn_mix_has_withdrawals_hijacks_tags_and_bursts(churn):
    topology, _lines, events = churn
    owners = topology.originated_prefixes()
    assert any(e.withdraw for e in events)
    assert any(e.communities for e in events)
    assert any(e.origin_asn != owners[e.prefix] for e in events)
    keys = [(e.origin_asn, e.prefix) for e in events]
    runs_of_three = sum(keys[i] == keys[i + 1] == keys[i + 2] for i in range(len(keys) - 2))
    assert runs_of_three > 0
    window = events[:200]
    assert len(stream.coalesce_events(window)) < len(window)


def test_valley_free_rejects_a_valley():
    topology = inputs.small_topology()
    stub = next(a.asn for a in topology.stub_ases() if len(topology.providers(a.asn)) == 2)
    first, second = topology.providers(stub)
    assert workloads.valley_free(topology, (stub, first))
    assert workloads.valley_free(topology, (first, stub))
    # Learned from one provider, re-exported up to the other: a valley.
    assert not workloads.valley_free(topology, (second, stub, first))


# ------------------------------------------------------------------------ spans
def _tracer(spans) -> Tracer:
    """A tracer holding ``(name, start, end, parent)`` spans verbatim."""
    tracer = Tracer("test")
    for name, start, end, parent in spans:
        tracer.names.append(name)
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
    return tracer


def test_self_time_subtracts_the_union_of_children():
    tracer = _tracer(
        [
            ("outer", 0.0, 10.0, -1),
            ("a", 1.0, 3.0, 0),
            ("b", 2.0, 5.0, 0),  # overlaps a: the union 1..5 counts once
            ("c", 8.0, 12.0, 0),  # clipped to the parent's end
            ("leaf", 1.5, 2.5, 1),
        ]
    )
    assert self_times(tracer) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_nested_same_name_spans_count_once_in_time():
    tracer = _tracer(
        [
            ("walk", 0.0, 4.0, -1),
            ("walk", 1.0, 2.0, 0),
            ("walk", 5.0, 6.0, -1),
        ]
    )
    total, own, calls = totals(tracer)
    assert total["walk"] == pytest.approx(5.0)
    assert own["walk"] == pytest.approx(5.0)
    assert calls["walk"] == 3


def test_coverage_is_the_union_of_top_level_spans():
    tracer = _tracer([("a", 0.0, 4.0, -1), ("b", 3.0, 6.0, -1), ("c", 1.0, 2.0, 0)])
    assert coverage(tracer, 0.0, 10.0) == pytest.approx(0.6)


class _Target:
    def method(self, value):
        return self.helper(value) + 1

    def helper(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return cls().method(value)

    @staticmethod
    def numbers(count):
        yield from range(count)


def test_wrap_records_parents_and_counts_then_uninstalls():
    originals = {k: _Target.__dict__[k] for k in ("method", "helper", "build", "numbers")}
    tracer = Tracer("test")
    tracer.wrap(_Target, "build", "t.build")
    tracer.wrap(_Target, "method", "t.method", record=lambda c, args, r: c.__setitem__("r", r))
    tracer.wrap(_Target, "helper", lambda args: f"t.helper{args[1]}")
    tracer.wrap(_Target, "numbers", "t.numbers")
    assert _Target.build(3) == 7
    assert list(_Target.numbers(3)) == [0, 1, 2]
    assert tracer.names == ["t.build", "t.method", "t.helper3", "t.numbers"]
    assert list(tracer.parents) == [-1, 0, 1, -1]
    assert tracer.counts["r"] == 7
    assert all(end >= start for start, end in zip(tracer.starts, tracer.ends))
    tracer.uninstall()
    assert {k: _Target.__dict__[k] for k in originals} == originals


# ------------------------------------------------------------------ metric names
def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def _fake_child(monkeypatch, out: dict) -> None:
    monkeypatch.setattr(run, "spawn", lambda *_a, **_k: dict(out))


def _args():
    return type("Args", (), {"workload": "w", "seed": 1, "seconds": 0.0})()


def test_end_to_end_metrics_are_the_declared_ones(monkeypatch):
    _fake_child(
        monkeypatch,
        {"setup_s": 0.5, "wall_s": 2.0, "peak_rss_mib": 50.0, "events": 10,
         "latencies_s": [0.1, 0.2], "digest": "d"},
    )
    metrics, _detail = run.end_to_end(_args(), run.Tally())
    assert {name: unit for name, (_v, unit) in metrics.items()} == _declared("end_to_end")
    assert all(value > 0 for value, _unit in metrics.values())


def test_layer_metrics_are_the_declared_ones():
    units = layers.metric_units()
    assert all(NAME.fullmatch(name) for name in units)
    assert units == _declared("per_layer")
    tracer = _tracer([("engine.apply", 0.0, 1.0, -1)])
    values = layers.layer_metrics(totals(tracer), 1.0, {}, tracer.counts)
    assert set(values) == set(units)


def test_benchmark_names_are_well_formed():
    for kind in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in BENCHMARK[kind]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
