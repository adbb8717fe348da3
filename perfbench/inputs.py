"""Seeded input generators for the benchmark workloads.

Every input a workload hands to the program is built here from the
``--seed`` argument: the more-specific /24s of ``table-converge``, the
JSON-lines churn text of ``update-churn`` (with its hijacks) and the
vantage-point seed.  The program only ever sees the generated values.
Each generator draws from its own ``random.Random`` stream, seeded with
a string (hashed with SHA-512 by :mod:`random`, so the stream is the
same in every interpreter run).
"""

from __future__ import annotations

import json
import random

from repro.bgp.community import BLACKHOLE
from repro.bgp.prefix import AddressFamily, Prefix
from repro.experiments.spec import SCALE_PRESETS
from repro.policy.actions import ActionType
from repro.topology.asys import AsRole
from repro.topology.generator import TopologyGenerator, TopologyParameters
from repro.topology.topology import Topology

#: The topology every workload except ``blackhole-sweep`` runs on is the
#: ``small`` scale preset at the generator's default seed.  It is fixed so
#: that the benchmark seed varies the inputs, not the size of the Internet.
TOPOLOGY_SEED = 42

#: More-specific /24s given to each IPv4 origin, 0..MAX_EXTRA (174 prefixes
#: become 377).  The counts are a seeded permutation of a fixed multiset, so
#: every seed adds the same number of prefixes and the work per run stays
#: the same.
MAX_EXTRA = 4

#: One block of churn slots, shuffled per block: every seed gets the same
#: mix, and the stream walks a seeded permutation of the owned prefixes so
#: every prefix is touched equally often.
CHURN_BLOCK = (
    ("tagged", 17),
    ("plain", 13),
    ("withdraw", 10),
    ("burst", 7),
    ("hijack", 3),
)
#: Events in one burst on a single (origin, prefix) key.
BURST_LENGTH = (3, 5)


def small_topology() -> Topology:
    """The fixed ``small`` topology (seed 42) the workloads start from."""
    parameters = TopologyParameters(seed=TOPOLOGY_SEED, **SCALE_PRESETS["small"])
    return TopologyGenerator(parameters).generate()


def deaggregate(topology: Topology, seed: int) -> int:
    """Give each IPv4 origin 0..MAX_EXTRA seeded /24s inside its own /16s.

    Real tables carry many prefixes per origin with the same attributes;
    the generator alone gives under two.  Adds the prefixes to the
    topology in place and returns how many were added.
    """
    rng = random.Random(f"deaggregate:{seed}")
    origins = [
        asys
        for asys in sorted(topology, key=lambda a: a.asn)
        if asys.role != AsRole.IXP and any(p.family == AddressFamily.IPV4 for p in asys.prefixes)
    ]
    counts = [index % (MAX_EXTRA + 1) for index in range(len(origins))]
    rng.shuffle(counts)
    added = 0
    for asys, count in zip(origins, counts):
        blocks = [p for p in asys.prefixes if p.family == AddressFamily.IPV4 and p.length <= 16]
        chosen: set[Prefix] = set()
        while len(chosen) < count:
            block = rng.choice(blocks)
            chosen.add(block.subprefix(24, rng.randrange(1 << (24 - block.length))))
        for prefix in sorted(chosen):
            asys.add_prefix(prefix)
        added += len(chosen)
    return added


def _service_communities(topology: Topology) -> list[str]:
    """Prepend, local-pref and RTBH communities from every service catalog."""
    wanted = {ActionType.PREPEND, ActionType.LOCAL_PREF, ActionType.BLACKHOLE}
    communities = set()
    for asys in topology:
        if asys.services is None or asys.role == AsRole.IXP:
            continue
        for service in asys.services:
            if service.action_type in wanted and service.community != BLACKHOLE:
                communities.add(str(service.community))
    return sorted(communities)


def churn_lines(topology: Topology, seed: int, events: int) -> list[str]:
    """A seeded JSON-lines update stream of ``events`` records.

    The mix: re-announcements tagged with a service community (prepend,
    local-pref, RTBH) or ``BLACKHOLE``; untagged re-announcements;
    withdrawals; short bursts on one (origin, prefix) key, which the
    service coalesces; and a small share of hijacks, announcements of a
    prefix by an AS that does not own it.
    """
    rng = random.Random(f"churn:{seed}")
    owned = sorted(
        (asn, prefix) for prefix, asn in topology.originated_prefixes().items()
    )
    rng.shuffle(owned)
    asns = sorted(a.asn for a in topology if a.role != AsRole.IXP)
    tags = _service_communities(topology)
    lines: list[str] = []

    def record(origin: int, prefix: Prefix, kind: str) -> None:
        body: dict = {"origin": origin, "prefix": str(prefix)}
        if kind == "withdraw":
            body["withdraw"] = True
        elif kind == "tagged":
            body["communities"] = [
                str(BLACKHOLE) if rng.random() < 0.15 else rng.choice(tags)
            ]
        lines.append(json.dumps(body, sort_keys=True))

    block = [kind for kind, count in CHURN_BLOCK for _ in range(count)]
    slot = 0
    while len(lines) < events:
        rng.shuffle(block)
        for kind in block:
            origin, prefix = owned[slot % len(owned)]
            slot += 1
            if kind == "burst":
                for _ in range(rng.randint(*BURST_LENGTH)):
                    record(origin, prefix, rng.choice(("tagged", "plain", "withdraw")))
            elif kind == "hijack":
                attacker = rng.choice([asn for asn in asns if asn != origin])
                record(attacker, prefix, "plain")
            else:
                record(origin, prefix, kind)
    return lines[:events]
