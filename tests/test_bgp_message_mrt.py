"""Tests for the BGP UPDATE wire codec, RIBs, and the MRT reader/writer."""

from __future__ import annotations

import io
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.aspath import ASPath
from repro.bgp.attributes import Origin, PathAttributes
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.message import BgpUpdate, decode_update, encode_update
from repro.bgp.prefix import Prefix
from repro.bgp.rib import AdjRibIn, LocRib, RibSnapshot
from repro.bgp.route import Announcement, RouteEntry
from repro.exceptions import AttributeError_, MessageError, MrtError, MrtTruncatedError
from repro.mrt.entries import Bgp4mpMessage, PeerEntry, PeerIndexTable, RibEntry, RibPrefixRecord
from repro.mrt.reader import MrtReader, iter_raw_records, read_records, read_stream
from repro.mrt.writer import (
    MrtWriter,
    encode_bgp4mp_message,
    encode_peer_index_table,
    encode_rib_prefix_record,
)


def make_attributes(**overrides) -> PathAttributes:
    base = dict(
        as_path=ASPath.of(3356, 1299, 13335),
        origin=Origin.IGP,
        next_hop=0xC0000201,
        med=10,
        local_pref=150,
        communities=CommunitySet.of("3356:100", "1299:666", "65535:666"),
        large_communities=(LargeCommunity(3356, 1, 2),),
    )
    base.update(overrides)
    return PathAttributes(**base)


class TestPathAttributes:
    def test_effective_local_pref_default(self):
        assert PathAttributes().effective_local_pref() == 100
        assert PathAttributes(local_pref=50).effective_local_pref() == 50

    def test_replace_is_pure(self):
        attrs = make_attributes()
        changed = attrs.replace(local_pref=10)
        assert attrs.local_pref == 150
        assert changed.local_pref == 10

    def test_community_helpers(self):
        attrs = PathAttributes(communities=CommunitySet.of("1:1"))
        assert Community(2, 2) in attrs.with_communities_added(["2:2"]).communities
        assert len(attrs.without_communities().communities) == 0
        assert len(attrs.with_communities_set(["9:9"]).communities) == 1

    def test_prepend_helper(self):
        attrs = PathAttributes(as_path=ASPath.of(2, 1)).with_prepend(9, 2)
        assert attrs.as_path.asns() == [9, 9, 2, 1]
        assert attrs.path_length() == 4

    def test_med_validation(self):
        with pytest.raises(AttributeError_):
            PathAttributes(med=-1)

    def test_local_pref_validation(self):
        with pytest.raises(AttributeError_):
            PathAttributes(local_pref=1 << 33)


class TestUpdateCodec:
    def test_roundtrip_full(self):
        update = BgpUpdate(
            announced=[Prefix.from_string("192.0.2.0/24"), Prefix.from_string("10.0.0.0/8")],
            withdrawn=[Prefix.from_string("198.51.100.0/24")],
            attributes=make_attributes(),
        )
        decoded = decode_update(encode_update(update))
        assert decoded.announced == update.announced
        assert decoded.withdrawn == update.withdrawn
        assert decoded.attributes.as_path == update.attributes.as_path
        assert decoded.attributes.communities == update.attributes.communities
        assert decoded.attributes.large_communities == update.attributes.large_communities
        assert decoded.attributes.med == 10
        assert decoded.attributes.local_pref == 150
        assert decoded.attributes.origin == Origin.IGP

    def test_withdrawal_only(self):
        update = BgpUpdate(withdrawn=[Prefix.from_string("192.0.2.0/24")])
        decoded = decode_update(encode_update(update))
        assert decoded.is_withdrawal_only()
        assert not decoded.announced

    def test_decode_rejects_bad_marker(self):
        data = bytearray(encode_update(BgpUpdate(announced=[Prefix.from_string("10.0.0.0/8")],
                                                 attributes=make_attributes())))
        data[0] = 0x00
        with pytest.raises(MessageError):
            decode_update(bytes(data))

    def test_decode_rejects_truncation(self):
        data = encode_update(
            BgpUpdate(announced=[Prefix.from_string("10.0.0.0/8")], attributes=make_attributes())
        )
        with pytest.raises(MessageError):
            decode_update(data[:-3])

    def test_decode_rejects_wrong_length_header(self):
        data = bytearray(
            encode_update(
                BgpUpdate(announced=[Prefix.from_string("10.0.0.0/8")], attributes=make_attributes())
            )
        )
        data[16] = 0xFF  # corrupt the length field
        with pytest.raises(MessageError):
            decode_update(bytes(data))

    def test_unknown_attribute_roundtrip(self):
        update = BgpUpdate(
            announced=[Prefix.from_string("192.0.2.0/24")],
            attributes=make_attributes(),
            unknown_attributes=[(99, 0xC0, b"\x01\x02")],
        )
        decoded = decode_update(encode_update(update))
        assert decoded.unknown_attributes == [(99, 0xC0, b"\x01\x02")]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, (1 << 32) - 1), st.integers(8, 32)), min_size=1, max_size=5
        ),
        st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=10),
        st.lists(st.integers(1, 0xFFFFFFFF), min_size=1, max_size=6),
    )
    def test_roundtrip_property(self, prefixes, communities, path):
        update = BgpUpdate(
            announced=[Prefix.ipv4(n & (0xFFFFFFFF << (32 - l)), l) for n, l in prefixes],
            attributes=PathAttributes(
                as_path=ASPath.of(*path),
                communities=CommunitySet(Community(a, v) for a, v in communities),
                next_hop=0x0A000001,
            ),
        )
        decoded = decode_update(encode_update(update))
        assert set(decoded.announced) == set(update.announced)
        assert decoded.attributes.communities == update.attributes.communities
        assert decoded.attributes.as_path == update.attributes.as_path


class TestRibs:
    def make_entry(self, prefix: str, learned_from: int = 10, **kwargs) -> RouteEntry:
        return RouteEntry(
            prefix=Prefix.from_string(prefix),
            attributes=make_attributes(),
            learned_from=learned_from,
            **kwargs,
        )

    def test_adj_rib_in_update_and_withdraw(self):
        rib = AdjRibIn(10)
        entry = self.make_entry("10.0.0.0/8")
        rib.update(entry)
        assert len(rib) == 1
        assert rib.get(entry.prefix) is entry
        assert rib.withdraw(entry.prefix) is entry
        assert rib.withdraw(entry.prefix) is None
        assert len(rib) == 0

    def test_loc_rib_best_and_lookup(self):
        rib = LocRib()
        short = self.make_entry("10.0.0.0/8")
        long = self.make_entry("10.1.0.0/16", learned_from=20)
        rib.set_best(short.prefix, short)
        rib.set_best(long.prefix, long)
        hit = rib.lookup(Prefix.from_string("10.1.2.0/24").network)
        assert hit is not None and hit.prefix == long.prefix
        miss = rib.lookup(Prefix.from_string("11.0.0.0/8").network)
        assert miss is None

    def test_loc_rib_clear_best(self):
        rib = LocRib()
        entry = self.make_entry("10.0.0.0/8")
        rib.set_best(entry.prefix, entry)
        rib.set_best(entry.prefix, None)
        assert entry.prefix not in rib

    def test_snapshot_covering(self):
        rib = LocRib()
        entry = self.make_entry("10.0.0.0/8")
        rib.set_best(entry.prefix, entry)
        snapshot = RibSnapshot.from_loc_rib(99, rib)
        assert len(snapshot) == 1
        assert snapshot.covering(Prefix.from_string("10.9.0.0/16"))
        assert snapshot.get(Prefix.from_string("10.0.0.0/8")) is not None

    def test_announcement_helpers(self):
        announcement = Announcement(
            prefix=Prefix.from_string("10.0.0.0/8"),
            attributes=make_attributes(),
            sender_asn=1,
            origin_asn=13335,
        )
        more_specific = announcement.replace(prefix=Prefix.from_string("10.1.0.0/16"))
        assert more_specific.is_more_specific_of(announcement)
        assert not announcement.is_more_specific_of(more_specific)
        assert announcement.communities == announcement.attributes.communities


class TestMrt:
    def make_message(self, timestamp: int = 1522540800) -> Bgp4mpMessage:
        update = BgpUpdate(
            announced=[Prefix.from_string("192.0.2.0/24")], attributes=make_attributes()
        )
        return Bgp4mpMessage(
            timestamp=timestamp,
            peer_asn=3356,
            local_asn=65000,
            peer_ip=0x0A000001,
            local_ip=0x0A000002,
            interface_index=0,
            address_family=1,
            update=update,
        )

    def test_bgp4mp_roundtrip(self):
        message = self.make_message()
        records = list(MrtReader(encode_bgp4mp_message(message)))
        assert len(records) == 1
        decoded = records[0]
        assert isinstance(decoded, Bgp4mpMessage)
        assert decoded.peer_asn == 3356
        assert decoded.local_asn == 65000
        assert decoded.update.announced == message.update.announced
        assert decoded.update.attributes.communities == message.update.attributes.communities

    def test_writer_and_stream_reader(self):
        stream = io.BytesIO()
        writer = MrtWriter(stream)
        for i in range(5):
            writer.write_message(self.make_message(timestamp=1522540800 + i))
        assert writer.records_written == 5
        stream.seek(0)
        decoded = read_stream(stream)
        assert len(decoded) == 5
        assert all(isinstance(m, Bgp4mpMessage) for m in decoded)
        assert [m.timestamp for m in decoded] == [1522540800 + i for i in range(5)]

    def test_peer_index_table_roundtrip(self):
        table = PeerIndexTable(
            collector_bgp_id=0x0A0A0A0A,
            view_name="rrc00",
            peers=(
                PeerEntry(bgp_id=1, peer_ip=0x0A000001, peer_asn=3356),
                PeerEntry(bgp_id=2, peer_ip=0x20010DB8 << 96, peer_asn=1299, ipv6=True),
            ),
        )
        records = list(MrtReader(encode_peer_index_table(table)))
        decoded = records[0]
        assert isinstance(decoded, PeerIndexTable)
        assert decoded.view_name == "rrc00"
        assert decoded.peers[0].peer_asn == 3356
        assert decoded.peers[1].ipv6
        assert decoded.peers[1].peer_asn == 1299

    def test_rib_record_roundtrip(self):
        record = RibPrefixRecord(
            sequence=7,
            prefix=Prefix.from_string("203.0.113.0/24"),
            entries=(
                RibEntry(peer_index=0, originated_time=1522540800, attributes=make_attributes()),
                RibEntry(
                    peer_index=1,
                    originated_time=1522540900,
                    attributes=make_attributes(local_pref=None, med=None),
                ),
            ),
        )
        decoded = list(MrtReader(encode_rib_prefix_record(record)))[0]
        assert isinstance(decoded, RibPrefixRecord)
        assert decoded.sequence == 7
        assert decoded.prefix == record.prefix
        assert len(decoded.entries) == 2
        assert decoded.entries[0].attributes.communities == record.entries[0].attributes.communities

    def test_truncated_stream_raises(self):
        data = encode_bgp4mp_message(self.make_message())
        with pytest.raises(MrtTruncatedError):
            list(iter_raw_records(data[:-5]))

    def _written_file(self, tmp_path) -> tuple[Path, list[int]]:
        """Five records of different sizes in one file, plus each header's offset."""
        path = tmp_path / "updates.mrt"
        with open(path, "wb") as handle:
            writer = MrtWriter(handle)
            for i in range(5):
                message = self.make_message(timestamp=1522540800 + i)
                communities = CommunitySet.of(*(f"3356:{c}" for c in range(i + 1)))
                message.update.attributes = make_attributes(communities=communities)
                writer.write_message(message)
        data = path.read_bytes()
        offsets, offset = [], 0
        while offset < len(data):
            offsets.append(offset)
            offset += 12 + struct.unpack("!I", data[offset + 8:offset + 12])[0]
        assert len(offsets) == 5 and len(set(offsets[i + 1] - offsets[i] for i in range(4))) > 1
        return path, offsets

    def test_truncation_after_a_header_names_record_and_offset(self, tmp_path):
        path, offsets = self._written_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: offsets[3] + 12])
        with pytest.raises(
            MrtTruncatedError,
            match=rf"^record 3 at offset {offsets[3]}: truncated MRT record payload$",
        ):
            read_records(path)

    def test_truncation_mid_payload_names_record_and_offset(self, tmp_path):
        path, offsets = self._written_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: (offsets[2] + offsets[3]) // 2 + 6])
        with pytest.raises(
            MrtTruncatedError,
            match=rf"^record 2 at offset {offsets[2]}: truncated MRT record payload$",
        ):
            read_records(path)

    def test_truncation_mid_header_names_record_and_offset(self, tmp_path):
        path, offsets = self._written_file(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: offsets[4] + 5])
        with pytest.raises(
            MrtTruncatedError,
            match=rf"^record 4 at offset {offsets[4]}: truncated MRT common header$",
        ):
            read_records(path)

    def test_reader_messages_filter(self):
        blob = encode_peer_index_table(
            PeerIndexTable(collector_bgp_id=1, view_name="v", peers=())
        ) + encode_bgp4mp_message(self.make_message())
        messages = list(MrtReader(blob).messages())
        assert len(messages) == 1

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "updates.mrt"
        from repro.mrt.writer import write_records

        count = write_records(path, [self.make_message(), self.make_message(1522541000)])
        assert count == 2
        decoded = list(MrtReader.from_file(path).messages())
        assert len(decoded) == 2

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 0xFFFFFFFF),
        st.integers(1, 0xFFFFFFFF),
        st.lists(st.tuples(st.integers(0, 0xFFFF), st.integers(0, 0xFFFF)), max_size=8),
    )
    def test_bgp4mp_roundtrip_property(self, timestamp, peer_asn, communities):
        update = BgpUpdate(
            announced=[Prefix.from_string("198.51.100.0/24")],
            attributes=PathAttributes(
                as_path=ASPath.of(peer_asn, 1),
                communities=CommunitySet(Community(a, v) for a, v in communities),
            ),
        )
        message = Bgp4mpMessage(
            timestamp=timestamp,
            peer_asn=peer_asn,
            local_asn=65000,
            peer_ip=1,
            local_ip=2,
            interface_index=0,
            address_family=1,
            update=update,
        )
        decoded = list(MrtReader(encode_bgp4mp_message(message)).messages())[0]
        assert decoded.timestamp == timestamp
        assert decoded.peer_asn == peer_asn
        assert decoded.update.attributes.communities == update.attributes.communities
