"""PCAP decoding, flow assembly and the feature oracle."""

import random
import re
import socket
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import (
    MAGIC_NS,
    arp_frame,
    ethernet_ipv4_tcp,
    ethernet_ipv4_udp,
    pcap_bytes,
)
from tests.flowmeter_check import packet_rows
from wsdetect.flowmeter import (
    CONTINUOUS_NAMES,
    CSV_COLUMNS,
    Packets,
    PcapError,
    CsvFormatError,
    assemble_flows,
    feature_table,
    label_to_class,
    read_csv,
    read_pcap,
    write_csv,
    write_jsonl,
)
from wsdetect.flowmeter.pcapfile import ACK, FIN, PSH, RST, SYN, URG


def _addr(dotted: str) -> int:
    return int.from_bytes(socket.inet_aton(dotted), "big")


def _pkt(ts_us, src="10.0.0.1", sport=4444, dst="10.0.0.2", dport=80,
         payload=100, flags=ACK, window=8192, proto=6,
         ip_hdr=20, l4_hdr=20):
    """One packet row, in `Packets` field order."""
    return (ts_us, _addr(src), _addr(dst), sport, dport, proto, ip_hdr,
            l4_hdr, payload, flags, window)


_DTYPES = (np.int64, np.uint32, np.uint32, *[np.int64] * 6, np.uint8, np.int64)


def _table(rows) -> Packets:
    """A packet table of `_pkt` rows."""
    columns = list(zip(*rows)) if rows else [()] * len(_DTYPES)
    return Packets(*(np.array(c, dtype) for c, dtype in zip(columns, _DTYPES)))


def _flows(rows, **kwargs):
    return assemble_flows(_table(rows), **kwargs)


def _features(flow) -> dict[str, float]:
    """One flow's continuous values after Timestamp, by column name."""
    values = feature_table([flow]).continuous[0, 1:].tolist()
    return dict(zip(CONTINUOUS_NAMES[1:], values))


class TestReadPcap:
    def test_three_packets_in_order(self, three_packet_pcap):
        result = read_pcap(three_packet_pcap)
        assert len(result.packets) == 3
        assert result.skipped == 0
        assert result.packets.ts.tolist() == [0, 500_000, 1_000_000]
        assert packet_rows(result.packets)[0] == _pkt(0, payload=100, flags=ACK)

    def test_header_only_capture(self, tmp_path):
        path = tmp_path / "empty.pcap"
        path.write_bytes(pcap_bytes([]))
        result = read_pcap(path)
        assert len(result.packets) == 0 and result.skipped == 0

    def test_arp_frame_skipped_and_counted(self, tmp_path):
        path = tmp_path / "arp.pcap"
        path.write_bytes(pcap_bytes([(0, arp_frame())]))
        result = read_pcap(path)
        assert len(result.packets) == 0
        assert result.skipped == 1

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 32)
        with pytest.raises(PcapError, match="magic"):
            read_pcap(path)

    def test_truncated_record_reports_offset(self, tmp_path):
        good = pcap_bytes([(0, ethernet_ipv4_tcp("1.1.1.1", 1, "2.2.2.2", 2, 10))])
        path = tmp_path / "trunc.pcap"
        path.write_bytes(good[:-5])
        with pytest.raises(PcapError, match="offset"):
            read_pcap(path)

    def test_big_endian_capture(self, tmp_path):
        frames = [(123_456, ethernet_ipv4_tcp("1.1.1.1", 1, "2.2.2.2", 2, 10))]
        path = tmp_path / "be.pcap"
        path.write_bytes(pcap_bytes(frames, big_endian=True))
        result = read_pcap(path)
        assert result.packets.ts.tolist() == [123_456]

    def test_nanosecond_capture(self, tmp_path):
        frames = [(123_456, ethernet_ipv4_tcp("1.1.1.1", 1, "2.2.2.2", 2, 10))]
        path = tmp_path / "ns.pcap"
        path.write_bytes(pcap_bytes(frames, magic=MAGIC_NS))
        result = read_pcap(path)
        assert result.packets.ts.tolist() == [123_456]

    def test_vlan_tagged_frame(self, tmp_path):
        frames = [(0, ethernet_ipv4_tcp("1.1.1.1", 1, "2.2.2.2", 2, 7, vlan=True))]
        path = tmp_path / "vlan.pcap"
        path.write_bytes(pcap_bytes(frames))
        result = read_pcap(path)
        assert result.packets.payload.tolist() == [7]

    def test_udp_packet(self, tmp_path):
        frames = [(0, ethernet_ipv4_udp("3.3.3.3", 53, "4.4.4.4", 5353, 24))]
        path = tmp_path / "udp.pcap"
        path.write_bytes(pcap_bytes(frames))
        packets = read_pcap(path).packets
        assert packet_rows(packets) == [_pkt(0, "3.3.3.3", 53, "4.4.4.4", 5353,
                                             payload=24, flags=0, window=0,
                                             proto=17, l4_hdr=8)]

    def test_non_first_fragment_is_no_flow(self, tmp_path):
        # offset 185 (x 8 bytes): 36 bytes that look like a TCP header
        # and 16 payload bytes, but belong to the middle of a datagram
        frame = ethernet_ipv4_tcp("10.9.9.9", 31337, "10.0.0.2", 22, 16, frag=185)
        path = tmp_path / "frag.pcap"
        path.write_bytes(pcap_bytes([(0, frame)]))
        result = read_pcap(path)
        assert assemble_flows(result.packets) == []  # no phantom 31337 -> 22 flow
        assert (len(result.packets), result.skipped, result.fragments) == (0, 0, 1)


def _read_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.pcap"
        path.write_bytes(data)
        return read_pcap(path)


_ADDRESSES = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda octets: ".".join(map(str, octets)))
_PORT = st.integers(0, 65535)


class TestDecodeLayouts:
    """Frames from the conftest builders, decoded field by field."""

    @given(udp=st.booleans(), vlan=st.booleans(), ihl=st.integers(5, 15),
           data_offset=st.integers(5, 15), flags=st.integers(0, 255),
           window=_PORT, sport=_PORT, dport=_PORT, src=_ADDRESSES,
           dst=_ADDRESSES, payload=st.integers(0, 40),
           frag=st.sampled_from([0, 0, 0x4000, 0x2000, 185, 0x1FFF]))
    @settings(max_examples=100, deadline=None)
    def test_fields_equal_builder_inputs_at_every_cut(
            self, udp, vlan, ihl, data_offset, flags, window, sport, dport,
            src, dst, payload, frag):
        if udp:
            frame = ethernet_ipv4_udp(src, sport, dst, dport, payload,
                                      vlan=vlan, ihl=ihl, frag=frag)
            l4_header, fixed_l4 = 8, 8
            flags = window = 0
        else:
            frame = ethernet_ipv4_tcp(src, sport, dst, dport, payload,
                                      flags=flags, window=window, vlan=vlan,
                                      ihl=ihl, data_offset=data_offset,
                                      frag=frag)
            # TCP options are skipped by length, so they need not be captured
            l4_header, fixed_l4 = 4 * data_offset, 20
        l4_start = 14 + 4 * vlan + 4 * ihl
        # one record per cut length, timestamped with that length
        result = _read_bytes(pcap_bytes(
            [(cut, frame[:cut]) for cut in range(len(frame) + 1)]))
        decodable = list(range(l4_start + fixed_l4, len(frame) + 1))
        for cut in range(decodable[0]):  # a cut frame ends the capture
            tail = _read_bytes(pcap_bytes([(0, frame[:cut])]))
            assert len(tail.packets) == 0 and tail.skipped + tail.fragments == 1
        if frag & 0x3FFF:
            assert (len(result.packets), result.skipped) == (0, l4_start)
            assert result.fragments == len(frame) + 1 - l4_start
            return
        assert (result.skipped, result.fragments) == (len(frame) + 1 - len(decodable), 0)
        assert result.packets.ts.tolist() == decodable
        assert packet_rows(result.packets) == [
            _pkt(cut, src, sport, dst, dport, payload=payload, flags=flags,
                 window=window, proto=17 if udp else 6, ip_hdr=4 * ihl,
                 l4_hdr=l4_header) for cut in decodable]

    @given(vlan=st.booleans(), ihl=st.integers(5, 15),
           data_offset=st.integers(5, 15), payload=st.integers(0, 20))
    @settings(max_examples=20, deadline=None)
    def test_capture_cut_at_every_length_fails_typed(self, vlan, ihl,
                                                     data_offset, payload):
        frames = [(0, ethernet_ipv4_tcp("1.1.1.1", 1, "2.2.2.2", 2, payload,
                                        vlan=vlan, ihl=ihl,
                                        data_offset=data_offset)),
                  (1, ethernet_ipv4_udp("3.3.3.3", 3, "4.4.4.4", 4, payload))]
        data = pcap_bytes(frames)
        first_end = 24 + 16 + len(frames[0][1])
        for cut in range(len(data) + 1):
            try:
                result = _read_bytes(data[:cut])
            except PcapError:
                assert cut not in (24, first_end, len(data))
                continue
            assert cut in (24, first_end, len(data))
            assert len(result.packets) == [24, first_end, len(data)].index(cut)


class TestAssembleFlows:
    def test_bidirectional_grouping(self):
        packets = [
            _pkt(0),
            _pkt(100, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=4444),
            _pkt(200),
        ]
        flows = _flows(packets)
        assert len(flows) == 1
        flow = flows[0]
        v = _features(flow)
        assert (v["Tot Fwd Pkts"], v["Tot Bwd Pkts"]) == (2, 1)
        assert flow.src_ip == "10.0.0.1"  # first packet defines forward

    def test_flow_timeout_splits(self):
        packets = [_pkt(0), _pkt(200_000_000)]
        flows = _flows(packets, flow_timeout_us=120_000_000)
        assert len(flows) == 2

    @pytest.mark.parametrize("timeout", [0, -5_000_000])
    def test_a_timeout_below_one_microsecond_is_rejected(self, timeout):
        """It would split a flow at every packet: six packets 1 ms apart
        were six flows at 0."""
        packets = [_pkt(1000 * i) for i in range(6)]
        with pytest.raises(ValueError, match="flow timeout must be positive"):
            _flows(packets, flow_timeout_us=timeout)
        with pytest.raises(ValueError, match="flow timeout must be positive"):
            _flows([], flow_timeout_us=timeout)

    def test_within_timeout_single_flow(self):
        packets = [_pkt(0), _pkt(100_000_000)]
        assert len(_flows(packets, flow_timeout_us=120_000_000)) == 1

    def test_fin_terminates(self):
        packets = [
            _pkt(0),
            _pkt(1000, flags=ACK | FIN),
            _pkt(2000),
        ]
        flows = _flows(packets)
        assert [flow.stop - flow.start for flow in flows] == [2, 1]

    def test_rst_terminates(self):
        packets = [_pkt(0, flags=RST), _pkt(1000)]
        assert len(_flows(packets)) == 2

    def test_single_packet_flow(self):
        flows = _flows([_pkt(42)])
        assert [flow.stop - flow.start for flow in flows] == [1]
        assert _features(flows[0])["Flow Duration"] == 0

    def test_deterministic_order(self):
        packets = [
            _pkt(500, src="9.9.9.9", sport=1, dst="8.8.8.8", dport=2),
            _pkt(0),
            _pkt(100, src="7.7.7.7", sport=3, dst="6.6.6.6", dport=4),
        ]
        flows = _flows(packets)
        assert [f.first_ts for f in flows] == [0, 100, 500]


class TestComputeFeatures:
    def test_hand_computed_oracle(self):
        flow = _flows([
            _pkt(0, payload=100),
            _pkt(500_000, src="10.0.0.2", sport=80, dst="10.0.0.1",
                 dport=4444, payload=60),
            _pkt(1_000_000, payload=200),
        ])[0]
        v = _features(flow)
        assert v["Tot Fwd Pkts"] == 2
        assert v["Tot Bwd Pkts"] == 1
        assert v["TotLen Fwd Pkts"] == 300
        assert v["Flow Duration"] == 1_000_000
        assert v["Flow IAT Mean"] == 500_000
        assert v["Fwd Pkt Len Mean"] == 150
        assert v["Fwd Pkt Len Std"] == pytest.approx(70.7107, rel=1e-4)
        assert v["Flow Byts/s"] == pytest.approx(360.0, rel=1e-9)
        assert v["Flow Pkts/s"] == pytest.approx(3.0, rel=1e-9)
        assert v["Down/Up Ratio"] == 0.0

    def test_single_packet_degenerate(self):
        v = _features(_flows([_pkt(1_000)])[0])
        assert v["Flow Duration"] == 0
        for name in ("Flow IAT Mean", "Flow IAT Std", "Flow IAT Max",
                     "Flow IAT Min", "Flow Byts/s", "Flow Pkts/s",
                     "Fwd Pkts/s", "Bwd Pkts/s"):
            assert v[name] == 0.0
        assert v["Fwd Pkt Len Std"] == 0.0
        assert all(value == value for value in v.values())  # no NaN

    def test_flag_counts(self):
        flow = _flows([
            _pkt(0, flags=SYN),
            _pkt(1000, flags=ACK | FIN),
        ])[0]
        v = _features(flow)
        assert v["SYN Flag Cnt"] == 1
        assert v["FIN Flag Cnt"] == 1
        assert v["ACK Flag Cnt"] == 1

    def test_psh_urg_per_direction(self):
        flow = _flows([
            _pkt(0, flags=PSH | ACK),
            _pkt(10, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=4444,
                 flags=URG),
        ])[0]
        v = _features(flow)
        assert v["Fwd PSH Flags"] == 1
        assert v["Bwd PSH Flags"] == 0
        assert v["Bwd URG Flags"] == 1

    def test_header_lengths(self):
        flow = _flows([_pkt(0), _pkt(10)])[0]
        v = _features(flow)
        assert v["Fwd Header Len"] == 80  # 2 * (20 ip + 20 tcp)

    def test_init_window_bytes(self):
        flow = _flows([
            _pkt(0, window=1111),
            _pkt(10, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=4444,
                 window=2222),
        ])[0]
        v = _features(flow)
        assert v["Init Fwd Win Byts"] == 1111
        assert v["Init Bwd Win Byts"] == 2222

    def test_no_bwd_packets_zeroes(self):
        flow = _flows([_pkt(0), _pkt(10)])[0]
        v = _features(flow)
        assert v["Init Bwd Win Byts"] == 0
        assert v["Bwd Pkt Len Mean"] == 0
        assert v["Down/Up Ratio"] == 0

    def test_bulk_detection(self):
        # five fwd payload packets 10ms apart: one bulk of 5 packets
        packets = [_pkt(i * 10_000, payload=50) for i in range(5)]
        flow = _flows(packets)[0]
        v = _features(flow)
        assert v["Fwd Pkts/b Avg"] == 5
        assert v["Fwd Byts/b Avg"] == 250
        assert v["Fwd Blk Rate Avg"] == pytest.approx(250 / 0.04, rel=1e-9)
        assert v["Bwd Byts/b Avg"] == 0

    def test_bulk_needs_four_packets(self):
        packets = [_pkt(i * 10_000, payload=50) for i in range(3)]
        v = _features(_flows(packets)[0])
        assert v["Fwd Byts/b Avg"] == 0

    def test_bulk_broken_by_direction_change(self):
        packets = [
            _pkt(0, payload=50), _pkt(10_000, payload=50),
            _pkt(20_000, src="10.0.0.2", sport=80, dst="10.0.0.1",
                 dport=4444, payload=10),
            _pkt(30_000, payload=50), _pkt(40_000, payload=50),
        ]
        v = _features(_flows(packets)[0])
        assert v["Fwd Byts/b Avg"] == 0  # runs of 2 and 2, never 4

    def test_subflow_counts(self):
        # gap of 2 s > 1 s splits into 2 subflows
        packets = [_pkt(0, payload=40), _pkt(100_000, payload=40),
                   _pkt(2_200_000, payload=40), _pkt(2_300_000, payload=40)]
        v = _features(_flows(packets)[0])
        assert v["Subflow Fwd Pkts"] == 2.0  # 4 packets / 2 subflows
        assert v["Subflow Fwd Byts"] == 80.0

    def test_active_idle_split(self):
        # 6 s gap with 5 s activity timeout: two active segments + one idle
        packets = [_pkt(0), _pkt(1_000_000), _pkt(7_000_000), _pkt(7_500_000)]
        v = _features(_flows(packets)[0])
        assert v["Idle Mean"] == 6_000_000
        assert v["Active Mean"] == pytest.approx((1_000_000 + 500_000) / 2)
        assert v["Active Max"] == 1_000_000
        assert v["Active Min"] == 500_000

    def test_fwd_act_data_and_seg_size_min(self):
        flow = _flows([
            _pkt(0, payload=0), _pkt(10, payload=33, l4_hdr=32),
        ])[0]
        v = _features(flow)
        assert v["Fwd Act Data Pkts"] == 1
        assert v["Fwd Seg Size Min"] == 20

    def test_direction_symmetry(self):
        fwd_first = [
            _pkt(0, payload=10),
            _pkt(1000, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=4444,
                 payload=20),
        ]
        bwd_first = [
            _pkt(0, src="10.0.0.2", sport=80, dst="10.0.0.1", dport=4444,
                 payload=20),
            _pkt(1000, payload=10),
        ]
        a = _features(_flows(fwd_first)[0])
        b = _features(_flows(bwd_first)[0])
        for name in ("Flow Duration", "Flow Byts/s", "Flow Pkts/s",
                     "Pkt Len Mean", "Pkt Len Std", "Pkt Len Min",
                     "Pkt Len Max"):
            assert a[name] == pytest.approx(b[name]), name
        # the directional families swap endpoints, so totals swap
        assert a["TotLen Fwd Pkts"] == 10 and b["TotLen Fwd Pkts"] == 20

    def test_stat_family_invariants_random_flows(self):
        rng = random.Random(9)
        for _ in range(30):
            packets = []
            t = 0
            for _ in range(rng.randint(1, 20)):
                t += rng.randint(1, 2_000_000)
                direction = rng.random() < 0.5
                packets.append(_pkt(
                    t,
                    src="10.0.0.1" if direction else "10.0.0.2",
                    sport=4444 if direction else 80,
                    dst="10.0.0.2" if direction else "10.0.0.1",
                    dport=80 if direction else 4444,
                    payload=rng.randint(0, 1400)))
            for flow in _flows(packets):
                v = _features(flow)
                for prefix in ("Fwd Pkt Len", "Bwd Pkt Len", "Flow IAT",
                               "Fwd IAT", "Bwd IAT", "Active", "Idle"):
                    lo = v.get(f"{prefix} Min", 0.0)
                    hi = v.get(f"{prefix} Max", 0.0)
                    mean = v.get(f"{prefix} Mean", 0.0)
                    assert lo <= mean + 1e-9 and mean <= hi + 1e-9, prefix
                assert v["Pkt Len Var"] == pytest.approx(
                    v["Pkt Len Std"] ** 2, rel=1e-6, abs=1e-9)
                assert all(value == value and abs(value) != float("inf")
                           for value in v.values())

    def test_purity(self):
        flow = _flows([_pkt(0), _pkt(500)])[0]
        assert _features(flow) == _features(flow)

    def test_concatenated_pcaps_equal_merged_assembly(self):
        part1 = [_pkt(0), _pkt(1000)]
        part2 = [_pkt(300_000_000, src="9.9.9.9", sport=5, dst="8.8.8.8",
                      dport=6)]
        merged = _flows(part1 + part2, flow_timeout_us=120_000_000)
        separate = (_flows(part1, flow_timeout_us=120_000_000)
                    + _flows(part2, flow_timeout_us=120_000_000))
        assert len(merged) == len(separate)
        merged_keys = [(f.flow_id, f.stop - f.start) for f in merged]
        separate_keys = sorted((f.flow_id, f.stop - f.start) for f in separate)
        assert sorted(merged_keys) == separate_keys


class TestModelInputs:
    def test_shapes(self):
        table = feature_table(_flows([_pkt(0), _pkt(1000)]))
        assert table.categoricals.tolist() == [[80, 6]]
        assert table.continuous.shape == (1, 77)

    def test_timestamp_in_seconds(self):
        table = feature_table(_flows([_pkt(2_500_000)]))
        assert table.continuous[0, 0] == pytest.approx(2.5)

    def test_src_ip_never_used(self):
        a = feature_table(_flows([
            _pkt(0), _pkt(1000)]))
        b = feature_table(_flows([
            _pkt(0, src="99.99.99.99"), _pkt(1000, src="99.99.99.99")]))
        assert a.categoricals.tolist() == b.categoricals.tolist()
        assert a.continuous.tolist() == b.continuous.tolist()

    def test_label_mapping(self):
        assert label_to_class("Benign") == 0
        assert label_to_class("benign") == 0
        assert label_to_class("Bot") == 1
        assert label_to_class("Webshell") == 1
        with pytest.raises(ValueError):
            label_to_class("  ")


class TestCsvRoundTrip:
    def _flow_table(self, n=10):
        rng = random.Random(3)
        packets = [
            _pkt(i * 10_000_000 + j * 1000, sport=1000 + i,
                 payload=rng.randint(0, 500))
            for i in range(n) for j in range(rng.randint(1, 6))]
        table = feature_table(_flows(packets))
        table.labels = ["Benign" if i % 2 else "Webshell" for i in range(n)]
        return table

    def test_roundtrip_within_tolerance(self, tmp_path):
        table = self._flow_table()
        path = tmp_path / "features.csv"
        write_csv(table, path)
        loaded, cleaned_cells = read_csv(path)
        assert cleaned_cells == 0
        assert len(loaded.flow_id) == len(table.flow_id) == 10
        assert loaded.labels == table.labels
        assert loaded.categoricals.tolist() == table.categoricals.tolist()
        for name, parsed, original in zip(
                CONTINUOUS_NAMES[1:], loaded.continuous.T[1:], table.continuous.T[1:]):
            assert parsed == pytest.approx(original, rel=1e-6, abs=1e-6), name

    def test_header_is_exactly_the_83_columns(self, tmp_path):
        path = tmp_path / "features.csv"
        write_csv(self._flow_table(2), path)
        header = path.read_text().splitlines()[0].split(",")
        assert tuple(header) == CSV_COLUMNS
        assert len(header) == 83

    def test_public_dataset_layout(self, tmp_path):
        # CSE-CIC-IDS2018 style: 80 columns, no identification fields,
        # wall-clock timestamps, Bot labels
        header = ["Dst Port", "Protocol", "Timestamp", *CONTINUOUS_NAMES[1:],
                  "Label"]
        row = ["8080", "6", "02/03/2018 08:47:38"]
        row += ["1" for _ in CONTINUOUS_NAMES[1:]]
        row += ["Bot"]
        path = tmp_path / "public.csv"
        path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
        loaded, _ = read_csv(path)
        assert loaded.categoricals[0, 0] == 8080
        assert label_to_class(loaded.labels[0]) == 1
        assert loaded.continuous[0, 0] == 1519980458.0  # 2018-03-02T08:47:38Z

    def test_infinity_and_nan_cleaned(self, tmp_path):
        header = ["Dst Port", "Protocol", "Timestamp", *CONTINUOUS_NAMES[1:],
                  "Label"]
        row = ["80", "6", "1000.0"]
        filler = ["2" for _ in CONTINUOUS_NAMES[1:]]
        filler[0] = "Infinity"
        filler[1] = "NaN"
        row += filler + ["Benign"]
        path = tmp_path / "dirty.csv"
        path.write_text(",".join(header) + "\n" + ",".join(row) + "\n")
        loaded, cleaned_cells = read_csv(path)
        assert cleaned_cells == 2
        assert loaded.continuous[0, 1] == 0.0
        assert loaded.continuous[0, 2] == 0.0

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("Dst Port,Protocol\n80,6\n")
        with pytest.raises(Exception, match="Flow Duration"):
            read_csv(path)

    def test_unknown_column_named(self, tmp_path):
        header = ["Dst Port", "Protocol", "Timestamp", *CONTINUOUS_NAMES[1:],
                  "Label", "Bogus Col"]
        path = tmp_path / "extra.csv"
        path.write_text(",".join(header) + "\n")
        with pytest.raises(Exception, match="Bogus Col"):
            read_csv(path)

    def test_jsonl_mirrors_names(self, tmp_path):
        import json

        path = tmp_path / "features.jsonl"
        write_jsonl(self._flow_table(2), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        obj = json.loads(lines[0])
        assert set(obj) == set(CSV_COLUMNS)


def _row(**cells) -> list[str]:
    """A valid row of the 83-column layout, with `cells` by column name."""
    row = dict(zip(CSV_COLUMNS, ["f", "1.2.3.4", "1", "80", "6", "1000.5",
                                 *["1"] * 76, "Benign"]))
    row.update(cells)
    return list(row.values())


def _write(path, *rows) -> Path:
    """`rows` under the 83-column header, one line each."""
    path.write_text("\n".join(",".join(row) for row in [CSV_COLUMNS, *rows]) + "\n")
    return path


def _raises(path, message: str):
    """Expect a `CsvFormatError` that starts by naming `path`."""
    return pytest.raises(CsvFormatError, match=re.escape(f"{path}: {message}"))


class TestCsvErrors:
    """Each odd row or file is a `CsvFormatError` naming its path and line."""

    def test_short_row(self, tmp_path):
        path = _write(tmp_path / "short.csv", _row(), _row()[:5])
        with _raises(path, "line 3: 5 cells, the header has 83"):
            read_csv(path)

    def test_long_row(self, tmp_path):
        path = _write(tmp_path / "long.csv", _row(), _row(), _row() + ["extra"])
        with _raises(path, "line 4: 84 cells"):
            read_csv(path)

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        _write(path, _row(), _row(**{"Flow ID": "café"}))
        path.write_bytes(path.read_bytes().replace("é".encode(), "é".encode("latin-1")))
        with pytest.raises(CsvFormatError, match=re.escape(f"{path}:3: not UTF-8 text")):
            read_csv(path)

    def test_utf8_text_is_read(self, tmp_path):
        path = _write(tmp_path / "utf8.csv", _row(**{"Flow ID": "café"}))
        assert read_csv(path)[0].flow_id == ["café"]

    @pytest.mark.parametrize("size, fails", [(131_072, False), (131_073, True)])
    def test_field_size_limit(self, tmp_path, size, fails):
        path = _write(tmp_path / "wide.csv", _row(), _row(**{"Flow ID": "x" * size}))
        if fails:
            with _raises(path, "line 3: field larger"):
                read_csv(path)
        else:
            assert len(read_csv(path)[0].flow_id[1]) == size

    def test_bad_value_names_line_and_column(self, tmp_path):
        path = _write(tmp_path / "bad.csv", _row(), _row(**{"Flow IAT Max": "12abc"}))
        with _raises(path, "line 3: bad value '12abc' in column 'Flow IAT Max'"):
            read_csv(path)

    @pytest.mark.parametrize("column, cell", [
        ("Dst Port", "1e23"), ("Dst Port", "-5"), ("Dst Port", "65536"),
        ("Dst Port", "inf"), ("Src Port", "70000"), ("Src Port", "-1"),
        ("Protocol", "256"), ("Protocol", "-1")])
    def test_integer_out_of_range(self, tmp_path, column, cell):
        path = _write(tmp_path / "range.csv", _row(), _row(**{column: cell}))
        with _raises(path, f"line 3: {column} {cell!r} is outside"):
            read_csv(path)

    def test_integers_at_their_limits(self, tmp_path):
        path = _write(tmp_path / "edge.csv",
                      _row(**{"Src Port": "0", "Dst Port": "65535", "Protocol": "255"}),
                      _row(**{"Src Port": "65535", "Dst Port": "0", "Protocol": "0"}))
        table, _ = read_csv(path)
        assert table.src_port.tolist() == [0, 65535]
        assert table.categoricals.tolist() == [[65535, 255], [0, 0]]

    def test_empty_label_when_labelled(self, tmp_path):
        path = _write(tmp_path / "unlabelled.csv", _row(), _row(Label=" "))
        assert read_csv(path)[0].labels == ["Benign", ""]
        with _raises(path, "line 3: empty Label"):
            read_csv(path, labelled=True)

    def test_label_column_required_when_labelled(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text(",".join(CSV_COLUMNS[:-1]) + "\n"
                        + ",".join(_row()[:-1]) + "\n")
        assert len(read_csv(path)[0].labels) == 1
        with pytest.raises(CsvFormatError, match="missing required column.*Label"):
            read_csv(path, labelled=True)

    @pytest.mark.parametrize("cell", ["Infinity", "-inf", "NaN", "", "1e400", "yesterday"])
    def test_unreadable_timestamp_cleaned(self, tmp_path, cell):
        path = _write(tmp_path / "ts.csv", _row(Timestamp=cell))
        table, cleaned_cells = read_csv(path)
        assert (table.continuous[0, 0], cleaned_cells) == (0.0, 1)
