"""Exact comparison of the flowmeter with its per-packet oracle
(`tests/flowmeter_oracle.py`), and the captures the tests build.

`tests/conftest.py` records every capture `pcap_bytes` returns in
`BUILT`; after each test, each capture not yet in `CHECKED` goes
through `assert_matches_oracle`. The state lives here, not in
conftest, because conftest is imported twice: by pytest, and as
`tests.conftest` by the test modules.
"""

from __future__ import annotations

import socket

import pytest

from tests import flowmeter_oracle as oracle
from tests.fio_oracle import continuous_vector
from wsdetect.flowmeter import (
    CONTINUOUS_NAMES,
    Packets,
    PcapError,
    assemble_flows,
    compute_features,
    feature_matrix,
    feature_table,
    read_pcap,
)
from wsdetect.flowmeter.flows import DEFAULT_FLOW_TIMEOUT_US

BUILT: list[bytes] = []
CHECKED: set[bytes] = set()


def packet_rows(packets: Packets) -> list[tuple]:
    """A packet table's rows as tuples, in `Packets` field order."""
    return list(zip(*(getattr(packets, name).tolist()
                      for name in Packets.__dataclass_fields__)))


def _oracle_row(packet: oracle.PacketMeta) -> tuple:
    def addr(dotted):
        return int.from_bytes(socket.inet_aton(dotted), "big")

    return (packet.timestamp_us, addr(packet.src_ip), addr(packet.dst_ip),
            packet.src_port, packet.dst_port, packet.protocol,
            packet.ip_header_length, packet.l4_header_length,
            packet.payload_length, packet.tcp_flags, packet.tcp_window)


def record_fields(record) -> tuple:
    """An oracle feature record's 83 CSV fields, Label last."""
    return (record.flow_id, record.src_ip, record.src_port, record.dst_port,
            record.protocol, record.timestamp_s,
            *(record.features[name] for name in CONTINUOUS_NAMES[1:]),
            record.label)


def table_fields(table) -> list[tuple]:
    """A flow table's rows as 83-field tuples, in `record_fields` order."""
    return [(flow_id, src_ip, src_port, *categoricals, *values, label)
            for flow_id, src_ip, src_port, categoricals, values, label in zip(
                table.flow_id, table.src_ip, table.src_port.tolist(),
                table.categoricals.tolist(), table.continuous.tolist(),
                table.labels)]


def assert_matches_oracle(path, flow_timeout_us=DEFAULT_FLOW_TIMEOUT_US,
                          every_flow=False):
    """Decode, group and featurize the capture at `path` with the package
    and with the per-packet oracle: the same `PcapError` text, or the
    same packets, skip and fragment counts, flows in the same order, and
    every one of the 83 fields equal by ==. `every_flow` also checks the
    one-flow `compute_features` path on each flow."""
    try:
        expected = oracle.read_pcap(path)
    except PcapError as exc:
        with pytest.raises(PcapError) as raised:
            read_pcap(path)
        assert str(raised.value) == str(exc)
        return
    capture = read_pcap(path)
    assert (capture.skipped, capture.fragments) == (expected.skipped, expected.fragments)
    assert packet_rows(capture.packets) == [_oracle_row(p) for p in expected.packets]
    flows = assemble_flows(capture.packets, flow_timeout_us)
    expected_flows = oracle.assemble_flows(expected.packets, flow_timeout_us)
    assert [(f.flow_id, f.stop - f.start) for f in flows] == \
        [(f.flow_id, len(f.packets)) for f in expected_flows]
    expected_records = [oracle.compute_features(f) for f in expected_flows]
    assert feature_matrix(flows).tolist() == \
        [continuous_vector(r) for r in expected_records]
    assert table_fields(feature_table(flows)) == \
        [record_fields(r) for r in expected_records]
    if every_flow:
        assert [row for f in flows for row in table_fields(compute_features(f))] == \
            [record_fields(r) for r in expected_records]
