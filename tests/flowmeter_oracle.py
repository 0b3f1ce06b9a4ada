"""The per-packet flowmeter as it was before the columnar rewrite, kept
as a test-only oracle.

Decoder, flow assembly and features are the record-at-a-time code the
columnar `wsdetect.flowmeter` replaced, changed in two places only:
deviations are squared by multiplication, `(v - mean) * (v - mean)`,
instead of `** 2`, whose libm `pow` is not always correctly rounded;
and values are summed by an explicit left fold (`_fold_sum`), because
the built-in `sum` compensates float sums from Python 3.12 on, where
the columnar code adds left to right.
`tests/test_flowmeter_oracle.py` checks the runtime package against it
by exact equality.
"""

from __future__ import annotations

import math
import socket
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tests.fio_oracle import FeatureRecord
from wsdetect.flowmeter.features import CONTINUOUS_NAMES
from wsdetect.flowmeter.pcapfile import PcapError

MAGIC_US_BE = 0xA1B2C3D4
MAGIC_US_LE = 0xD4C3B2A1
MAGIC_NS_BE = 0xA1B23C4D
MAGIC_NS_LE = 0x4D3CB2A1

LINKTYPE_ETHERNET = 1

TCP = 6
UDP = 17

FIN, SYN, RST, PSH, ACK, URG, ECE, CWR = 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80

_ETHERTYPE = struct.Struct("!H")  # at offset 12, and 2 into each VLAN tag
# version/IHL, total length, flags/fragment offset, protocol, source, destination
_IPV4 = struct.Struct("!BxHxxHxB2x4s4s")
_MF_OR_OFFSET = 0x3FFF
# ports, data offset, flag byte, window (the seq and ack numbers skipped)
_TCP = struct.Struct("!HH8xBBH")
_PORTS = struct.Struct("!HH")
_TCP_MIN, _UDP_HEADER = 20, 8


@dataclass(frozen=True, slots=True)
class PacketMeta:
    """Decoded metadata of one IPv4 TCP/UDP packet. `tcp_flags` is the
    TCP header's flag byte (test it with the FIN ... CWR masks), 0 for
    UDP."""

    timestamp_us: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int
    ip_header_length: int
    l4_header_length: int
    payload_length: int
    tcp_flags: int = 0
    tcp_window: int = 0

    @property
    def header_bytes(self) -> int:
        """IPv4 header plus L4 header, the per-packet header length."""
        return self.ip_header_length + self.l4_header_length


@dataclass
class PcapResult:
    packets: list[PacketMeta] = field(default_factory=list)
    skipped: int = 0    # frames that were not IPv4 TCP/UDP, or cut short
    fragments: int = 0  # IPv4 TCP/UDP fragments, never decoded as packets


_FRAGMENT = object()


def read_pcap(path: str | Path) -> PcapResult:
    """Decode a classic pcap file into per-packet metadata, in file order."""
    data = Path(path).read_bytes()
    if len(data) < 24:
        raise PcapError(f"{path}: too short for a pcap global header")
    (magic,) = struct.unpack_from("<I", data)
    if magic in (MAGIC_US_BE, MAGIC_NS_BE):
        endian, ns = "<", magic == MAGIC_NS_BE
    elif magic in (MAGIC_US_LE, MAGIC_NS_LE):
        endian, ns = ">", magic == MAGIC_NS_LE
    else:
        raise PcapError(f"{path}: bad magic 0x{magic:08x}")
    (linktype,) = struct.unpack_from(endian + "I", data, 20)
    if linktype != LINKTYPE_ETHERNET:
        raise PcapError(f"{path}: unsupported link type {linktype}")

    result = PcapResult()
    rec_hdr = struct.Struct(endian + "IIII")
    offset, size = 24, len(data)
    while offset < size:
        if offset + 16 > size:
            raise PcapError(f"{path}: truncated record header at offset {offset}")
        ts_sec, ts_frac, incl_len, _ = rec_hdr.unpack_from(data, offset)
        offset += 16
        end = offset + incl_len
        if end > size:
            raise PcapError(f"{path}: truncated record body at offset {offset}")
        timestamp_us = ts_sec * 1_000_000 + (ts_frac // 1000 if ns else ts_frac)
        meta = _decode_frame(data, offset, end, timestamp_us)
        offset = end
        if meta is None:
            result.skipped += 1
        elif meta is _FRAGMENT:
            result.fragments += 1
        else:
            result.packets.append(meta)
    return result


def _decode_frame(data: bytes, start: int, end: int, timestamp_us: int):
    """The frame in data[start:end] as a PacketMeta, `_FRAGMENT` for an
    IPv4 TCP/UDP fragment, or None for anything else."""
    l3 = start + 14
    if l3 > end:
        return None
    (ethertype,) = _ETHERTYPE.unpack_from(data, l3 - 2)
    while ethertype in (0x8100, 0x88A8):  # VLAN tags
        l3 += 4
        if l3 > end:
            return None
        (ethertype,) = _ETHERTYPE.unpack_from(data, l3 - 2)
    if ethertype != 0x0800 or l3 + 20 > end:
        return None

    version_ihl, total_length, frag, protocol, src, dst = _IPV4.unpack_from(data, l3)
    ihl = (version_ihl & 0x0F) * 4
    l4 = l3 + ihl
    if (version_ihl >> 4 != 4 or ihl < 20 or l4 > end
            or (protocol != TCP and protocol != UDP)):
        return None
    if frag & _MF_OR_OFFSET:
        return _FRAGMENT
    if protocol == TCP:
        if l4 + _TCP_MIN > end:
            return None
        src_port, dst_port, data_offset, flags, window = _TCP.unpack_from(data, l4)
        l4_header = (data_offset >> 4) * 4
        if l4_header < _TCP_MIN:
            return None
    else:
        if l4 + _UDP_HEADER > end:
            return None
        src_port, dst_port = _PORTS.unpack_from(data, l4)
        flags = window = 0
        l4_header = _UDP_HEADER

    return PacketMeta(
        timestamp_us=timestamp_us,
        src_ip=socket.inet_ntoa(src), dst_ip=socket.inet_ntoa(dst),
        src_port=src_port, dst_port=dst_port,
        protocol=protocol,
        ip_header_length=ihl,
        l4_header_length=l4_header,
        payload_length=max(0, total_length - ihl - l4_header),
        tcp_flags=flags,
        tcp_window=window,
    )


# --- flows ------------------------------------------------------------

DEFAULT_FLOW_TIMEOUT_US = 120_000_000


def canonical_key(pkt: PacketMeta) -> tuple:
    a = (pkt.src_ip, pkt.src_port)
    b = (pkt.dst_ip, pkt.dst_port)
    lo, hi = (a, b) if a <= b else (b, a)
    return (*lo, *hi, pkt.protocol)


@dataclass
class Flow:
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int
    packets: list[PacketMeta] = field(default_factory=list)
    directions: list[bool] = field(default_factory=list)  # True = forward
    terminated: bool = False

    @property
    def first_ts(self) -> int:
        return self.packets[0].timestamp_us

    @property
    def last_ts(self) -> int:
        return self.packets[-1].timestamp_us

    @property
    def duration_us(self) -> int:
        return self.last_ts - self.first_ts

    def fwd_packets(self) -> list[PacketMeta]:
        return [p for p, fwd in zip(self.packets, self.directions) if fwd]

    def bwd_packets(self) -> list[PacketMeta]:
        return [p for p, fwd in zip(self.packets, self.directions) if not fwd]

    def is_forward(self, pkt: PacketMeta) -> bool:
        return (pkt.src_ip, pkt.src_port) == (self.src_ip, self.src_port)

    def add(self, pkt: PacketMeta) -> None:
        self.packets.append(pkt)
        self.directions.append(self.is_forward(pkt))
        if pkt.tcp_flags & (FIN | RST):
            self.terminated = True

    @property
    def flow_id(self) -> str:
        return (f"{self.src_ip}-{self.dst_ip}-{self.src_port}-"
                f"{self.dst_port}-{self.protocol}")


def assemble_flows(packets: list[PacketMeta],
                   flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US,
                   ) -> list[Flow]:
    """Assemble flows; output ordered by (first packet time, key)."""
    ordered = sorted(packets, key=lambda p: p.timestamp_us)
    live: dict[tuple, Flow] = {}
    done: list[Flow] = []

    for pkt in ordered:
        key = canonical_key(pkt)
        flow = live.get(key)
        if flow is not None:
            expired = pkt.timestamp_us - flow.last_ts > flow_timeout_us
            if expired or flow.terminated:
                done.append(flow)
                flow = None
                del live[key]
        if flow is None:
            flow = Flow(src_ip=pkt.src_ip, src_port=pkt.src_port,
                        dst_ip=pkt.dst_ip, dst_port=pkt.dst_port,
                        protocol=pkt.protocol)
            live[key] = flow
        flow.add(pkt)

    done.extend(live.values())
    done.sort(key=lambda f: (f.first_ts, f.flow_id))
    return done


# --- features ---------------------------------------------------------

_BULK_GAP_US = 1_000_000      # max intra-bulk inter-arrival
_ACTIVITY_TIMEOUT_US = 5_000_000  # a gap above this ends an active period
_BULK_MIN_PACKETS = 4
_SUBFLOW_GAP_US = 1_000_000   # a gap above this starts a new subflow


def _fold_sum(values):
    """((0 + v0) + v1) + ...: the built-in `sum` before Python 3.12,
    which compensates float sums from 3.12 on."""
    total = 0
    for v in values:
        total += v
    return total


class _Stats:
    __slots__ = ("maximum", "minimum", "mean", "std")

    def __init__(self, values):
        values = list(values)
        if not values:
            self.maximum = self.minimum = self.mean = self.std = 0.0
            return
        self.maximum = float(max(values))
        self.minimum = float(min(values))
        self.mean = _fold_sum(values) / len(values)
        if len(values) < 2:
            self.std = 0.0
        else:
            mean = self.mean
            self.std = math.sqrt(
                _fold_sum((v - mean) * (v - mean) for v in values) / (len(values) - 1))

    @property
    def variance(self) -> float:
        return self.std * self.std


def _gaps(times: list[int]) -> list[int]:
    return [b - a for a, b in zip(times, times[1:])]


def _flag_count(flag_bytes: Counter, mask: int) -> float:
    """Packets whose flag byte has `mask` set, from a count per byte."""
    return float(sum(n for bits, n in flag_bytes.items() if bits & mask))


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class _BulkSide:
    bulks: int = 0
    packets: int = 0
    bytes: int = 0
    duration_us: int = 0


def _bulk_stats(flow: Flow) -> tuple[_BulkSide, _BulkSide]:
    """Detect bulks: runs of >= 4 payload-bearing packets that stay in
    one direction with inter-arrivals <= 1 s."""
    fwd, bwd = _BulkSide(), _BulkSide()
    run: list[PacketMeta] = []
    run_fwd = True

    def close_run():
        if len(run) >= _BULK_MIN_PACKETS:
            side = fwd if run_fwd else bwd
            side.bulks += 1
            side.packets += len(run)
            side.bytes += sum(p.payload_length for p in run)
            side.duration_us += run[-1].timestamp_us - run[0].timestamp_us

    for pkt, is_fwd in zip(flow.packets, flow.directions):
        if pkt.payload_length == 0:
            continue
        if run and (is_fwd != run_fwd
                    or pkt.timestamp_us - run[-1].timestamp_us > _BULK_GAP_US):
            close_run()
            run = []
        if not run:
            run_fwd = is_fwd
        run.append(pkt)
    close_run()
    return fwd, bwd


def _active_idle(times: list[int]) -> tuple[list[int], list[int]]:
    """Split the flow timeline at gaps above the activity timeout.
    Active values are the positive durations of each busy segment;
    idle values are the long gaps themselves."""
    active: list[int] = []
    idle: list[int] = []
    segment_start = times[0]
    prev = times[0]
    for t in times[1:]:
        gap = t - prev
        if gap > _ACTIVITY_TIMEOUT_US:
            if prev > segment_start:
                active.append(prev - segment_start)
            idle.append(gap)
            segment_start = t
        prev = t
    if prev > segment_start:
        active.append(prev - segment_start)
    return active, idle


def compute_features(flow: Flow) -> FeatureRecord:
    """All 83 fields for one flow. Pure function of the flow."""
    if not flow.packets:
        raise ValueError("flow has no packets")

    packets = flow.packets
    fwd = flow.fwd_packets()
    bwd = flow.bwd_packets()
    duration_us = flow.duration_us
    duration_s = duration_us / 1e6

    fwd_payloads = [p.payload_length for p in fwd]
    bwd_payloads = [p.payload_length for p in bwd]
    all_payloads = [p.payload_length for p in packets]
    tot_fwd_bytes = sum(fwd_payloads)
    tot_bwd_bytes = sum(bwd_payloads)

    fwd_len = _Stats(fwd_payloads)
    bwd_len = _Stats(bwd_payloads)
    all_len = _Stats(all_payloads)

    times = [p.timestamp_us for p in packets]
    flow_gaps = _gaps(times)
    flow_iat = _Stats(flow_gaps)
    fwd_gaps = _gaps([p.timestamp_us for p in fwd])
    bwd_gaps = _gaps([p.timestamp_us for p in bwd])
    fwd_iat = _Stats(fwd_gaps)
    bwd_iat = _Stats(bwd_gaps)

    bulk_fwd, bulk_bwd = _bulk_stats(flow)
    n_subflows = 1 + sum(1 for gap in flow_gaps if gap > _SUBFLOW_GAP_US)

    active, idle = _active_idle(times)
    active_stats = _Stats(active)
    idle_stats = _Stats(idle)

    fwd_flags = Counter(p.tcp_flags for p in fwd)
    bwd_flags = Counter(p.tcp_flags for p in bwd)
    all_flags = fwd_flags + bwd_flags

    init_fwd_win = next((p.tcp_window for p in fwd), 0)
    init_bwd_win = next((p.tcp_window for p in bwd), 0)

    values: dict[str, float] = {
        "Flow Duration": float(duration_us),
        "Tot Fwd Pkts": float(len(fwd)),
        "Tot Bwd Pkts": float(len(bwd)),
        "TotLen Fwd Pkts": float(tot_fwd_bytes),
        "TotLen Bwd Pkts": float(tot_bwd_bytes),
        "Fwd Pkt Len Max": fwd_len.maximum,
        "Fwd Pkt Len Min": fwd_len.minimum,
        "Fwd Pkt Len Mean": fwd_len.mean,
        "Fwd Pkt Len Std": fwd_len.std,
        "Bwd Pkt Len Max": bwd_len.maximum,
        "Bwd Pkt Len Min": bwd_len.minimum,
        "Bwd Pkt Len Mean": bwd_len.mean,
        "Bwd Pkt Len Std": bwd_len.std,
        "Flow Byts/s": _safe_div(tot_fwd_bytes + tot_bwd_bytes, duration_s),
        "Flow Pkts/s": _safe_div(len(packets), duration_s),
        "Flow IAT Mean": flow_iat.mean,
        "Flow IAT Std": flow_iat.std,
        "Flow IAT Max": flow_iat.maximum,
        "Flow IAT Min": flow_iat.minimum,
        "Fwd IAT Tot": float(sum(fwd_gaps)),
        "Fwd IAT Mean": fwd_iat.mean,
        "Fwd IAT Std": fwd_iat.std,
        "Fwd IAT Max": fwd_iat.maximum,
        "Fwd IAT Min": fwd_iat.minimum,
        "Bwd IAT Tot": float(sum(bwd_gaps)),
        "Bwd IAT Mean": bwd_iat.mean,
        "Bwd IAT Std": bwd_iat.std,
        "Bwd IAT Max": bwd_iat.maximum,
        "Bwd IAT Min": bwd_iat.minimum,
        "Fwd PSH Flags": _flag_count(fwd_flags, PSH),
        "Bwd PSH Flags": _flag_count(bwd_flags, PSH),
        "Fwd URG Flags": _flag_count(fwd_flags, URG),
        "Bwd URG Flags": _flag_count(bwd_flags, URG),
        "Fwd Header Len": float(sum(p.header_bytes for p in fwd)),
        "Bwd Header Len": float(sum(p.header_bytes for p in bwd)),
        "Fwd Pkts/s": _safe_div(len(fwd), duration_s),
        "Bwd Pkts/s": _safe_div(len(bwd), duration_s),
        "Pkt Len Min": all_len.minimum,
        "Pkt Len Max": all_len.maximum,
        "Pkt Len Mean": all_len.mean,
        "Pkt Len Std": all_len.std,
        "Pkt Len Var": all_len.variance,
        "FIN Flag Cnt": _flag_count(all_flags, FIN),
        "SYN Flag Cnt": _flag_count(all_flags, SYN),
        "RST Flag Cnt": _flag_count(all_flags, RST),
        "PSH Flag Cnt": _flag_count(all_flags, PSH),
        "ACK Flag Cnt": _flag_count(all_flags, ACK),
        "URG Flag Cnt": _flag_count(all_flags, URG),
        "CWE Flag Count": _flag_count(all_flags, CWR),
        "ECE Flag Cnt": _flag_count(all_flags, ECE),
        "Down/Up Ratio": float(len(bwd) // len(fwd)) if fwd else 0.0,
        "Pkt Size Avg": all_len.mean,
        "Fwd Seg Size Avg": fwd_len.mean,
        "Bwd Seg Size Avg": bwd_len.mean,
        "Fwd Byts/b Avg": _safe_div(bulk_fwd.bytes, bulk_fwd.bulks),
        "Fwd Pkts/b Avg": _safe_div(bulk_fwd.packets, bulk_fwd.bulks),
        "Fwd Blk Rate Avg": _safe_div(bulk_fwd.bytes, bulk_fwd.duration_us / 1e6),
        "Bwd Byts/b Avg": _safe_div(bulk_bwd.bytes, bulk_bwd.bulks),
        "Bwd Pkts/b Avg": _safe_div(bulk_bwd.packets, bulk_bwd.bulks),
        "Bwd Blk Rate Avg": _safe_div(bulk_bwd.bytes, bulk_bwd.duration_us / 1e6),
        "Subflow Fwd Pkts": len(fwd) / n_subflows,
        "Subflow Fwd Byts": tot_fwd_bytes / n_subflows,
        "Subflow Bwd Pkts": len(bwd) / n_subflows,
        "Subflow Bwd Byts": tot_bwd_bytes / n_subflows,
        "Init Fwd Win Byts": float(init_fwd_win),
        "Init Bwd Win Byts": float(init_bwd_win),
        "Fwd Act Data Pkts": float(sum(1 for p in fwd if p.payload_length > 0)),
        "Fwd Seg Size Min": float(min((p.l4_header_length for p in fwd), default=0)),
        "Active Mean": active_stats.mean,
        "Active Std": active_stats.std,
        "Active Max": active_stats.maximum,
        "Active Min": active_stats.minimum,
        "Idle Mean": idle_stats.mean,
        "Idle Std": idle_stats.std,
        "Idle Max": idle_stats.maximum,
        "Idle Min": idle_stats.minimum,
    }
    assert set(values) == set(CONTINUOUS_NAMES[1:])

    return FeatureRecord(
        flow_id=flow.flow_id,
        src_ip=flow.src_ip,
        src_port=flow.src_port,
        dst_port=flow.dst_port,
        protocol=flow.protocol,
        timestamp_us=flow.first_ts,
        features=values,
    )
