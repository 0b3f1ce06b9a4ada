"""Per-flow feature computation, CICFlowMeter-compatible.

Columns and semantics follow the reference extractor where the names
come from it; where the reference leaves gaps the rules are pinned
here and tested:

  * statistics use the sample standard deviation (n-1); fewer than two
    values give std 0, and empty value lists give all-zero stats
  * every rate/ratio with a zero denominator is 0, never inf or NaN
  * packet length means payload bytes; header length is IPv4 + L4
    header bytes summed per direction
  * a bulk is >= 4 consecutive same-direction payload-bearing packets
    with gaps <= 1 s; subflow counts divide by 1 + number of
    inter-packet gaps > 1 s
  * Down/Up Ratio is floor(bwd packets / fwd packets), 0 when fwd is 0
  * flag counts test the TCP flag byte with the FIN ... CWR masks
    ("CWE Flag Count" counts CWR); UDP packets carry no flags
  * active and idle periods split the timeline at gaps above 5 s
  * timestamps are epoch microseconds internally; CSV and model inputs
    carry epoch seconds
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from wsdetect.flowmeter.flows import Flow
from wsdetect.flowmeter.pcapfile import (
    ACK, CWR, ECE, FIN, PSH, RST, SYN, URG, PacketMeta)

CONTINUOUS_NAMES: tuple[str, ...] = (
    "Timestamp", "Flow Duration", "Tot Fwd Pkts", "Tot Bwd Pkts",
    "TotLen Fwd Pkts", "TotLen Bwd Pkts",
    "Fwd Pkt Len Max", "Fwd Pkt Len Min", "Fwd Pkt Len Mean", "Fwd Pkt Len Std",
    "Bwd Pkt Len Max", "Bwd Pkt Len Min", "Bwd Pkt Len Mean", "Bwd Pkt Len Std",
    "Flow Byts/s", "Flow Pkts/s",
    "Flow IAT Mean", "Flow IAT Std", "Flow IAT Max", "Flow IAT Min",
    "Fwd IAT Tot", "Fwd IAT Mean", "Fwd IAT Std", "Fwd IAT Max", "Fwd IAT Min",
    "Bwd IAT Tot", "Bwd IAT Mean", "Bwd IAT Std", "Bwd IAT Max", "Bwd IAT Min",
    "Fwd PSH Flags", "Bwd PSH Flags", "Fwd URG Flags", "Bwd URG Flags",
    "Fwd Header Len", "Bwd Header Len", "Fwd Pkts/s", "Bwd Pkts/s",
    "Pkt Len Min", "Pkt Len Max", "Pkt Len Mean", "Pkt Len Std", "Pkt Len Var",
    "FIN Flag Cnt", "SYN Flag Cnt", "RST Flag Cnt", "PSH Flag Cnt",
    "ACK Flag Cnt", "URG Flag Cnt", "CWE Flag Count", "ECE Flag Cnt",
    "Down/Up Ratio", "Pkt Size Avg", "Fwd Seg Size Avg", "Bwd Seg Size Avg",
    "Fwd Byts/b Avg", "Fwd Pkts/b Avg", "Fwd Blk Rate Avg",
    "Bwd Byts/b Avg", "Bwd Pkts/b Avg", "Bwd Blk Rate Avg",
    "Subflow Fwd Pkts", "Subflow Fwd Byts", "Subflow Bwd Pkts", "Subflow Bwd Byts",
    "Init Fwd Win Byts", "Init Bwd Win Byts",
    "Fwd Act Data Pkts", "Fwd Seg Size Min",
    "Active Mean", "Active Std", "Active Max", "Active Min",
    "Idle Mean", "Idle Std", "Idle Max", "Idle Min",
)

CATEGORICAL_NAMES: tuple[str, str] = ("Dst Port", "Protocol")

# Full CSV layout: 6 identification columns, the 76 continuous columns
# after Timestamp, and the trailing Label. 83 fields total.
CSV_COLUMNS: tuple[str, ...] = (
    "Flow ID", "Src IP", "Src Port", "Dst Port", "Protocol", "Timestamp",
    *CONTINUOUS_NAMES[1:], "Label")

assert len(CONTINUOUS_NAMES) == 77
assert len(CSV_COLUMNS) == 83

_BULK_GAP_US = 1_000_000      # max intra-bulk inter-arrival
_ACTIVITY_TIMEOUT_US = 5_000_000  # a gap above this ends an active period
_BULK_MIN_PACKETS = 4
_SUBFLOW_GAP_US = 1_000_000   # a gap above this starts a new subflow


@dataclass
class FeatureRecord:
    """One flow's 83 named fields. `features` holds the continuous
    values after Timestamp, keyed by their exact column names."""

    flow_id: str
    src_ip: str
    src_port: int
    dst_port: int
    protocol: int
    timestamp_us: int
    label: str = ""
    features: dict[str, float] = field(default_factory=dict)

    @property
    def timestamp_s(self) -> float:
        return self.timestamp_us / 1e6


class _Stats:
    __slots__ = ("maximum", "minimum", "mean", "std")

    def __init__(self, values):
        values = list(values)
        if not values:
            self.maximum = self.minimum = self.mean = self.std = 0.0
            return
        self.maximum = float(max(values))
        self.minimum = float(min(values))
        self.mean = sum(values) / len(values)
        if len(values) < 2:
            self.std = 0.0
        else:
            mean = self.mean
            self.std = math.sqrt(
                sum((v - mean) ** 2 for v in values) / (len(values) - 1))

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


def continuous_vector(record: FeatureRecord) -> list[float]:
    """The 77 continuous values, in column order, timestamp first as
    epoch seconds."""
    return [record.timestamp_s] + [
        record.features[name] for name in CONTINUOUS_NAMES[1:]]


def model_inputs(record: FeatureRecord) -> tuple[tuple[int, int], list[float]]:
    """(categoricals, continuous) for the traffic model.

    Flow ID, Src IP, Src Port and Label never reach the model.
    """
    return (record.dst_port, record.protocol), continuous_vector(record)


def label_to_class(label: str) -> int:
    """Benign maps to 0; any non-empty attack label (Bot, Webshell, ...)
    maps to 1."""
    text = label.strip()
    if not text:
        raise ValueError("record has no label")
    return 0 if text.lower() == "benign" else 1
