"""Flow feature computation, CICFlowMeter-compatible, for all flows at once.

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
  * Down/Up Ratio is floor(bwd packets / fwd packets); a flow's first
    packet is forward, so fwd is never 0
  * flag counts test the TCP flag byte with the FIN ... CWR masks
    ("CWE Flag Count" counts CWR); UDP packets carry no flags
  * active and idle periods split the timeline at gaps above 5 s
  * timestamps are epoch microseconds internally; CSV and model inputs
    carry epoch seconds

A `FlowTable` holds flows column by column: the identification
columns, the two categoricals, the continuous matrix and the labels.
`feature_table` builds one from flows, `fio.read_csv` from a feature
CSV, and the traffic model reads its two matrices as they are.

`feature_matrix` computes the [flows, 77] continuous matrix: one row
per flow, the columns of CONTINUOUS_NAMES in order, Timestamp in epoch
seconds first. It reads the `Packets` columns (time, addresses, ports,
header lengths, payload, flag byte, window) of the flows' rows laid end
to end (flow i's rows follow flow i-1's; `seg` names each row's flow,
and a row is forward when it has the source IP and port of its flow's
first row). Every per-flow quantity is a segment reduction over that
layout: counts and integer sums, maxima and minima by `reduceat`, and
the eight statistic families (packet lengths and inter-arrival times
per direction and overall, active and idle periods) as one grouped
computation whose group id is family * flows + flow. Two rules keep the
values equal, to the bit, to a per-flow loop:

  * left-to-right group sums: float sums go through `np.bincount(group,
    weights=...)`, which adds each group's values in row order, as a
    left fold does (`np.add.reduceat` on floats does not); integer sums
    are exact either way
  * squares by multiplication: deviations are squared as `d * d`, which
    is correctly rounded, never through `** 2`/`pow`
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wsdetect.flowmeter.flows import Flow
from wsdetect.flowmeter.pcapfile import ACK, CWR, ECE, FIN, PSH, RST, SYN, URG

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
class FlowTable:
    """Every flow's 83 fields, column by column, one row per flow. Only
    `categoricals` and `continuous` reach the traffic model."""

    flow_id: list[str]
    src_ip: list[str]
    src_port: np.ndarray      # [n] int64
    categoricals: np.ndarray  # [n, 2] int64: Dst Port, Protocol
    continuous: np.ndarray    # [n, 77] float64, CONTINUOUS_NAMES order
    labels: list[str]         # "" where a flow has none


def _group_stats(groups: np.ndarray, values: np.ndarray, size: int):
    """Sum, max, min, mean and sample std of the int64 values of each of
    `size` groups, as float64 arrays; `groups` is nondecreasing and an
    empty group gets zeros. Sums run left to right, squares by
    multiplication (see the module docstring)."""
    count = np.bincount(groups, minlength=size)
    total = np.bincount(groups, weights=values, minlength=size)
    mean = np.divide(total, count, out=np.zeros(size), where=count > 0)
    dev = values - mean[groups]
    squares = np.bincount(groups, weights=dev * dev, minlength=size)
    std = np.sqrt(np.divide(squares, count - 1, out=np.zeros(size), where=count > 1))
    high, low = np.zeros(size), np.zeros(size)
    if len(values):
        heads = np.flatnonzero(np.concatenate(([True], groups[1:] != groups[:-1])))
        high[groups[heads]] = np.maximum.reduceat(values, heads)
        low[groups[heads]] = np.minimum.reduceat(values, heads)
    return total, high, low, mean, std


def _consecutive_gaps(seg: np.ndarray, ts: np.ndarray):
    """(flow, gap) of each pair of consecutive rows of one flow."""
    same = seg[1:] == seg[:-1]
    return seg[1:][same], (ts[1:] - ts[:-1])[same]


def _run_tails(heads: np.ndarray, size: int) -> np.ndarray:
    """The last row of each run of `size` rows, from each run's first."""
    return np.append(heads[1:], size)[:len(heads)] - 1


# the stat families, in their order in the stacked group ids
_STAT_FAMILIES = ("Fwd Pkt Len", "Bwd Pkt Len", "Pkt Len", "Flow IAT",
                  "Fwd IAT", "Bwd IAT", "Active", "Idle")
_FLAGS = {"FIN Flag Cnt": FIN, "SYN Flag Cnt": SYN, "RST Flag Cnt": RST,
          "PSH Flag Cnt": PSH, "ACK Flag Cnt": ACK, "URG Flag Cnt": URG,
          "CWE Flag Count": CWR, "ECE Flag Cnt": ECE}
# integer per-flow sums, one reduceat over one column per name
_SUMS = ("Tot Fwd Pkts", "TotLen Fwd Pkts", "bytes", "header", "Fwd Header Len",
         "Fwd Act Data Pkts", "Fwd PSH Flags", "Fwd URG Flags", *_FLAGS)
_FLAG_MASKS = np.array([*_FLAGS.values()], np.uint8)


def feature_matrix(flows: list[Flow]) -> np.ndarray:
    """The [len(flows), 77] continuous matrix, columns in CONTINUOUS_NAMES
    order (Timestamp in epoch seconds), rows in the order of `flows`,
    computed for all flows at once. The flows must share one packet
    table, as the flows of one `assemble_flows` call do."""
    n = len(flows)
    if n == 0:
        return np.zeros((0, len(CONTINUOUS_NAMES)))
    table = flows[0].table
    if any(flow.table is not table for flow in flows):
        raise ValueError("flows come from more than one packet table")

    # the flows' rows, one after another: flow i is rows[head[i]:head[i] + count[i]]
    start = np.array([flow.start for flow in flows])
    count = np.array([flow.stop for flow in flows]) - start
    head = np.cumsum(count) - count
    pk = table[np.arange(count.sum()) + np.repeat(start - head, count)]
    seg = np.repeat(np.arange(n), count)
    ts, payload = pk.ts, pk.payload
    fwd = (pk.src == pk.src[head][seg]) & (pk.sport == pk.sport[head][seg])
    fwd_rows, bwd_rows = np.flatnonzero(fwd), np.flatnonzero(~fwd)

    within = np.ones(len(ts), bool)
    within[head] = False  # rows with a previous row in their flow
    gap = np.zeros_like(ts)
    gap[1:] = ts[1:] - ts[:-1]
    long_gap = within & (gap > _ACTIVITY_TIMEOUT_US)
    busy_head = np.flatnonzero(~within | long_gap)
    busy = ts[_run_tails(busy_head, len(ts))] - ts[busy_head]
    families = [  # (flow, value) pairs, in _STAT_FAMILIES order
        (seg[fwd_rows], payload[fwd_rows]),
        (seg[bwd_rows], payload[bwd_rows]),
        (seg, payload),
        (seg[within], gap[within]),
        _consecutive_gaps(seg[fwd_rows], ts[fwd_rows]),
        _consecutive_gaps(seg[bwd_rows], ts[bwd_rows]),
        (seg[busy_head][busy > 0], busy[busy > 0]),
        (seg[long_gap], gap[long_gap]),
    ]
    groups = np.concatenate([g + k * n for k, (g, _) in enumerate(families)])
    values = np.concatenate([v for _, v in families])
    total, high, low, mean, std = (
        a.reshape(len(families), n) for a in _group_stats(groups, values, len(families) * n))
    columns = {}
    for k, name in enumerate(_STAT_FAMILIES):
        columns.update({f"{name} Max": high[k], f"{name} Min": low[k],
                        f"{name} Mean": mean[k], f"{name} Std": std[k]})

    header = pk.ihl + pk.l4_header
    flag_set = (pk.flags[:, None] & _FLAG_MASKS) != 0
    per_row = np.column_stack((
        fwd, fwd * payload, payload, header, fwd * header, fwd & (payload > 0),
        fwd & (pk.flags & PSH != 0), fwd & (pk.flags & URG != 0),
        flag_set)).astype(np.int64)
    columns.update(zip(_SUMS, np.add.reduceat(per_row, head, axis=0).T))
    n_fwd = columns["Tot Fwd Pkts"]  # >= 1: a flow's first packet is forward
    n_bwd = columns["Tot Bwd Pkts"] = count - n_fwd
    fwd_bytes = columns["TotLen Fwd Pkts"]
    bwd_bytes = columns["TotLen Bwd Pkts"] = columns.pop("bytes") - fwd_bytes
    columns["Bwd Header Len"] = columns.pop("header") - columns["Fwd Header Len"]
    columns["Bwd PSH Flags"] = columns["PSH Flag Cnt"] - columns["Fwd PSH Flags"]
    columns["Bwd URG Flags"] = columns["URG Flag Cnt"] - columns["Fwd URG Flags"]
    n_subflows = 1 + np.bincount(seg[within & (gap > _SUBFLOW_GAP_US)], minlength=n)
    duration = ts[head + count - 1] - ts[head]

    # bulks: runs of payload-bearing packets in one direction, gaps <= 1 s
    data = np.flatnonzero(payload > 0)
    d_seg, d_ts, d_fwd = seg[data], ts[data], fwd[data]
    run = np.ones(len(data), bool)
    run[1:] = ((d_seg[1:] != d_seg[:-1]) | (d_fwd[1:] != d_fwd[:-1])
               | (d_ts[1:] - d_ts[:-1] > _BULK_GAP_US))
    run_head = np.flatnonzero(run)
    run_tail = _run_tails(run_head, len(data))
    run_packets = run_tail - run_head + 1
    cum_bytes = np.concatenate(([0], np.cumsum(payload[data])))
    run_bytes = cum_bytes[run_tail + 1] - cum_bytes[run_head]
    run_duration = d_ts[run_tail] - d_ts[run_head]
    is_bulk = run_packets >= _BULK_MIN_PACKETS
    bulk = {}
    for side, in_side in (("Fwd", d_fwd[run_head]), ("Bwd", ~d_fwd[run_head])):
        flow = d_seg[run_head[is_bulk & in_side]]
        bulk[side] = [np.bincount(flow, minlength=n)] + [
            np.bincount(flow, weights=w[is_bulk & in_side], minlength=n)
            for w in (run_packets, run_bytes, run_duration)]

    # every ratio at once, 0 where its denominator is 0
    seconds = duration / 1e6
    ratios = {
        "Flow Byts/s": (fwd_bytes + bwd_bytes, seconds),
        "Flow Pkts/s": (count, seconds),
        "Fwd Pkts/s": (n_fwd, seconds),
        "Bwd Pkts/s": (n_bwd, seconds),
        "Subflow Fwd Pkts": (n_fwd, n_subflows),
        "Subflow Fwd Byts": (fwd_bytes, n_subflows),
        "Subflow Bwd Pkts": (n_bwd, n_subflows),
        "Subflow Bwd Byts": (bwd_bytes, n_subflows),
    }
    for side, (bulks, packets, nbytes, duration_us) in bulk.items():
        ratios[f"{side} Byts/b Avg"] = (nbytes, bulks)
        ratios[f"{side} Pkts/b Avg"] = (packets, bulks)
        ratios[f"{side} Blk Rate Avg"] = (nbytes, duration_us / 1e6)
    num = np.array([num for num, _ in ratios.values()], np.float64)
    den = np.array([den for _, den in ratios.values()], np.float64)
    columns.update(zip(ratios, np.divide(num, den, out=np.zeros_like(num), where=den != 0)))

    init_bwd = np.zeros(n, np.int64)
    with_bwd, first_bwd = np.unique(seg[bwd_rows], return_index=True)
    init_bwd[with_bwd] = pk.window[bwd_rows[first_bwd]]
    columns.update({
        "Timestamp": ts[head] / 1e6,
        "Flow Duration": duration,
        "Fwd IAT Tot": total[_STAT_FAMILIES.index("Fwd IAT")],
        "Bwd IAT Tot": total[_STAT_FAMILIES.index("Bwd IAT")],
        "Pkt Len Var": columns["Pkt Len Std"] * columns["Pkt Len Std"],
        "Down/Up Ratio": n_bwd // n_fwd,
        "Pkt Size Avg": columns["Pkt Len Mean"],
        "Fwd Seg Size Avg": columns["Fwd Pkt Len Mean"],
        "Bwd Seg Size Avg": columns["Bwd Pkt Len Mean"],
        "Init Fwd Win Byts": pk.window[head],
        "Init Bwd Win Byts": init_bwd,
        "Fwd Seg Size Min": np.minimum.reduceat(
            np.where(fwd, pk.l4_header, np.iinfo(np.int64).max), head),
    })
    assert len(columns) == len(CONTINUOUS_NAMES)
    out = np.array([columns[name] for name in CONTINUOUS_NAMES], np.float64)
    return np.ascontiguousarray(out.T)


def feature_table(flows: list[Flow]) -> FlowTable:
    """All 83 fields of each flow, from one `feature_matrix`; no labels."""
    return FlowTable(
        flow_id=[flow.flow_id for flow in flows],
        src_ip=[flow.src_ip for flow in flows],
        src_port=np.array([flow.src_port for flow in flows], np.int64),
        categoricals=np.array([(flow.dst_port, flow.protocol) for flow in flows],
                              np.int64).reshape(-1, 2),
        continuous=feature_matrix(flows),
        labels=[""] * len(flows))


def compute_features(flow: Flow) -> FlowTable:
    """One flow's table. Kept only for `bench/prepare.py`, which calls it
    per flow, until the benchmark change that moves `bench/` off it."""
    return feature_table([flow])


def label_to_class(label: str) -> int:
    """Benign maps to 0; any non-empty attack label (Bot, Webshell, ...)
    maps to 1."""
    text = label.strip()
    if not text:
        raise ValueError("record has no label")
    return 0 if text.lower() == "benign" else 1
