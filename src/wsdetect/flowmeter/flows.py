"""Group packets into bidirectional flows.

A flow is keyed by the canonical (unordered) 5-tuple. "Forward" is the
direction of the flow's first packet: the packets with its source IP and
port. Flow boundaries: an idle gap longer than the flow timeout, or (for
TCP) a packet carrying FIN or RST, after which the next same-key packet
opens a fresh flow.

One stable sort on (key, time) puts each flow's packets next to each
other, in time order and, at equal times, in file order. A flow is then
a slice of that sorted table, which all flows of a capture share.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

import numpy as np

from wsdetect.flowmeter.pcapfile import FIN, RST, Packets

DEFAULT_FLOW_TIMEOUT_US = 120_000_000


def _ip(address: int) -> str:
    return socket.inet_ntoa(address.to_bytes(4, "big"))


@dataclass(eq=False)
class Flow:
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: int
    first_ts: int   # epoch microseconds of the first packet
    table: Packets  # the capture's packets grouped by flow, shared
    start: int      # the flow's packets are table[start:stop]
    stop: int

    @property
    def flow_id(self) -> str:
        return (f"{self.src_ip}-{self.dst_ip}-{self.src_port}-"
                f"{self.dst_port}-{self.protocol}")


def assemble_flows(packets: Packets,
                   flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US,
                   ) -> list[Flow]:
    """Assemble flows; output ordered by (first packet time, flow id).
    A timeout of 0 or less is a `ValueError`: it would split a flow at
    every packet."""
    if flow_timeout_us <= 0:
        raise ValueError(f"flow timeout must be positive, got {flow_timeout_us} us")
    if len(packets) == 0:
        return []
    src, dst = packets.src.astype(np.int64), packets.dst.astype(np.int64)
    sport, dport = packets.sport, packets.dport
    src_low = (src < dst) | ((src == dst) & (sport <= dport))
    low = np.where(src_low, src << 16 | sport, dst << 16 | dport)
    high = np.where(src_low, dst << 16 | dport, src << 16 | sport) << 8 | packets.proto
    order = np.lexsort((packets.ts, high, low))
    table = packets[order]
    low, high, ts = low[order], high[order], table.ts

    new = np.ones(len(table), bool)
    new[1:] = ((low[1:] != low[:-1]) | (high[1:] != high[:-1])
               | (ts[1:] - ts[:-1] > flow_timeout_us)
               | (table.flags[:-1] & (FIN | RST) != 0))
    starts = np.flatnonzero(new)
    stops = np.append(starts[1:], len(table))
    first = table[starts]
    flows = [Flow(_ip(s), sp, _ip(d), dp, proto, t, table, a, b)
             for s, sp, d, dp, proto, t, a, b in zip(
                 first.src.tolist(), first.sport.tolist(), first.dst.tolist(),
                 first.dport.tolist(), first.proto.tolist(), first.ts.tolist(),
                 starts.tolist(), stops.tolist())]
    flows.sort(key=lambda f: (f.first_ts, f.flow_id))
    return flows
