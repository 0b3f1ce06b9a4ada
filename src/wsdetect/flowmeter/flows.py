"""Group packets into bidirectional flows.

A flow is keyed by the canonical (unordered) 5-tuple. "Forward" is the
direction of the flow's first packet. Flow boundaries: an idle gap
longer than the flow timeout, or (for TCP) a packet carrying FIN or
RST, after which the next same-key packet opens a fresh flow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from wsdetect.flowmeter.pcapfile import FIN, RST, PacketMeta

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
