"""Classic pcap reader: Ethernet link layer, IPv4 TCP/UDP packets.

Handles both byte orders and both timestamp resolutions (magic
0xa1b2c3d4 / 0xa1b23c4d and their swaps). Each header is read in place
from the capture buffer with one fixed layout: the EtherType (after any
VLAN tags), the 20-byte IPv4 header, then the TCP ports, data offset,
flag byte and window, or the UDP ports; options are skipped by length.
Nothing is silently dropped: a frame that is not IPv4 TCP/UDP, or is
cut inside those fields, counts in `skipped`; an IPv4 fragment (MF set
or a nonzero offset) counts in `fragments`, as only a reassembler could
tell which flow its bytes belong to.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass, field
from pathlib import Path

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


class PcapError(Exception):
    pass


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
