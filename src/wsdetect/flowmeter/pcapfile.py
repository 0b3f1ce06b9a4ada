"""Classic pcap reader: Ethernet link layer, IPv4 TCP/UDP packets, as columns.

Handles both byte orders and both timestamp resolutions (magic
0xa1b2c3d4 / 0xa1b23c4d and their swaps). The record headers are walked
once to find the frames; then each header field of every frame is read
at once, by index arithmetic over the capture buffer: the EtherType
(after any VLAN tags), the 20-byte IPv4 header, then the TCP ports, data
offset, flag byte and window, or the UDP ports; options are skipped by
length. Nothing is silently dropped: a frame that is not IPv4 TCP/UDP,
or is cut inside those fields, counts in `skipped`; an IPv4 fragment (MF
set or a nonzero offset) counts in `fragments`, as only a reassembler
could tell which flow its bytes belong to.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

MAGIC_US_BE = 0xA1B2C3D4
MAGIC_US_LE = 0xD4C3B2A1
MAGIC_NS_BE = 0xA1B23C4D
MAGIC_NS_LE = 0x4D3CB2A1

LINKTYPE_ETHERNET = 1

TCP = 6
UDP = 17

FIN, SYN, RST, PSH, ACK, URG, ECE, CWR = 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80

_IPV4 = 0x0800
_MF_OR_OFFSET = 0x3FFF
_TCP_MIN, _UDP_HEADER = 20, 8


class PcapError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class Packets:
    """Decoded IPv4 TCP/UDP packets as columns, one row per packet.

    Addresses are host-order uint32. `flags` is the TCP header's flag
    byte (test it with the FIN ... CWR masks) and `window` its window;
    both are 0 for UDP. Lengths are in bytes: `ihl` the IPv4 header,
    `l4_header` the TCP or UDP header, `payload` what the IPv4 total
    length leaves after both.
    """

    ts: np.ndarray         # int64 epoch microseconds
    src: np.ndarray        # uint32
    dst: np.ndarray        # uint32
    sport: np.ndarray      # int64, as are the columns below but `flags`
    dport: np.ndarray
    proto: np.ndarray
    ihl: np.ndarray
    l4_header: np.ndarray
    payload: np.ndarray
    flags: np.ndarray      # uint8
    window: np.ndarray

    def __len__(self) -> int:
        return len(self.ts)

    def __getitem__(self, rows) -> Packets:
        """The rows a slice, index array or mask picks, as a table."""
        return Packets(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass
class PcapResult:
    packets: Packets
    skipped: int = 0    # frames that were not IPv4 TCP/UDP, or cut short
    fragments: int = 0  # IPv4 TCP/UDP fragments, never decoded as packets


def _fields(buf: np.ndarray, pos: np.ndarray, width: int) -> np.ndarray:
    """The `width` bytes at each position, one row each (C-contiguous,
    so a row views as wider integers). Fields are read before the
    frame's bounds are checked; a byte past the end of the capture
    reads as its last byte, and only frames whose fields lie inside
    the capture are kept."""
    return buf[np.minimum(pos[:, None] + np.arange(width), len(buf) - 1)]


def _ethertype(buf: np.ndarray, l3: np.ndarray) -> np.ndarray:
    """The big-endian 16-bit field just before each layer-3 start."""
    return _fields(buf, l3 - 2, 2).view(">u2")[:, 0].astype(np.int64)


def _is_vlan(ethertype: np.ndarray) -> np.ndarray:
    return (ethertype == 0x8100) | (ethertype == 0x88A8)


def read_pcap(path: str | Path) -> PcapResult:
    """Decode a classic pcap file into packet columns, in file order."""
    data = Path(path).read_bytes()
    size = len(data)
    if size < 24:
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

    # the one pass in Python: each record's frame start. A record that
    # overruns the file ends the walk, and is the last start.
    byteorder = "little" if endian == "<" else "big"
    starts = []
    offset = 24
    while offset + 16 <= size:
        starts.append(offset + 16)
        offset += 16 + int.from_bytes(data[offset + 8:offset + 12], byteorder)
    if offset > size:
        raise PcapError(f"{path}: truncated record body at offset {starts[-1]}")
    if offset < size:
        raise PcapError(f"{path}: truncated record header at offset {offset}")

    buf = np.frombuffer(data, np.uint8)
    start = np.array(starts, np.int64)
    # ts_sec, ts_frac, incl_len, orig_len
    record = _fields(buf, start - 16, 16).view(endian + "u4").astype(np.int64)
    end = start + record[:, 2]
    ts = record[:, 0] * 1_000_000 + (record[:, 1] // 1000 if ns else record[:, 1])

    l3 = start + 14
    inside = l3 <= end
    ethertype = _ethertype(buf, l3)
    tagged = inside & _is_vlan(ethertype)
    while tagged.any():
        rows = np.flatnonzero(tagged)
        l3[rows] += 4
        inside[rows] = l3[rows] <= end[rows]
        ethertype[rows] = _ethertype(buf, l3[rows])
        tagged[rows] = inside[rows] & _is_vlan(ethertype[rows])

    ip = _fields(buf, l3, 20)
    ihl = (ip[:, 0] & 0x0F).astype(np.int64) * 4
    l4 = l3 + ihl
    proto = ip[:, 9]
    ipv4 = (inside & (ethertype == _IPV4) & (l3 + 20 <= end)
            & (ip[:, 0] >> 4 == 4) & (ihl >= 20) & (l4 <= end)
            & ((proto == TCP) | (proto == UDP)))
    fragment = ipv4 & (ip.view(">u2")[:, 3] & _MF_OR_OFFSET != 0)
    l4_fields = _fields(buf, l4, 16)  # TCP up to the window; UDP's 8 bytes
    tcp = proto == TCP
    fixed = np.where(tcp, _TCP_MIN, _UDP_HEADER)
    l4_header = np.where(tcp, (l4_fields[:, 12] >> 4).astype(np.int64) * 4, _UDP_HEADER)
    keep = ipv4 & ~fragment & (l4 + fixed <= end) & (l4_header >= fixed)

    ip, l4_fields, tcp = ip[keep], l4_fields[keep], tcp[keep]
    ihl, l4_header = ihl[keep], l4_header[keep]
    ip16, ip32, l4_16 = ip.view(">u2"), ip.view(">u4"), l4_fields.view(">u2")
    packets = Packets(
        ts=ts[keep],
        src=ip32[:, 3].astype(np.uint32),
        dst=ip32[:, 4].astype(np.uint32),
        sport=l4_16[:, 0].astype(np.int64),
        dport=l4_16[:, 1].astype(np.int64),
        proto=proto[keep].astype(np.int64),
        ihl=ihl,
        l4_header=l4_header,
        payload=np.maximum(ip16[:, 1] - ihl - l4_header, 0),
        flags=l4_fields[:, 13] * tcp,
        window=l4_16[:, 7] * tcp.astype(np.int64),
    )
    fragments = int(fragment.sum())
    return PcapResult(packets=packets, skipped=len(start) - len(packets) - fragments,
                      fragments=fragments)
