"""Shared fixtures: in-memory pcap construction and rule file text."""

from __future__ import annotations

import socket
import struct

import pytest

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D


def _ethernet_ipv4(src, dst, protocol, l4, vlan, ihl, frag):
    """Ethernet (optionally one VLAN tag) and an IPv4 header of `ihl`
    32-bit words, zero-filled options included, in front of `l4`."""
    options = bytes(4 * ihl - 20)
    total = 4 * ihl + len(l4)
    iph = struct.pack("!BBHHHBBH4s4s", 0x40 | ihl, 0, total, 0, frag, 64,
                      protocol, 0, socket.inet_aton(src),
                      socket.inet_aton(dst)) + options
    if vlan:
        eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!HHH", 0x8100, 0, 0x0800)
    else:
        eth = b"\xaa" * 6 + b"\xbb" * 6 + struct.pack("!H", 0x0800)
    return eth + iph + l4


def ethernet_ipv4_tcp(src, sport, dst, dport, payload_len, flags=0x10,
                      window=8192, vlan=False, ihl=5, data_offset=5, frag=0):
    """One Ethernet/IPv4/TCP frame with a dummy payload. `data_offset`
    is the TCP header length in 32-bit words, zero-filled options
    included; `frag` is the IPv4 flags/fragment-offset field."""
    tcp = struct.pack("!HHIIBBHHH", sport, dport, 0, 0, data_offset << 4,
                      flags, window, 0, 0)
    tcp += bytes(4 * data_offset - 20) + b"x" * payload_len
    return _ethernet_ipv4(src, dst, 6, tcp, vlan, ihl, frag)


def ethernet_ipv4_udp(src, sport, dst, dport, payload_len, vlan=False, ihl=5,
                      frag=0):
    udp = struct.pack("!HHHH", sport, dport, 8 + payload_len, 0) + b"u" * payload_len
    return _ethernet_ipv4(src, dst, 17, udp, vlan, ihl, frag)


def arp_frame():
    return b"\xff" * 6 + b"\xbb" * 6 + struct.pack("!H", 0x0806) + b"\x00" * 28


def pcap_bytes(timed_frames, magic=MAGIC_US, big_endian=False):
    """Assemble a classic pcap from (timestamp_us, frame) pairs."""
    endian = ">" if big_endian else "<"
    parts = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for ts_us, frame in timed_frames:
        if magic == MAGIC_NS:
            sec, frac = ts_us // 1_000_000, (ts_us % 1_000_000) * 1000
        else:
            sec, frac = ts_us // 1_000_000, ts_us % 1_000_000
        parts.append(struct.pack(endian + "IIII", sec, frac, len(frame), len(frame)))
        parts.append(frame)
    return b"".join(parts)


@pytest.fixture
def three_packet_pcap(tmp_path):
    """The hand-computed oracle flow: fwd 100B at t=0, bwd 60B at t=0.5s,
    fwd 200B at t=1s."""
    frames = [
        (0, ethernet_ipv4_tcp("10.0.0.1", 4444, "10.0.0.2", 80, 100)),
        (500_000, ethernet_ipv4_tcp("10.0.0.2", 80, "10.0.0.1", 4444, 60)),
        (1_000_000, ethernet_ipv4_tcp("10.0.0.1", 4444, "10.0.0.2", 80, 200)),
    ]
    path = tmp_path / "three.pcap"
    path.write_bytes(pcap_bytes(frames))
    return path


@pytest.fixture
def two_flow_pcap(tmp_path):
    """Two distinct TCP flows from different sources."""
    frames = [
        (0, ethernet_ipv4_tcp("192.168.1.10", 5555, "10.0.0.2", 80, 64)),
        (10_000, ethernet_ipv4_tcp("10.0.0.2", 80, "192.168.1.10", 5555, 128)),
        (200_000, ethernet_ipv4_tcp("192.168.1.20", 6666, "10.0.0.2", 443, 32)),
        (220_000, ethernet_ipv4_tcp("10.0.0.2", 443, "192.168.1.20", 6666, 48)),
    ]
    path = tmp_path / "two_flows.pcap"
    path.write_bytes(pcap_bytes(frames))
    return path


B374K_RULE = r'''
rule webshell_B374kPHP_B374k {
  meta:
    description = "Web_ Shell _-_ file _B374k .php"
    author = "Florian_Roth"
    date = "2014/01/28"
    score = 70
    hash = "bed7388976f8f1d90422e8795dff1ea6"
  strings:
    $s0 = "Http://code. google.com/p/b374k-shell" fullword
    $s1 = "$_str_rot13 ( 'tm'. ' vas '. ' yngr ' );$_ = str_rot13 ( strrev ( ' rqb '. ' prq '. ' '. '46 r '. ' fno ' "
    $s3 = "Jayalah_ Indonesiaku_ &_ Lyke_ @_ 2013" fullword
    $s4 = "B374k_ Vip_ In_ Beautify_ Just_ For_ Self" fullword
  condition:
    1 of them
}
'''


@pytest.fixture
def b374k_rule_text():
    return B374K_RULE
