"""Shared fixtures: in-memory pcap construction, random captures, the
flowmeter oracle check, rule file text, random rule texts and the rule
parser oracle check."""

from __future__ import annotations

import itertools
import socket
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import strategies as st

from tests import rulelang_check
from tests.flowmeter_check import BUILT, CHECKED, assert_matches_oracle
from wsdetect.flowmeter.pcapfile import ACK, CWR, ECE, FIN, PSH, RST, SYN, URG
from wsdetect.rulelang import parser as rule_parser

MAGIC_US = 0xA1B2C3D4
MAGIC_NS = 0xA1B23C4D


def _ethernet_ipv4(src, dst, protocol, l4, vlan, ihl, frag):
    """Ethernet, `vlan` VLAN tags (802.1ad outside 802.1Q when there are
    several) and an IPv4 header whose IHL field is `ihl`: 20 bytes plus
    zero-filled options up to `ihl` 32-bit words, in front of `l4`."""
    options = bytes(max(0, 4 * ihl - 20))
    total = 20 + len(options) + len(l4)
    iph = struct.pack("!BBHHHBBH4s4s", 0x40 | ihl, 0, total, 0, frag, 64,
                      protocol, 0, socket.inet_aton(src),
                      socket.inet_aton(dst)) + options
    tags = [0x88A8] * (int(vlan) - 1) + [0x8100] * min(int(vlan), 1)
    eth = b"\xaa" * 6 + b"\xbb" * 6 + b"".join(
        struct.pack("!HH", tpid, 0) for tpid in tags) + struct.pack("!H", 0x0800)
    return eth + iph + l4


def ethernet_ipv4_tcp(src, sport, dst, dport, payload_len, flags=0x10,
                      window=8192, vlan=False, ihl=5, data_offset=5, frag=0):
    """One Ethernet/IPv4/TCP frame with a dummy payload. `data_offset`
    is the TCP header's data offset field: 20 bytes plus zero-filled
    options up to that many 32-bit words; `frag` is the IPv4
    flags/fragment-offset field."""
    tcp = struct.pack("!HHIIBBHHH", sport, dport, 0, 0, data_offset << 4,
                      flags, window, 0, 0)
    tcp += bytes(max(0, 4 * data_offset - 20)) + b"x" * payload_len
    return _ethernet_ipv4(src, dst, 6, tcp, vlan, ihl, frag)


def ethernet_ipv4_udp(src, sport, dst, dport, payload_len, vlan=False, ihl=5,
                      frag=0):
    """One Ethernet/IPv4/UDP frame with a dummy payload."""
    udp = struct.pack("!HHHH", sport, dport, 8 + payload_len, 0) + b"u" * payload_len
    return _ethernet_ipv4(src, dst, 17, udp, vlan, ihl, frag)


def arp_frame():
    return b"\xff" * 6 + b"\xbb" * 6 + struct.pack("!H", 0x0806) + b"\x00" * 28


def pcap_bytes(timed_frames, magic=MAGIC_US, big_endian=False):
    """Assemble a classic pcap from (timestamp_us, frame) pairs. Each
    capture is also checked against the flowmeter oracle once its test
    ends (see `_captures_match_oracle`)."""
    endian = ">" if big_endian else "<"
    parts = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for ts_us, frame in timed_frames:
        if magic == MAGIC_NS:
            sec, frac = ts_us // 1_000_000, (ts_us % 1_000_000) * 1000
        else:
            sec, frac = ts_us // 1_000_000, ts_us % 1_000_000
        parts.append(struct.pack(endian + "IIII", sec, frac, len(frame), len(frame)))
        parts.append(frame)
    data = b"".join(parts)
    BUILT.append(data)
    return data


_HOSTS = ("10.0.0.1", "10.0.0.2", "192.168.7.7")
_PORTS = (80, 4444, 53)
_GAPS_US = (20_000,) * 8 + (0, 1, 700, 999_999, 1_000_000, 1_000_001,
                            4_999_999, 5_000_000, 5_000_001, 120_000_000,
                            120_000_001, -300)
_TCP_FLAGS = (ACK,) * 8 + (ACK | PSH,) * 4 + (
    SYN, SYN | ACK, ACK | URG, ECE | CWR, 0, 0xFF, ACK | FIN, RST, ACK | RST)
_MOSTLY_5 = (5,) * 32 + tuple(range(16))  # IHL or data offset, 0-15
_ONE_IN_20 = st.sampled_from((False,) * 19 + (True,))


@st.composite
def random_captures(draw, max_frames=40):
    """A capture as bytes. Frames come from 1-4 sessions between a few
    hosts and ports, in either direction and sometimes in bursts, so
    flows share keys and bulks form. They cover inter-arrival gaps
    around the 1 s bulk and subflow limit, the 5 s activity limit and
    the 120 s flow timeout (and some negative), FIN and RST mid-flow,
    zero payloads, UDP, non-IP frames, 0-2 VLAN tags, every IHL and data
    offset 0-15, DF, MF and fragment offsets, frames cut at random,
    either byte order and time resolution, and sometimes the whole file
    cut at random."""
    endpoint = st.tuples(st.sampled_from(_HOSTS), st.sampled_from(_PORTS))
    sessions = draw(st.lists(st.tuples(endpoint, endpoint, st.booleans()),
                             min_size=1, max_size=4))
    t = draw(st.integers(0, 2_000_000_000_000_000))
    frames = []
    for _ in range(draw(st.integers(0, max_frames))):
        t = max(0, t + draw(st.sampled_from(_GAPS_US)))
        (src, sport), (dst, dport), udp = draw(st.sampled_from(sessions))
        if draw(st.sampled_from((False, False, False, True))):
            (src, sport), (dst, dport) = (dst, dport), (src, sport)
        payload = draw(st.sampled_from((0, 1, 40, 40, 1400)))
        vlan = draw(st.sampled_from((0,) * 6 + (1, 2)))
        ihl = draw(st.sampled_from(_MOSTLY_5))
        frag = draw(st.sampled_from((0,) * 16 + (0x4000,) * 2 + (0x2000, 185, 0x1FFF)))
        if draw(_ONE_IN_20):
            frame = arp_frame()
        elif udp:
            frame = ethernet_ipv4_udp(src, sport, dst, dport, payload,
                                      vlan=vlan, ihl=ihl, frag=frag)
        else:
            frame = ethernet_ipv4_tcp(
                src, sport, dst, dport, payload,
                flags=draw(st.sampled_from(_TCP_FLAGS)),
                window=draw(st.integers(0, 65535)), vlan=vlan, ihl=ihl,
                data_offset=draw(st.sampled_from(_MOSTLY_5)), frag=frag)
        if draw(_ONE_IN_20):
            frame = frame[:draw(st.integers(0, len(frame)))]
        repeats = draw(st.sampled_from((1, 1, 1, 4, 6)))  # bursts, 20 ms apart
        frames.extend((t + 20_000 * k, frame) for k in range(repeats))
        t += 20_000 * (repeats - 1)
    data = pcap_bytes(frames, magic=draw(st.sampled_from((MAGIC_US, MAGIC_NS))),
                      big_endian=draw(st.booleans()))
    if draw(_ONE_IN_20):
        data = data[:draw(st.integers(0, len(data)))]
    return data


@pytest.fixture(autouse=True)
def _captures_match_oracle():
    """Every capture a test builds with `pcap_bytes` goes through
    `assert_matches_oracle` once, after the test."""
    mark = len(BUILT)
    yield
    fresh = [data for data in dict.fromkeys(BUILT[mark:]) if data not in CHECKED]
    del BUILT[mark:]
    if not fresh:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "capture.pcap"
        for data in fresh:
            CHECKED.add(data)
            path.write_bytes(data)
            assert_matches_oracle(path)


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


# --- rule texts ----------------------------------------------------------

_RULE_NAMES = ("a", "b", "c", "d", "e", "f", "g", "webshell_1")
_SEPARATORS = (" ", " ", " ", "\n", "\t", "\r\n  ", " /* note */ ", " // note\n")
# text pieces, hex items and regex atoms over a small alphabet, so that
# short random subjects match often
_TEXT_PIECES = ("a", "b", "A", "ab", " ", "é", "\\n", "\\t", '\\"', "\\\\",
                "\\x61", "\\xff")
_HEX_ITEMS = ("61", "62", "41", "00", "fF", "??")
_REGEX_ATOMS = ("a", "b", "B", "ab", "ba", ".", "[ab]", "[^a]", "\\.", "\\x61",
                "\\/", "\\d", "(a|b)", "(?:ab)", " ", "(?!zq9)")
_QUANTIFIERS = ("",) * 4 + ("?", "*", "+", "{0}", "{1,2}", "*?")
_EDIT_SNIPPETS = ('"', "/", "\\", "{", "}", "??", "$", "\n", "/*", "*/", "//",
                  "é", "€", "9", "x", "(", ")", "|", "[", "rule", " of ", "nocase",
                  "wide", "#", "2", "$s0")


# strategies built once: building one per draw costs more than drawing
_TEXT_BODY = st.lists(st.sampled_from(_TEXT_PIECES), min_size=1, max_size=5).map(
    lambda pieces: '"' + "".join(pieces) + '"')
_HEX_BODY = st.tuples(
    st.sampled_from(("", " ", " /* c */ ")),
    st.lists(st.sampled_from(_HEX_ITEMS), min_size=1, max_size=6),
).map(lambda spaced: "{ " + spaced[0].join(spaced[1]) + " }")
# an atom and its quantifier; a group that holds '|' is never repeated,
# since the parser rejects that, nor is a space, which a VERBOSE regex
# drops, so that its quantifier could repeat nothing
_REGEX_PIECE = st.tuples(st.sampled_from(_REGEX_ATOMS), st.sampled_from(_QUANTIFIERS)).map(
    lambda piece: piece[0] + ("" if "|" in piece[0] or piece[0] == " " else piece[1]))
# global flags, then pieces, then perhaps a '|' at depth 0
_REGEX_BODY = st.tuples(
    st.sampled_from(("",) * 6 + ("(?i)", "(?x)")),
    st.lists(_REGEX_PIECE, min_size=1, max_size=5),
    st.sampled_from(("",) * 5 + tuple("|" + atom for atom in _REGEX_ATOMS[:3])),
).map(lambda parts: "/" + parts[0] + "".join(parts[1]) + parts[2] + "/")
_MODIFIERS = st.sampled_from(("", " nocase", " fullword", " nocase fullword"))
_PATTERN_BODY = st.one_of(
    st.tuples(_TEXT_BODY, _MODIFIERS).map("".join),
    _HEX_BODY,
    st.tuples(_REGEX_BODY, _MODIFIERS).map("".join),
    st.tuples(_REGEX_BODY, _MODIFIERS).map("".join))
_META = st.lists(st.sampled_from(('"x y"', "12", "-3", '"\\x41"')), max_size=2)
_SPACING = st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=4)
_EDIT = st.tuples(st.sampled_from(("delete", "insert", "overwrite")),
                  st.sampled_from(_EDIT_SNIPPETS), st.integers(1, 3))
_OPERATORS = st.sampled_from(("and", "or", "not", "()"))
_NAME = st.sampled_from(_RULE_NAMES)
_PICK = st.integers(0, 255)


def _condition(draw, ids, depth=0):
    """A condition over the pattern ids: a leaf (a literal, an id, `N of
    them`, `N of (...)`) or `not`, `and`, `or`, parentheses, 2 deep."""
    leaves = ["true", "false", *ids]
    if ids:
        leaves += ["1 of them", f"{len(ids)} of them", f"1 of ({ids[-1]})",
                   f"{len(ids) - 1 or 1} of ({', '.join(reversed(ids))})"]
    if depth >= 2 or draw(st.booleans()):
        return leaves[draw(_PICK) % len(leaves)]
    op = draw(_OPERATORS)
    left = _condition(draw, ids, depth + 1)
    if op == "not":
        return f"not {left}"
    if op == "()":
        return f"({left})"
    return f"{left} {op} {_condition(draw, ids, depth + 1)}"


@st.composite
def rule_texts(draw, max_rules=3, max_edits=3):
    """Rule-file text: 1-`max_rules` valid rules, then 0-`max_edits`
    random edits. The rules cover the whole grammar: meta values of
    each type, text (escapes, non-ASCII), hex (wildcards, comments) and
    regex bodies (global flags, classes, escapes, groups, lookaheads,
    quantifiers on an atom or a group without `|`, `|`) with
    `nocase`/`fullword`, every condition form, and whitespace and
    comments between tokens; names repeat across rules.
    An edit deletes 1-3 characters, or inserts or overwrites with a
    snippet that often breaks a token, at a random place or, half the
    time, just inside a string, regex or hex body."""
    spacing = itertools.cycle(draw(_SPACING))

    def sep():
        return next(spacing)

    parts = []
    for _ in range(draw(st.integers(1, max_rules))):
        parts += ["rule", sep(), draw(_NAME), sep(), "{", sep()]
        meta = draw(_META)
        if meta:
            parts += ["meta:", sep()]
            for k, value in enumerate(meta):
                parts += [f"k{k}", sep(), "=", sep(), value, sep()]
        bodies = draw(st.lists(_PATTERN_BODY, max_size=4))
        ids = [f"$s{k}" for k in range(len(bodies))]
        if bodies:
            parts += ["strings:", sep()]
            for ident, body in zip(ids, bodies):
                parts += [ident, sep(), "=", sep(), body, sep()]
        parts += ["condition:", sep(), _condition(draw, ids), sep(), "}", sep()]
    text = "".join(parts)
    for _ in range(draw(st.integers(0, max_edits))):
        at = draw(st.integers(0, len(text)))
        bodies = [k + 1 for k, ch in enumerate(text) if ch in '"/{']
        if bodies and draw(st.booleans()):
            at = bodies[at % len(bodies)]
        edit, snippet, deleted = draw(_EDIT)
        if edit == "delete":
            text = text[:at] + text[at + deleted:]
        elif edit == "insert":
            text = text[:at] + snippet + text[at:]
        else:
            text = text[:at] + snippet + text[at + len(snippet):]
    return text


@pytest.fixture(autouse=True)
def _rule_texts_match_oracle():
    """Every text the rule parser reads during a test goes through
    `assert_parse_matches_oracle` once, after the test."""
    init = rule_parser._Parser.__init__

    def recording(self, text, path=None):
        rulelang_check.PARSED.append(text)
        init(self, text, path)

    rule_parser._Parser.__init__ = recording
    try:
        yield
    finally:
        rule_parser._Parser.__init__ = init
    fresh = [text for text in dict.fromkeys(rulelang_check.PARSED)
             if text not in rulelang_check.CHECKED]
    rulelang_check.PARSED.clear()
    for text in fresh:
        rulelang_check.assert_parse_matches_oracle(text)
