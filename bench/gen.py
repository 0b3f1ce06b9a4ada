"""Seeded input generators for the benchmark.

Everything here is a pure function of its seed and size arguments and
imports nothing from the package under test, so the same seed gives
byte-identical inputs on every commit. Each generator returns the
bytes it made together with the truth it planted, which the workloads
check the program's outputs against.
"""

from __future__ import annotations

import random
import socket
import struct
from dataclasses import dataclass, field

import numpy as np

# Input sizes. "tiny" exists for the benchmark's own smoke tests.
SIZES = {
    "full": {"bulk_flows": 300, "bulk_packets": (150, 500),
             "requests": 24, "request_flows": 50,
             "scan_chunks": 6, "scan_sizes": (2_000, 5_000, 10_000, 20_000, 40_000,
                                              80_000, 140_000, 200_000),
             "rules": 250, "train_long": 60, "train_short": 900,
             "oci_vectors": 192, "flow_rows": 20_000},
    "tiny": {"bulk_flows": 12, "bulk_packets": (20, 40),
             "requests": 4, "request_flows": 10,
             "scan_chunks": 1, "scan_sizes": (600, 900, 1200, 1500, 2000, 2500,
                                               3000, 4000),
             "rules": 12, "train_long": 6, "train_short": 200,
             "oci_vectors": 6, "flow_rows": 300},
}

# --- pcap ------------------------------------------------------------------

_PCAP_HEADER = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
_RECORD = struct.Struct("<IIII")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_TCP = struct.Struct("!HHIIBBHHH")
_UDP = struct.Struct("!HHHH")
_MACS = b"\xaa" * 6 + b"\xbb" * 6
_ETH_IPV4 = _MACS + b"\x08\x00"
_ETH_VLAN = _MACS + struct.pack("!HHH", 0x8100, 42, 0x0800)
_ZEROS = bytes(2048)

FIN, SYN, PSH, ACK = 0x01, 0x02, 0x08, 0x10
MTU_PAYLOAD = 1460  # 1500-byte IP MTU minus IPv4 and TCP headers

# All captures share one time base so the absolute Timestamp feature the
# DNN reads lies in the range it was trained on.
EPOCH_US = 1_700_000_000 * 1_000_000


def pcap_bytes(records) -> bytes:
    """A classic little-endian microsecond pcap from (timestamp_us, frame)
    pairs, built in linear time with one join."""
    parts = [_PCAP_HEADER]
    for ts_us, frame in records:
        parts.append(_RECORD.pack(ts_us // 1_000_000, ts_us % 1_000_000,
                                  len(frame), len(frame)))
        parts.append(frame)
    return b"".join(parts)


def tcp_frame(src: bytes, sport: int, dst: bytes, dport: int, payload: int,
              flags: int, window: int, vlan: bool = False) -> bytes:
    tcp = _TCP.pack(sport, dport, 0, 0, 5 << 4, flags, window, 0, 0)
    ip = _IPV4.pack(0x45, 0, 40 + payload, 0, 0, 64, 6, 0, src, dst)
    return (_ETH_VLAN if vlan else _ETH_IPV4) + ip + tcp + _ZEROS[:payload]


def udp_frame(src: bytes, sport: int, dst: bytes, dport: int, payload: int,
              vlan: bool = False) -> bytes:
    udp = _UDP.pack(sport, dport, 8 + payload, 0)
    ip = _IPV4.pack(0x45, 0, 28 + payload, 0, 0, 64, 17, 0, src, dst)
    return (_ETH_VLAN if vlan else _ETH_IPV4) + ip + udp + _ZEROS[:payload]


def non_ip_frame(rng: random.Random) -> bytes:
    """An ARP or IPv6 frame: the reader must skip and count it."""
    if rng.random() < 0.5:
        return b"\xff" * 6 + b"\xbb" * 6 + b"\x08\x06" + bytes(28)
    return _MACS + b"\x86\xdd" + bytes(40)


# --- traffic -----------------------------------------------------------------

ATTACKER_POOL = tuple(f"10.66.{i // 250}.{i % 250 + 1}" for i in range(64))
WEBSHELL_PORT = 8080  # planted webshell flows only; benign traffic never uses it
_SERVERS = tuple(f"10.0.0.{i}" for i in range(1, 9))
_BENIGN_WINDOW, _ATTACKER_WINDOW, _SERVER_WINDOW = 64240, 29200, 65535


@dataclass
class Capture:
    """One generated capture and the truth planted in it."""

    data: bytes
    packets: int           # IPv4 TCP/UDP frames, the ones the reader keeps
    skipped: int           # non-IP frames, the ones it must skip
    flows: int
    webshell: set[tuple[str, int]] = field(default_factory=set)  # (src ip, port)
    benign: set[tuple[str, int]] = field(default_factory=set)


def _gap(rng: random.Random, mean_us: float) -> int:
    return 1 + min(int(rng.expovariate(1.0 / mean_us)), 5_000_000)


def _flow_events(rng: random.Random, kind: str, n_packets: int):
    """(forward?, payload bytes, tcp flags) per packet of one flow."""
    if kind == "udp":
        events = []
        while len(events) < n_packets:
            events.append((True, rng.randint(30, 90), 0))
            events.append((False, rng.randint(90, 512), 0))
        return events[:n_packets]
    events = [(True, 0, SYN), (False, 0, SYN | ACK), (True, 0, ACK)]
    while len(events) < n_packets - 1:
        if kind == "webshell":
            events.append((True, rng.randint(700, 1400), PSH | ACK))
            events.append((False, rng.randint(40, 400), PSH | ACK))
            events.append((True, 0, ACK))
        else:
            events.append((True, rng.randint(80, 600), PSH | ACK))
            for seg in range(rng.randint(1, 8)):
                events.append((False, MTU_PAYLOAD, ACK))
                if seg % 2:
                    events.append((True, 0, ACK))
            events.append((False, rng.randint(1, MTU_PAYLOAD), PSH | ACK))
    # FIN only on the last packet: the next same-key packet would start a
    # new flow and break the planted flow count
    return events[:n_packets - 1] + [(True, 0, FIN | ACK)]


def traffic_capture(seed: int, *, long_flows: int = 0, long_packets=(150, 500),
                    short_flows: int = 0, short_packets=(6, 14),
                    webshell_share: float = 0.03, non_ip_share: float = 0.01,
                    vlan_share: float = 0.1, start_spread_s: float = 40.0,
                    truncate: bool = False) -> Capture:
    """Benign web/DNS flows mixed with planted webshell flows.

    Webshell flows run from `ATTACKER_POOL` sources to port 8080 with
    large client commands and small replies; benign flows fetch pages
    (requests, MTU-sized responses, bare ACKs) or resolve names over
    UDP. A share of flows is VLAN-tagged and a share of extra non-IP
    frames is mixed in. With `truncate` the final record is cut short.
    """
    rng = random.Random(seed)
    shapes = [long_packets] * long_flows + [short_packets] * short_flows
    n_attack = max(1, round(webshell_share * len(shapes))) if shapes else 0
    attack_slots = set(rng.sample(range(len(shapes)), n_attack))
    ports = rng.sample(range(20000, 65000), len(shapes))
    mean_gap = 30_000.0 if long_flows else 40_000.0
    records = []
    capture = Capture(data=b"", packets=0, skipped=0, flows=len(shapes))
    for i, (lo, hi) in enumerate(shapes):
        n = rng.randint(lo, hi)
        sport = ports[i]
        vlan = rng.random() < vlan_share
        if i in attack_slots:
            kind, client = "webshell", rng.choice(ATTACKER_POOL)
            dport, window = WEBSHELL_PORT, _ATTACKER_WINDOW
            capture.webshell.add((client, sport))
        else:
            kind = "udp" if rng.random() < 0.2 else "web"
            client = f"192.168.{rng.randint(0, 15)}.{rng.randint(1, 254)}"
            dport = 53 if kind == "udp" else rng.choice((80, 443))
            window = _BENIGN_WINDOW
            capture.benign.add((client, sport))
        c_raw, s_raw = socket.inet_aton(client), socket.inet_aton(rng.choice(_SERVERS))
        t = EPOCH_US + int(rng.random() * start_spread_s * 1e6)
        for seq, (fwd, payload, flags) in enumerate(_flow_events(rng, kind, n)):
            src, sp, dst, dp = (c_raw, sport, s_raw, dport) if fwd else \
                (s_raw, dport, c_raw, sport)
            if kind == "udp":
                frame = udp_frame(src, sp, dst, dp, payload, vlan)
            else:
                frame = tcp_frame(src, sp, dst, dp, payload, flags,
                                  window if fwd else _SERVER_WINDOW, vlan)
            records.append((t, i, seq, frame))
            t += _gap(rng, mean_gap if fwd else mean_gap / 4)
        capture.packets += n
    end = max((r[0] for r in records), default=EPOCH_US)
    capture.skipped = int(non_ip_share * capture.packets)
    for j in range(capture.skipped):
        records.append((EPOCH_US + rng.randint(0, end - EPOCH_US), -1, j,
                        non_ip_frame(rng)))
    records.sort(key=lambda r: r[:3])
    data = pcap_bytes((r[0], r[3]) for r in records)
    capture.data = data[:-7] if truncate else data
    return capture


# --- source scanning --------------------------------------------------------

_WORDS = ("user", "name", "value", "data", "item", "list", "page", "post",
          "form", "id", "count", "index", "query", "row", "result", "path",
          "file", "config", "cache", "session", "token", "view", "render")
_ALNUM = "abcdefghijklmnopqrstuvwxyz0123456789"


def _token(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(_ALNUM) for _ in range(n))


@dataclass
class RuleSpec:
    name: str
    condition: str
    strings: list[tuple[str, str, bytes]]  # (ident, rule text, bytes to plant)


def rule_set(seed: int, n_rules: int = 250) -> list[RuleSpec]:
    """Rules with four strings each: text, `nocase`, `fullword`, hex with
    and without `??` wildcards, and a few regexes.

    Every literal is a random 12-14 character token or a run of bytes
    above 0x7f, which the VLD generator never writes, so a file matches
    a rule only where a rule's strings were planted.
    """
    rng = random.Random(seed)
    conditions = ("1 of them", "$s0 and $s1", "2 of ($s0, $s1, $s2)",
                  "$s3 or ($s0 and $s2)")
    specs = []
    for r in range(n_rules):
        strings = []
        for s in range(4):
            ident = f"$s{s}"
            roll = rng.random()
            if roll < 0.12:
                raw = bytes(rng.randint(0x80, 0xFE) for _ in range(8))
                holes = set(rng.sample(range(1, 7), 2)) if rng.random() < 0.5 else set()
                hexes = " ".join("??" if k in holes else f"{b:02x}"
                                 for k, b in enumerate(raw))
                strings.append((ident, f"{{ {hexes} }}", raw))
            elif roll < 0.20:
                head, tail = _token(rng, 6), _token(rng, 5)
                planted = f"{head}{rng.randint(100, 999)}{tail}".encode()
                strings.append((ident, f"/{head}[0-9]{{3}}{tail}/", planted))
            else:
                tok = _token(rng, rng.randint(12, 14))
                modifier = ""
                planted = tok
                if roll < 0.35:
                    modifier = " nocase"
                    planted = "".join(c.upper() if rng.random() < 0.5 else c
                                      for c in tok)
                elif roll < 0.45:
                    modifier = " fullword"
                strings.append((ident, f'"{tok}"{modifier}', planted.encode()))
        specs.append(RuleSpec(f"bench_rule_{r:04d}", conditions[r % 4], strings))
    return specs


def rules_text(specs: list[RuleSpec]) -> str:
    out = []
    for spec in specs:
        out.append(f"rule {spec.name} {{\n  meta:\n    family = \"bench\"\n"
                   "  strings:\n")
        for ident, text, _ in spec.strings:
            out.append(f"    {ident} = {text}\n")
        out.append(f"  condition:\n    {spec.condition}\n}}\n\n")
    return "".join(out)


_VLD_HEADER = (
    "Finding entry points\n"
    "Branch analysis from position: 0\n"
    "filename:       /var/www/html/{name}.php\n"
    "function name:  (null)\n"
    "compiled vars:  !0 = $user, !1 = $data\n"
    "line      #* E I O op                           fetch          ext  return  operands\n"
    "-------------------------------------------------------------------------------------\n")


def vld_dump(rng: random.Random, size: int, mnemonics: list[str], name: str,
             plants: list[bytes] = ()) -> bytes:
    """A VLD opcode dump of about `size` bytes; each planted byte string
    becomes the operand of one op row at a random position."""
    rows = [_VLD_HEADER.format(name=name).encode()]
    total = len(rows[0])
    op = 0
    while total < size:
        line = 2 + op // 3
        operand = rng.choice((f"!{rng.randint(0, 9)}", f"'{rng.choice(_WORDS)}'",
                              f"~{rng.randint(0, 99)}", f"${rng.choice(_WORDS)}"))
        row = (f"{line:>5}{op:>6}    {rng.choice(mnemonics):<30}"
               f"{'':<20}{operand}\n").encode()
        rows.append(row)
        total += len(row)
        op += 1
    for plant in plants:
        at = rng.randint(1, len(rows))
        rows.insert(at, f"{2 + op:>5}{op:>6}    SEND_VAL{'':<42}'".encode()
                    + plant + b"'\n")
        op += 1
    return b"".join(rows)


def notes_text(rng: random.Random, size: int) -> bytes:
    """Lower-case prose with numbers: no opcode rows, matches no rule."""
    words = []
    total = 0
    while total < size:
        word = rng.choice(_WORDS) if rng.random() < 0.8 else str(rng.randint(0, 999))
        words.append(word)
        total += len(word) + 1
    return " ".join(words).encode() + b"\n"


@dataclass
class ScanFile:
    name: str
    data: bytes
    rule: str | None = None   # the planted rule, None for a rule-clean file
    opcodes: bool = True      # False: no opcode rows, must be a parse error


def scan_tree(seed: int, mnemonics: list[str], specs: list[RuleSpec],
              chunks: int, sizes: tuple[int, ...]) -> list[list[ScanFile]]:
    """Chunks of files with the same make-up, so every chunk costs about
    the same: one VLD dump per size in `sizes`, two of them (rotating
    slots, a quarter of the dumps) carrying a planted rule, plus one
    notes file with no opcode rows."""
    rng = random.Random(seed)
    out = []
    for c in range(chunks):
        planted_slots = {c % 4, c % 4 + 4}
        files = []
        for slot, size in enumerate(sizes):
            name = f"c{c:02d}_{slot}_{size}.vld"
            if slot in planted_slots:
                spec = rng.choice(specs)
                plants = [p for _, _, p in spec.strings]
                files.append(ScanFile(name, vld_dump(rng, size, mnemonics, name,
                                                     plants), rule=spec.name))
            else:
                files.append(ScanFile(name, vld_dump(rng, size, mnemonics, name)))
        files.append(ScanFile(f"c{c:02d}_notes.txt", notes_text(rng, 2_000),
                              opcodes=False))
        rng.shuffle(files)
        out.append(files)
    return out


# --- training inputs -----------------------------------------------------------

def oci_rows(seed: int, n: int, vocab_size: int, max_length: int,
             ) -> tuple[list[tuple[int, ...]], list[int]]:
    """Zero-padded opcode index rows; label-1 rows carry a planted
    trigram of indices."""
    rng = np.random.default_rng(seed)
    trigram = [vocab_size, vocab_size - 1, vocab_size - 2]
    rows, labels = [], []
    for i in range(n):
        label = i % 2
        length = int(rng.integers(max_length // 6, max_length + 1))
        body = rng.integers(1, vocab_size - 2, size=length).tolist()
        if label:
            at = int(rng.integers(0, max(1, length - 3)))
            body[at:at + 3] = trigram
            body = body[:length]
        rows.append(tuple(body + [0] * (max_length - len(body))))
        labels.append(label)
    return rows, labels


def flow_rows(seed: int, n: int, webshell_share: float = 0.1,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(categoricals [n, 2], continuous [n, 77], labels [n]) with the two
    classes separated along one random direction."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < webshell_share).astype(np.int64)
    direction = rng.normal(size=77)
    direction /= np.linalg.norm(direction)
    cont = rng.normal(size=(n, 77)) + np.outer(2 * labels - 1, 1.5 * direction)
    ports = np.where(labels == 1, WEBSHELL_PORT,
                     rng.choice([80, 443, 53, 22], size=n))
    protos = np.where(ports == 53, 17, 6)
    return np.column_stack([ports, protos]), cont, labels
