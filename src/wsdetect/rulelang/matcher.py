"""Pattern search and condition evaluation over byte subjects.

Every literal pattern (a text string, or a hex string without ``??``)
is searched in one pass over the ASCII-lowercased subject, keyed by its
lowercased bytes. A needle of length n is at offset p if and only if
the lowered subject's first min(n, 8) bytes at p equal the lowered
needle's key, ``lower[p:p+n]`` is the lowered needle, and, unless the
pattern is ``nocase`` or the needle holds no ASCII letter, the subject's
own ``subject[p:p+n]`` is the needle.

The lowered subject, padded once with zero bytes, is read through two
strided views: its big-endian 16-bit pair value and its big-endian
8-byte window at every offset. It is taken in blocks of 65,536 offsets,
and a block's pair values are cast to indices in one pass. One table
lookup per offset keeps the offsets whose pair starts some key;
everything after works on those few. Keys are grouped by width. An
offset reaches a group's window probe only if its pair is the first
pair of one of the group's keys (its first byte, for width 1) and, for
keys of width 3 or more, the pair two bytes on (one, for width 3) is
the pair one of the keys holds there. Each pair table is exact for the
pairs it tests, so the gates drop no occurrence. The window is then
looked up among the group's sorted keys, and the second test is one
dict lookup per distinct needle length under a matching key.

Hex wildcards and regexes are found by one ``finditer`` scan each over
the subject, run only where the literal pass found the pattern's
required literal of 2 bytes or more, one more needle: a hex pattern's
longest run of fixed bytes, in the subject's case, or a regex's
`model._required_literal`, in any case when the regex ignores case and
in the subject's case otherwise. Every match holds it, so skipping the
scan changes no occurrence. The literal's own hits are dropped.

A condition reads only which of its rule's patterns occurred. So
`match_buffer` evaluates it only for rules with an occurring pattern,
and names the other rules whose condition holds on the empty set
(``not $a``, ``0 of them``), a verdict taken once at compile time.
"""

from __future__ import annotations

import re
from itertools import groupby

import numpy as np

from wsdetect.rulelang.model import (
    And,
    BoolLiteral,
    Condition,
    HexBody,
    Not,
    OfExpr,
    Or,
    Pattern,
    Rule,
    RuleSet,
    StringRef,
    TextBody,
    _required_literal,
)

_KEY_WIDTH = 8  # bytes of a needle's key: one uint64 window
_BLOCK_SIZE = 1 << 16  # subject offsets keyed per numpy pass
_LOOKAHEAD = 2  # pairs read past a block's end: a key's second gated pair starts 1 or 2 in

_WORD_BYTES = frozenset(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")

_PAIRS = 1 << 16  # adjacent byte pairs, as big-endian 16-bit values
_ESCAPED = [re.escape(bytes([b])) for b in range(256)]  # each byte as a regex


class _Block:
    """Offsets `start` to `start + count - 1` of a subject, count at most
    _BLOCK_SIZE: the pair value at each and at the _LOOKAHEAD offsets
    after it, as indices cast into `buffer`, and the key-width window at
    each (a view: only the windows indexed are read)."""

    def __init__(self, pairs: np.ndarray, windows: np.ndarray, start: int,
                 buffer: np.ndarray):
        count = min(_BLOCK_SIZE, len(windows) - start)
        self.start = start
        self.count = count
        self.pairs = buffer[:count + _LOOKAHEAD]
        np.copyto(self.pairs, pairs[start:start + count + _LOOKAHEAD])
        self.windows = windows[start:start + count]


def _views(lower: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The big-endian pair at every offset of `lower` and at the
    _LOOKAHEAD offsets past its end, and the big-endian key-width window
    at every offset: two strided views of `lower` padded with zero
    bytes."""
    padded = lower + bytes(_KEY_WIDTH)
    pairs = np.ndarray((len(lower) + _LOOKAHEAD,), dtype=">u2", buffer=padded, strides=(1,))
    windows = np.ndarray((len(lower),), dtype=">u8", buffer=padded, strides=(1,))
    return pairs, windows


class _Literals:
    """Every occurrence of a set of byte needles, found by prefix keys in
    the lowercased subject."""

    def __init__(self, needles: dict[bytes, list[tuple[int, bytes | None]]]):
        # lowered needle -> (pattern index, needle to confirm in the
        # subject, or None when any case matches) of each pattern it serves
        self.needles = needles
        self.groups = _key_groups(needles)

    def scan(self, subject: bytes, lower: bytes, block: _Block, at: np.ndarray,
             firsts: np.ndarray, found: dict[int, list[tuple[int, int]]]) -> None:
        """Append (offset, length) of each occurrence starting in `block`,
        a block of `lower`, to `found[pattern]`, offsets ascending. `at`
        holds, ascending, the block offsets whose pair starts a key, and
        `firsts` the pair at each."""
        pairs = block.pairs
        for gate, second, step, shift, keys, lengths, bounds in self.groups:
            here = at[gate[firsts]]
            if second is not None and len(here):
                here = here[second[pairs[here + step]]]
            if not len(here):
                continue
            probe = block.windows[here].astype(np.uint64) >> shift
            k = np.searchsorted(keys, probe)
            k[k == len(keys)] = 0
            hit = keys[k] == probe
            for p, key in zip((here[hit] + block.start).tolist(), k[hit].tolist()):
                for n in lengths[bounds[key]:bounds[key + 1]]:
                    if p + n > len(subject):
                        break  # a slice cut short by the end could equal a shorter needle
                    for i, exact in self.needles.get(lower[p:p + n], ()):
                        if exact is None or subject[p:p + n] == exact:
                            found.setdefault(i, []).append((p, n))


def _key_groups(needles) -> list[tuple]:
    """One group per key width of the non-empty `needles`, widths
    ascending: the table of its keys' first pairs (for width 1, of every
    pair that starts with a key's byte); the table of the pairs its keys
    hold at offset `step`, 1 for width 3 and 2 above, or None below
    width 3; `step`; the shift that right-aligns a key-width window; the
    big-endian keys sorted; and the distinct needle lengths of key j,
    ascending, at `lengths[bounds[j]:bounds[j + 1]]`. An empty needle has
    no key and never occurs."""
    nonempty = [needle for needle in needles if needle]
    lengths = np.fromiter(map(len, nonempty), dtype=np.intp, count=len(nonempty))
    widths = np.minimum(lengths, _KEY_WIDTH)
    # each key left-aligned in a big-endian window, zero-padded
    values = np.frombuffer(b"".join([needle[:_KEY_WIDTH].ljust(_KEY_WIDTH, b"\0")
                                     for needle in nonempty]), dtype=">u8").astype(np.uint64)
    order = np.lexsort((lengths, values, widths))
    widths, values, lengths = widths[order], values[order], lengths[order]
    # a row starts a key where its width or value differs from the row
    # before; it is kept where it starts a key or brings a new length
    new_key = np.ones(len(order), dtype=bool)
    new_key[1:] = (widths[1:] != widths[:-1]) | (values[1:] != values[:-1])
    keep = new_key.copy()
    keep[1:] |= lengths[1:] != lengths[:-1]
    widths, values, lengths, new_key = widths[keep], values[keep], lengths[keep], new_key[keep]
    groups = []
    edges = np.flatnonzero(np.diff(widths, prepend=0, append=_KEY_WIDTH + 1)).tolist()
    for lo, hi in zip(edges, edges[1:]):
        width = int(widths[lo])
        starts = np.flatnonzero(new_key[lo:hi])
        keys = values[lo:hi][starts]
        gate = np.zeros(_PAIRS, dtype=bool)
        if width > 1:
            gate[keys >> 48] = True
        else:
            gate.reshape(256, 256)[keys >> 56] = True
        step = 1 if width == 3 else 2
        second = None
        if width >= 3:
            second = np.zeros(_PAIRS, dtype=bool)
            second[(keys >> (48 - 8 * step)) & 0xFFFF] = True
        shift = np.uint64(8 * (_KEY_WIDTH - width))
        groups.append((gate, second, step, shift, keys >> shift, lengths[lo:hi].tolist(),
                       starts.tolist() + [hi - lo]))
    return groups


class CompiledRuleSet:
    """A RuleSet with its search machinery built, ready to match."""

    def __init__(self, ruleset: RuleSet):
        self.ruleset = ruleset
        patterns: list[tuple[Rule, Pattern]] = [
            (rule, pat) for rule in ruleset.rules for pat in rule.strings]
        self._patterns = patterns
        # per pattern, the index of its rule; the rules whose condition
        # holds when no pattern occurs; the fullword patterns
        self._rule_of = [r for r, rule in enumerate(ruleset.rules) for _ in rule.strings]
        self._hold_empty = frozenset(
            r for r, rule in enumerate(ruleset.rules)
            if evaluate_condition(rule.condition, rule, set()))
        self._fullword = [i for i, (_, pat) in enumerate(patterns)
                          if getattr(pat.body, "fullword", False)]

        needles: dict[bytes, list[tuple[int, bytes | None]]] = {}
        # pattern index and regex of each scanned pattern, and whether a
        # literal gates it
        self._scans: list[tuple[int, re.Pattern[bytes], bool]] = []

        for i, (_, pat) in enumerate(patterns):
            body, rx, nocase = pat.body, None, False
            if isinstance(body, TextBody):
                needle, nocase = body.value, body.nocase
            elif isinstance(body, HexBody):
                needle = max((bytes(run) for wild, run in groupby(body.tokens, lambda t: t is None)
                              if not wild), key=len, default=b"")
                rx = _hex_to_regex(body) if None in body.tokens else None
            else:
                rx = body.compiled
                # VERBOSE drops whitespace and comments from the source, and
                # LOCALE may fold a letter's case to a byte above 0x7f
                needle = b"" if rx.flags & (re.VERBOSE | re.LOCALE) else \
                    _required_literal(body.source).encode()
                nocase = rx.flags & re.IGNORECASE
            if rx is not None:
                self._scans.append((i, rx, len(needle) >= 2))
                if len(needle) < 2:
                    continue
            lower = needle.lower()
            # a hit on a needle without ASCII letters needs no confirming
            exact = None if nocase or lower == needle.upper() else needle
            needles.setdefault(lower, []).append((i, exact))

        self._literals = _Literals(needles)
        # the pairs worth a look: those that start a key
        self._gate = np.zeros(_PAIRS, dtype=bool)
        for group in self._literals.groups:
            self._gate |= group[0]

    def occurrences(self, subject: bytes) -> dict[int, list[tuple[int, int]]]:
        """The (offset, length) occurrences of each pattern that occurs,
        by global pattern index; a pattern that does not occur has no
        entry."""
        found: dict[int, list[tuple[int, int]]] = {}
        lower = subject.lower()
        pairs, windows = _views(lower)
        buffer = np.empty(min(len(lower), _BLOCK_SIZE) + _LOOKAHEAD, dtype=np.intp)
        for start in range(0, len(lower), _BLOCK_SIZE):
            block = _Block(pairs, windows, start, buffer)
            at = np.flatnonzero(self._gate[block.pairs[:block.count]])
            self._literals.scan(subject, lower, block, at, block.pairs[at], found)
        for i, rx, gated in self._scans:
            # the gate literal's hits stand in for the scan's until it runs
            if found.pop(i, None) is None and gated:
                continue
            spans = [(m.start(), m.end() - m.start()) for m in rx.finditer(subject)]
            if spans:
                found[i] = spans
        # fullword: occurrences flanked by alphanumerics do not count
        for i in self._fullword:
            spans = [(off, length) for off, length in found.pop(i, ())
                     if _is_fullword(subject, off, length)]
            if spans:
                found[i] = spans
        return found


def _hex_to_regex(body: HexBody) -> re.Pattern[bytes]:
    return re.compile(b"".join([b"." if t is None else _ESCAPED[t] for t in body.tokens]),
                      re.DOTALL)


def _is_fullword(subject: bytes, offset: int, length: int) -> bool:
    before = subject[offset - 1] if offset > 0 else None
    after_pos = offset + length
    after = subject[after_pos] if after_pos < len(subject) else None
    return (before is None or before not in _WORD_BYTES) and (
        after is None or after not in _WORD_BYTES)


def evaluate_condition(node: Condition, rule: Rule, present: set[str]) -> bool:
    """Evaluate a condition where `present` holds the ids that occurred."""
    if isinstance(node, BoolLiteral):
        return node.value
    if isinstance(node, StringRef):
        return node.ident in present
    if isinstance(node, OfExpr):
        targets = rule.pattern_ids() if node.targets is None else node.targets
        return sum(1 for ident in targets if ident in present) >= node.count
    if isinstance(node, And):
        return evaluate_condition(node.left, rule, present) and \
            evaluate_condition(node.right, rule, present)
    if isinstance(node, Or):
        return evaluate_condition(node.left, rule, present) or \
            evaluate_condition(node.right, rule, present)
    if isinstance(node, Not):
        return not evaluate_condition(node.operand, rule, present)
    raise TypeError(f"unknown condition node {node!r}")


class _RuleNames(list):
    """A list of rule names that also answers `rule_names`, the attribute
    `bench/tests/test_bench.py` reads of a match; delete it once that
    test compares the list itself."""

    @property
    def rule_names(self) -> list[str]:
        return list(self)


def match_buffer(rules: RuleSet | CompiledRuleSet, subject: bytes) -> list[str]:
    """The names of the rules that match a byte subject, in rule order.

    A rule matches iff its condition is true with each string reference
    valued by "occurs at least once in the subject".
    """
    compiled = rules if isinstance(rules, CompiledRuleSet) else CompiledRuleSet(rules)
    # per rule with an occurring pattern, the ids of those patterns
    present: dict[int, set[str]] = {}
    for i in compiled.occurrences(subject):
        present.setdefault(compiled._rule_of[i], set()).add(compiled._patterns[i][1].ident)
    names = _RuleNames()
    for r in sorted(present.keys() | compiled._hold_empty):
        rule, ids = compiled.ruleset.rules[r], present.get(r)
        if ids is None or evaluate_condition(rule.condition, rule, ids):
            names.append(rule.name)
    return names
