"""Pattern search and condition evaluation over byte subjects.

Every literal pattern (a text string, or a hex string without ``??``)
is searched in one pass over the ASCII-lowercased subject, keyed by its
lowercased bytes. A needle of length n is at offset p if and only if
the lowered subject's first min(n, 8) bytes at p equal the lowered
needle's key, ``lower[p:p+n]`` is the lowered needle, and, unless the
pattern is ``nocase`` or the needle holds no ASCII letter, the subject's
own ``subject[p:p+n]`` is the needle. Keys are grouped by width, and
each group has a table of its keys' first byte pairs (of first bytes,
for width 1). Only at offsets whose pair is in the table is the 8-byte
window read and looked up among the sorted keys; the second test is one
dict lookup per distinct needle length under a matching key.

Hex wildcards and regexes are found by one ``finditer`` scan each over
the subject, run only when the lowered subject holds every lowercased
adjacent byte pair the pattern requires. The lowered subject is read in
blocks of 65,536 offsets; the pair values of a block are computed once,
gate the literal search and mark a 65,536-entry table of the pairs the
lowered subject contains. A hex pattern requires the pairs of its
adjacent fixed bytes. A regex requires the pairs of its leading literal
run: the ASCII characters before its first metacharacter, less the last
one when a quantifier follows it, and nothing when the source holds
``|``. Every match starts with that run, or holds those fixed bytes, so
the lowered subject holds their lowercased pairs; a subject without one
of them has no match, and skipping the scan changes no occurrence.

A condition reads only which of its rule's patterns occurred. So
`match_buffer` evaluates it only for rules with an occurring pattern,
and reports the other rules whose condition holds on the empty set
(``not $a``, ``0 of them``), a verdict taken once at compile time.
"""

from __future__ import annotations

import re

import numpy as np

from wsdetect.rulelang.model import (
    And,
    BoolLiteral,
    Condition,
    HexBody,
    MatchReport,
    Not,
    OfExpr,
    Or,
    Pattern,
    PatternMatch,
    RegexBody,
    Rule,
    RuleSet,
    StringRef,
    TextBody,
)

_KEY_WIDTH = 8  # bytes of a needle's key: one uint64 window
_BLOCK_SIZE = 1 << 16  # subject offsets keyed per numpy pass

_WORD_BYTES = frozenset(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")

_PAIRS = 1 << 16  # adjacent byte pairs, as big-endian 16-bit values
_REGEX_META = frozenset(".^$*+?{}[]()|\\")
_QUANTIFIERS = frozenset("?*+{")
_LOWER = bytes(range(256)).lower()  # each byte's ASCII lowercase
_ESCAPED = [re.escape(bytes([b])) for b in range(256)]  # each byte as a regex


class _Block:
    """Offsets `start` to `start + count - 1` of a subject, count at most
    _BLOCK_SIZE: the byte at each, the pair value at each that has a
    next byte, and the key-width window at each, zero-padded past the
    end (a strided view: only the windows indexed are read)."""

    def __init__(self, subject: bytes, start: int):
        count = min(_BLOCK_SIZE, len(subject) - start)
        chunk = subject[start:start + count + _KEY_WIDTH - 1].ljust(
            count + _KEY_WIDTH - 1, b"\0")
        data = np.frombuffer(chunk, dtype=np.uint8)
        self.start = start
        self.bytes = data[:count]
        self.pairs = _pair_values(data[:min(count + 1, len(subject) - start)])
        self.windows = np.ndarray((count,), dtype=">u8", buffer=chunk, strides=(1,))


class _Literals:
    """Every occurrence of a set of byte needles, found by prefix keys in
    the lowercased subject."""

    def __init__(self, needles: dict[bytes, list[tuple[int, bytes | None]]]):
        # lowered needle -> (pattern index, needle to confirm in the
        # subject, or None when any case matches) of each pattern it serves
        self.needles = needles
        self.groups = _key_groups(needles)

    def scan(self, subject: bytes, lower: bytes, block: _Block,
             found: dict[int, list[tuple[int, int]]]) -> None:
        """Append (offset, length) of each occurrence starting in `block`,
        a block of `lower`, to `found[pattern]`, offsets ascending."""
        for paired, gate, shift, keys, lengths in self.groups:
            at = np.flatnonzero(gate[block.pairs if paired else block.bytes])
            probe = block.windows[at].astype(np.uint64) >> shift
            k = np.searchsorted(keys, probe)
            k[k == len(keys)] = 0
            hit = keys[k] == probe
            for p, key in zip((at[hit] + block.start).tolist(), k[hit].tolist()):
                for n in lengths[key]:
                    if p + n > len(subject):
                        break  # a slice cut short by the end could equal a shorter needle
                    for i, exact in self.needles.get(lower[p:p + n], ()):
                        if exact is None or subject[p:p + n] == exact:
                            found.setdefault(i, []).append((p, n))


def _key_groups(needles) -> list[tuple]:
    """One group per key width of the non-empty `needles`: whether it is
    gated on byte pairs, the table of its keys' first pairs (first bytes
    for width 1), the shift that right-aligns a key-width window, the
    big-endian keys sorted, and for each key the distinct lengths of the
    needles that start with it. An empty needle has no key and never
    occurs."""
    lengths: dict[bytes, set[int]] = {}
    for needle in needles:
        if needle:
            lengths.setdefault(needle[:_KEY_WIDTH], set()).add(len(needle))
    keys = list(lengths)
    widths = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys))
    # each key left-aligned in a big-endian window, zero-padded
    values = np.frombuffer(b"".join([key.ljust(_KEY_WIDTH, b"\0") for key in keys]),
                           dtype=">u8").astype(np.uint64)
    groups = []
    for width in np.unique(widths).tolist():
        rows = np.flatnonzero(widths == width)
        rows = rows[np.argsort(values[rows])]
        gate = np.zeros(_PAIRS if width > 1 else 256, dtype=bool)
        gate[values[rows] >> np.uint64(8 * _KEY_WIDTH - (16 if width > 1 else 8))] = True
        shift = np.uint64(8 * (_KEY_WIDTH - width))
        groups.append((width > 1, gate, shift, values[rows] >> shift,
                       [sorted(lengths[keys[j]]) for j in rows.tolist()]))
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
        # pattern index and regex of each scanned pattern, and the keys of
        # the lowercased pairs it requires
        self._scans: list[tuple[int, re.Pattern[bytes]]] = []
        pair_keys: list[int] = []
        pair_owners: list[int] = []

        for i, (_, pat) in enumerate(patterns):
            body = pat.body
            if isinstance(body, TextBody):
                needle, nocase = body.value, body.nocase
            elif isinstance(body, HexBody) and None not in body.tokens:
                needle, nocase = bytes(body.tokens), False
            else:
                needle = None
            if needle is not None:
                lower = needle.lower()
                # a hit on a needle without ASCII letters needs no confirming
                exact = None if nocase or lower == needle.upper() else needle
                needles.setdefault(lower, []).append((i, exact))
                continue
            if isinstance(body, HexBody):
                keys = _hex_pairs(body)
                rx = _hex_to_regex(body)
            else:
                keys = _regex_pairs(body)
                rx = body.compiled
            pair_keys += keys
            pair_owners += [len(self._scans)] * len(keys)
            self._scans.append((i, rx))

        self._literals = _Literals(needles) if needles else None
        self._pair_keys = np.array(pair_keys, dtype=np.int64)
        self._pair_owners = np.array(pair_owners, dtype=np.int64)

    def occurrences(self, subject: bytes) -> dict[int, list[tuple[int, int]]]:
        """The (offset, length) occurrences of each pattern that occurs,
        by global pattern index; a pattern that does not occur has no
        entry."""
        found: dict[int, list[tuple[int, int]]] = {}
        lower = subject.lower()
        # the lowercased pairs the subject holds
        present = np.zeros(_PAIRS, dtype=bool) if self._scans else None
        for start in range(0, len(lower), _BLOCK_SIZE):
            block = _Block(lower, start)
            if present is not None:
                present[block.pairs] = True
            if self._literals is not None:
                self._literals.scan(subject, lower, block, found)
        if self._scans:
            # per scan, how many of its required pairs the subject lacks
            missing = np.bincount(self._pair_owners[~present[self._pair_keys]],
                                  minlength=len(self._scans))
            for (i, rx), absent in zip(self._scans, missing.tolist()):
                if not absent:
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


def _pair_values(data: np.ndarray) -> np.ndarray:
    """The big-endian 16-bit value of each adjacent pair of uint8 `data`,
    as indices."""
    b = data.astype(np.uint16)
    return ((b[:-1] << 8) | b[1:]).astype(np.intp)


def _hex_pairs(body: HexBody) -> list[int]:
    """Keys of the lowercased pairs of adjacent fixed bytes of a hex
    pattern."""
    return [_LOWER[a] << 8 | _LOWER[b] for a, b in zip(body.tokens, body.tokens[1:])
            if a is not None and b is not None]


def _regex_pairs(body: RegexBody) -> list[int]:
    """Keys of the lowercased pairs of a regex's leading literal run:
    every match starts with it. Conservative: the run ends at the first
    metacharacter or non-ASCII character, loses its last character when
    a quantifier ends it, and is empty when the source holds '|'."""
    if "|" in body.source:
        return []
    run = []
    for ch in body.source:
        if ch in _REGEX_META or not ch.isascii():
            if ch in _QUANTIFIERS:
                del run[-1:]
            break
        run.append(ord(ch))
    run = bytes(run).lower()
    return [a << 8 | b for a, b in zip(run, run[1:])]


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


def match_buffer(rules: RuleSet | CompiledRuleSet, subject: bytes,
                 subject_id: str = "<buffer>") -> MatchReport:
    """Match every rule against a byte subject.

    A rule is reported iff its condition is true with each string
    reference valued by "occurs at least once in the subject". Matched
    rules carry all occurrence offsets of their occurring patterns.
    """
    compiled = rules if isinstance(rules, CompiledRuleSet) else CompiledRuleSet(rules)
    found = compiled.occurrences(subject)

    # per rule with an occurring pattern: pattern id -> offsets, in
    # declaration order
    per_rule: dict[int, dict[str, list[int]]] = {}
    for i in sorted(found):
        per_rule.setdefault(compiled._rule_of[i], {})[compiled._patterns[i][1].ident] = [
            off for off, _ in found[i]]

    report = MatchReport(subject=subject_id)
    for r in sorted(per_rule.keys() | compiled._hold_empty):
        rule, hits = compiled.ruleset.rules[r], per_rule.get(r, {})
        if not hits or evaluate_condition(rule.condition, rule, set(hits)):
            matches = [PatternMatch(pattern_id=ident, offset=off)
                       for ident, offsets in hits.items() for off in offsets]
            report.matched.append((rule.name, matches))
    return report
