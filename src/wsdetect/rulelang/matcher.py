"""Pattern search and condition evaluation over byte subjects.

Literal patterns (text strings and hex strings without ``??``) are found
by exact prefix keys: a needle of length n starts at offset p if and
only if the subject's first min(n, 8) bytes at p equal the needle's
key, and ``subject[p:p+n]`` is the needle. The key test runs for all
offsets at once in numpy; the second test is one dict lookup per
distinct needle length under a matching key. ``nocase`` literals are
searched the same way in the ASCII-lowercased subject.

Hex wildcards and regexes are found by one ``finditer`` scan each, run
only when the subject holds every adjacent byte pair the pattern
requires. Once per subject, a 65,536-entry table marks the pairs it
contains (a second one marks those of the lowercased subject, for
``nocase`` regexes). A hex pattern requires the pairs of its adjacent
fixed bytes. A regex requires the pairs of its leading literal run: the
ASCII characters before its first metacharacter, less the last one when
a quantifier follows it, and nothing when the source holds ``|``;
lowercased for ``nocase``. Every match starts with that run, or holds
those fixed bytes, so a subject without one of the pairs has no match
and skipping the scan changes no occurrence.
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


class _Literals:
    """Every occurrence of a set of byte needles, found by prefix keys."""

    def __init__(self, needles: dict[bytes, list[int]]):
        self.needles = needles  # needle -> indices of the patterns it serves
        lengths: dict[bytes, set[int]] = {}
        for needle in needles:
            if needle:  # an empty needle has no key and never occurs
                lengths.setdefault(needle[:_KEY_WIDTH], set()).add(len(needle))
        # one group per key width: big-endian keys sorted, and for each
        # key the distinct lengths of the needles that start with it
        self.groups = []
        for width in sorted({len(key) for key in lengths}):
            keys = sorted(key for key in lengths if len(key) == width)
            self.groups.append((
                np.uint64(8 * (_KEY_WIDTH - width)),
                np.array([int.from_bytes(key, "big") for key in keys], dtype=np.uint64),
                [sorted(lengths[key]) for key in keys]))

    def scan(self, subject: bytes, found: list[list[tuple[int, int]]]) -> None:
        """Append (offset, length) of each occurrence to `found[pattern]`,
        offsets ascending."""
        for start in range(0, len(subject), _BLOCK_SIZE):
            count = min(_BLOCK_SIZE, len(subject) - start)
            # the key-width bytes at each offset, zero-padded past the end
            chunk = subject[start:start + count + _KEY_WIDTH - 1].ljust(
                count + _KEY_WIDTH - 1, b"\0")
            windows = np.ndarray((count,), dtype=">u8", buffer=chunk,
                                 strides=(1,)).astype(np.uint64)
            for shift, keys, lengths in self.groups:
                probe = windows >> shift
                at = np.searchsorted(keys, probe)
                at[at == len(keys)] = 0
                hits = np.flatnonzero(keys[at] == probe)
                for p, k in zip((hits + start).tolist(), at[hits].tolist()):
                    for n in lengths[k]:
                        if p + n > len(subject):
                            break  # a slice cut short by the end could equal a shorter needle
                        for i in self.needles.get(subject[p:p + n], ()):
                            found[i].append((p, n))


class CompiledRuleSet:
    """A RuleSet with its search machinery built, ready to match."""

    def __init__(self, ruleset: RuleSet):
        self.ruleset = ruleset
        patterns: list[tuple[Rule, Pattern]] = [
            (rule, pat) for rule in ruleset.rules for pat in rule.strings]
        self._patterns = patterns

        cs_needles: dict[bytes, list[int]] = {}
        ci_needles: dict[bytes, list[int]] = {}
        # pattern index and regex of each scanned pattern, and the keys of
        # the pairs it requires: a pair of the lowercased subject is keyed
        # past _PAIRS
        self._scans: list[tuple[int, re.Pattern[bytes]]] = []
        pair_keys: list[int] = []
        pair_owners: list[int] = []

        for i, (_, pat) in enumerate(patterns):
            body = pat.body
            if isinstance(body, TextBody):
                if body.nocase:
                    ci_needles.setdefault(body.value.lower(), []).append(i)
                else:
                    cs_needles.setdefault(body.value, []).append(i)
                continue
            if isinstance(body, HexBody):
                if all(t is not None for t in body.tokens):
                    cs_needles.setdefault(bytes(body.tokens), []).append(i)
                    continue
                keys = _hex_pairs(body)
                rx = _hex_to_regex(body)
            else:
                keys = _regex_pairs(body)
                rx = body.compiled
            pair_keys += keys
            pair_owners += [len(self._scans)] * len(keys)
            self._scans.append((i, rx))

        self._cs = _Literals(cs_needles) if cs_needles else None
        self._ci = _Literals(ci_needles) if ci_needles else None
        self._pair_keys = np.array(pair_keys, dtype=np.int64)
        self._pair_owners = np.array(pair_owners, dtype=np.int64)
        self._lower_pairs = any(key >= _PAIRS for key in pair_keys)

    def occurrences(self, subject: bytes) -> list[list[tuple[int, int]]]:
        """Per global pattern index: list of (offset, length) occurrences."""
        found: list[list[tuple[int, int]]] = [[] for _ in self._patterns]
        lowered = subject.lower() if self._ci is not None or self._lower_pairs else b""
        if self._cs is not None:
            self._cs.scan(subject, found)
        if self._ci is not None:
            self._ci.scan(lowered, found)
        if self._scans:
            present = np.zeros(2 * _PAIRS, dtype=bool)
            present[_pair_values(subject)] = True
            if self._lower_pairs:
                present[_PAIRS:][_pair_values(lowered)] = True
            # per scan, how many of its required pairs the subject lacks
            missing = np.bincount(self._pair_owners[~present[self._pair_keys]],
                                  minlength=len(self._scans))
            for (i, rx), absent in zip(self._scans, missing.tolist()):
                if not absent:
                    found[i] = [(m.start(), m.end() - m.start())
                                for m in rx.finditer(subject)]
        # fullword: occurrences flanked by alphanumerics do not count
        for i, (_, pat) in enumerate(self._patterns):
            body = pat.body
            if getattr(body, "fullword", False) and found[i]:
                found[i] = [
                    (off, length) for off, length in found[i]
                    if _is_fullword(subject, off, length)]
        return found


def _pair_values(subject: bytes) -> np.ndarray:
    """The big-endian 16-bit value of each adjacent byte pair."""
    b = np.frombuffer(subject, dtype=np.uint8).astype(np.uint16)
    return (b[:-1] << 8) | b[1:]


def _hex_pairs(body: HexBody) -> list[int]:
    """Keys of the pairs of adjacent fixed bytes of a hex pattern."""
    return [a << 8 | b for a, b in zip(body.tokens, body.tokens[1:])
            if a is not None and b is not None]


def _regex_pairs(body: RegexBody) -> list[int]:
    """Keys of the pairs of a regex's leading literal run: every match
    starts with it. Conservative: the run ends at the first
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
    if body.nocase:
        run = bytes(run).lower()
    base = _PAIRS if body.nocase else 0
    return [base + (a << 8 | b) for a, b in zip(run, run[1:])]


def _hex_to_regex(body: HexBody) -> re.Pattern[bytes]:
    parts = [b"." if t is None else re.escape(bytes([t])) for t in body.tokens]
    return re.compile(b"".join(parts), re.DOTALL)


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

    per_rule: dict[str, dict[str, list[int]]] = {}
    for i, (rule, pattern) in enumerate(compiled._patterns):
        if found[i]:
            per_rule.setdefault(rule.name, {})[pattern.ident] = [
                off for off, _ in found[i]]

    report = MatchReport(subject=subject_id)
    for rule in compiled.ruleset.rules:
        present = set(per_rule.get(rule.name, {}))
        if evaluate_condition(rule.condition, rule, present):
            matches = [
                PatternMatch(pattern_id=ident, offset=off)
                for ident in rule.pattern_ids()
                for off in per_rule.get(rule.name, {}).get(ident, [])]
            report.matched.append((rule.name, matches))
    return report
