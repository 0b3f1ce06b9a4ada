"""Pattern search and condition evaluation over byte subjects.

Literal patterns (text strings and hex strings without ``??``) are found
by exact prefix keys: a needle of length n starts at offset p if and
only if the subject's first min(n, 8) bytes at p equal the needle's
key, and ``subject[p:p+n]`` is the needle. The key test runs for all
offsets at once in numpy; the second test is one dict lookup per
distinct needle length under a matching key. ``nocase`` literals are
searched the same way in the ASCII-lowercased subject. Hex wildcards
and regexes fall back to per-pattern regex scans.
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
    Rule,
    RuleSet,
    StringRef,
    TextBody,
)

_KEY_WIDTH = 8  # bytes of a needle's key: one uint64 window
_BLOCK_SIZE = 1 << 16  # subject offsets keyed per numpy pass

_WORD_BYTES = frozenset(
    b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")


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
        self._regex: list[tuple[int, re.Pattern[bytes]]] = []

        for i, (_, pat) in enumerate(patterns):
            body = pat.body
            if isinstance(body, TextBody):
                if body.nocase:
                    ci_needles.setdefault(body.value.lower(), []).append(i)
                else:
                    cs_needles.setdefault(body.value, []).append(i)
            elif isinstance(body, HexBody):
                if all(t is not None for t in body.tokens):
                    cs_needles.setdefault(bytes(body.tokens), []).append(i)
                else:
                    self._regex.append((i, _hex_to_regex(body)))
            else:
                flags = re.DOTALL | (re.IGNORECASE if body.nocase else 0)
                self._regex.append((i, re.compile(body.source.encode("latin-1"), flags)))

        self._cs = _Literals(cs_needles) if cs_needles else None
        self._ci = _Literals(ci_needles) if ci_needles else None

    def occurrences(self, subject: bytes) -> list[list[tuple[int, int]]]:
        """Per global pattern index: list of (offset, length) occurrences."""
        found: list[list[tuple[int, int]]] = [[] for _ in self._patterns]
        if self._cs is not None:
            self._cs.scan(subject, found)
        if self._ci is not None:
            self._ci.scan(subject.lower(), found)
        for i, rx in self._regex:
            spans = [(m.start(), m.end() - m.start()) for m in rx.finditer(subject)]
            found[i] = spans
        # fullword: occurrences flanked by alphanumerics do not count
        for i, (_, pat) in enumerate(self._patterns):
            body = pat.body
            if getattr(body, "fullword", False) and found[i]:
                found[i] = [
                    (off, length) for off, length in found[i]
                    if _is_fullword(subject, off, length)]
        return found


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
