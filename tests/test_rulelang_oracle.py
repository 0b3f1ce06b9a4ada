"""The rule engine against independent references.

Parsing: `parse_rules` against the character-at-a-time parser it
replaced (`tests/rulelang_oracle.py`) on mutated rule texts: equal
rules, or an equal error message, line and column. Every other rule
text a test parses is checked the same way after that test (see
`tests/conftest.py`).

Matching: `CompiledRuleSet.occurrences` for hex-wildcard and regex
patterns against one plain `finditer` per pattern, on subjects built
from the patterns' own literal runs, whole or cut so that exactly one
adjacent byte pair is missing.
"""

import re

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tests.conftest import rule_texts
from tests.rulelang_check import assert_parse_matches_oracle
from wsdetect.rulelang import CompiledRuleSet, HexBody, RegexBody, parse_rules
from wsdetect.rulelang.matcher import _hex_pairs, _regex_pairs

_SUBJECT_BYTES = [bytes([b]) for b in b"abAB.\n\x00\xff"]


@given(rule_texts())
@settings(max_examples=250, deadline=None)
@example('rule a { strings: $a = { 61 /* 62 } condition: $a }')
@example('rule a { strings: $a = { 61 6 } condition: $a }')
@example('rule a { strings: $a = {\n} condition: $a }')
@example('rule a { strings: $a = "ab\\')
@example('rule a { strings: $a = "\\x4" condition: $a }')
@example('rule a { strings: $a = /a\\/b\\/')
@example('rule a { strings: $a = /a\\\\/ condition: $a }')
@example('rule a { strings: $ = "x" condition: true }')
@example('rule 12ab { condition: true }')
@example('rule a\r\n{ condition:\ttrue } /* open')
@example('rule a { condition: true }\r\n  rule a { condition: false }')
def test_mutated_rule_texts_parse_as_the_oracle_does(text):
    assert_parse_matches_oracle(text)


def _scanned(body) -> bool:
    return isinstance(body, RegexBody) or (
        isinstance(body, HexBody) and None in body.tokens)


def _finditer_occurrences(body, subject: bytes) -> list[tuple[int, int]]:
    """One `finditer` scan, compiled here from the pattern's source;
    fullword occurrences flanked by an ASCII letter or digit dropped."""
    if isinstance(body, HexBody):
        rx = re.compile(b"".join(b"." if t is None else re.escape(bytes([t]))
                                 for t in body.tokens), re.DOTALL)
        fullword = False
    else:
        rx = re.compile(body.source.encode("utf-8"),
                        re.DOTALL | (re.IGNORECASE if body.nocase else 0))
        fullword = body.fullword

    def word(pos):
        return 0 <= pos < len(subject) and chr(subject[pos]).isascii() \
            and chr(subject[pos]).isalnum()

    return [(m.start(), m.end() - m.start()) for m in rx.finditer(subject)
            if not (fullword and (word(m.start() - 1) or word(m.end())))]


def _lead(body, data) -> bytes:
    """Bytes a match of the pattern could start with: a regex's leading
    letters, or a hex pattern with a subject byte in each wildcard."""
    if isinstance(body, RegexBody):
        return re.match(r"[A-Za-z]*", body.source).group().encode()
    return b"".join(bytes([t]) if t is not None else data.draw(st.sampled_from(
        _SUBJECT_BYTES)) for t in body.tokens)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_scanned_patterns_match_plain_finditer(data):
    ruleset = parse_rules(data.draw(rule_texts(max_rules=1, max_edits=0)))
    bodies = [p.body for p in ruleset.rules[0].strings]
    assume(any(_scanned(body) for body in bodies))
    pieces = st.sampled_from(_SUBJECT_BYTES)
    for body in filter(_scanned, bodies):
        lead = _lead(body, data)
        pieces |= st.just(lead)
        if len(lead) >= 2:  # the same bytes less one adjacent pair
            cut = data.draw(st.integers(1, len(lead) - 1))
            pieces |= st.just(lead[:cut] + b"\n" + lead[cut:])
    subject = b"".join(data.draw(st.lists(pieces, max_size=8)))
    found = CompiledRuleSet(ruleset).occurrences(subject)
    for body, occurrences in zip(bodies, found):
        if _scanned(body):
            assert occurrences == _finditer_occurrences(body, subject), (body, subject)


def _pairs(run: bytes, lower: bool = False) -> list[int]:
    return [(1 << 16) * lower + (a << 8 | b) for a, b in zip(run, run[1:])]


def test_required_pairs_are_taken_conservatively():
    cases = {
        "abcd": b"abcd",          # a literal run to the end
        "abc.d": b"abc",          # ends at a metacharacter
        "abc?d": b"ab",           # a quantifier drops the literal before it
        "ab{0}c": b"a",
        "abc*": b"ab",
        "ab+": b"a",
        "abé": b"ab",             # ends at a non-ASCII character
        "ab\\.c": b"ab",          # ends at an escape
        "abc|d": b"",             # alternation: no pairs at all
        "(ab)c": b"",
        "^abc": b"",
    }
    for source, run in cases.items():
        assert _regex_pairs(RegexBody(source)) == _pairs(run), source
    assert _regex_pairs(RegexBody("AbC", nocase=True)) == _pairs(b"abc", lower=True)
    assert _hex_pairs(HexBody((0x61, 0x62, None, 0x63, None, 0x64, 0x65))) == \
        _pairs(b"ab") + _pairs(b"de")


def test_a_missing_pair_skips_only_patterns_that_need_it():
    ruleset = parse_rules(
        "rule r { strings: $x = /abc?d/ $y = /bc/ $h = { 61 62 ?? 64 } "
        "$n = /AB/ nocase $z = /a|zz/ condition: true }")
    compiled = CompiledRuleSet(ruleset)
    scanned = []

    class Spy:
        def __init__(self, rx):
            self.rx = rx

        def finditer(self, subject):
            scanned.append(self.rx.pattern)
            return self.rx.finditer(subject)

    compiled._scans = [(i, Spy(rx)) for i, rx in compiled._scans]
    # "ab" present, "bc" missing: $y cannot match, the others still can
    assert compiled.occurrences(b"abd ab\nd zz") == [
        [(0, 3)], [], [(4, 4)], [(0, 2), (4, 2)], [(0, 1), (4, 1), (9, 2)]]
    assert b"bc" not in scanned and len(scanned) == 4
    assert compiled.occurrences(b"") == [[], [], [], [], []]
    assert compiled.occurrences(b"a") == [[], [], [], [], [(0, 1)]]
