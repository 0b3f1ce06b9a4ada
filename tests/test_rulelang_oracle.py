"""The rule engine against independent references.

Parsing: `parse_rules` against the character-at-a-time parser it
replaced (`tests/rulelang_oracle.py`) on mutated rule texts: equal
rules, or an equal error message, line and column. Every other rule
text a test parses is checked the same way after that test (see
`tests/conftest.py`).

Matching: `CompiledRuleSet.occurrences` for hex-wildcard and regex
patterns against one plain `finditer` per pattern, on subjects built
from the patterns' own literal runs, whole or cut so that exactly one
adjacent byte pair is missing. `match_buffer` reports against a plain
per-pattern `finditer` (a lookahead for literals, so overlapping
occurrences count) with every rule's condition evaluated, on subjects
where most offsets pass the pair gate, across a block boundary and at
the end of the subject.
"""

import re
from dataclasses import replace

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tests.conftest import rule_texts
from tests.rulelang_check import assert_parse_matches_oracle
from wsdetect.rulelang import (
    CompiledRuleSet,
    HexBody,
    RegexBody,
    RuleSet,
    TextBody,
    match_buffer,
    parse_rules,
)
from wsdetect.rulelang.matcher import _BLOCK_SIZE, _hex_pairs, _regex_pairs, evaluate_condition
from wsdetect.rulelang.model import OfExpr

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
    """One `finditer` scan, compiled here from the pattern's source, a
    literal's as a lookahead so that overlapping occurrences count;
    fullword occurrences flanked by an ASCII letter or digit dropped."""
    if isinstance(body, TextBody):
        needle, nocase, fullword = body.value, body.nocase, body.fullword
    elif not _scanned(body):
        needle, nocase, fullword = bytes(body.tokens), False, False
    if not _scanned(body):
        rx = re.compile(b"(?=" + re.escape(needle) + b")", re.IGNORECASE if nocase else 0)
        spans = [(m.start(), len(needle)) for m in rx.finditer(subject)]
    else:
        if isinstance(body, HexBody):
            rx = re.compile(b"".join(b"." if t is None else re.escape(bytes([t]))
                                     for t in body.tokens), re.DOTALL)
            fullword = False
        else:
            rx = re.compile(body.source.encode("utf-8"),
                            re.DOTALL | (re.IGNORECASE if body.nocase else 0))
            fullword = body.fullword
        spans = [(m.start(), m.end() - m.start()) for m in rx.finditer(subject)]

    def word(pos):
        return 0 <= pos < len(subject) and chr(subject[pos]).isascii() \
            and chr(subject[pos]).isalnum()

    return [(off, n) for off, n in spans
            if not (fullword and (word(off - 1) or word(off + n)))]


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
    for i, body in enumerate(bodies):
        if _scanned(body):
            assert found.get(i, []) == _finditer_occurrences(body, subject), (body, subject)


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
    assert compiled.occurrences(b"abd ab\nd zz") == {
        0: [(0, 3)], 2: [(4, 4)], 3: [(0, 2), (4, 2)], 4: [(0, 1), (4, 1), (9, 2)]}
    assert b"bc" not in scanned and len(scanned) == 4
    assert compiled.occurrences(b"") == {}
    assert compiled.occurrences(b"a") == {4: [(0, 1)]}


def _plain_report(ruleset, subject: bytes) -> list:
    """Every rule's condition on its patterns' plain `finditer` occurrences."""
    matched = []
    for rule in ruleset.rules:
        found = {p.ident: _finditer_occurrences(p.body, subject) for p in rule.strings}
        if evaluate_condition(rule.condition, rule, {i for i, f in found.items() if f}):
            matched.append((rule.name, [(ident, off) for ident in rule.pattern_ids()
                                        for off, _ in found[ident]]))
    return matched


def _assert_report_is_plain(ruleset, subject: bytes) -> None:
    report = match_buffer(CompiledRuleSet(ruleset), subject)
    assert [(name, [(m.pattern_id, m.offset) for m in matches])
            for name, matches in report.matched] == _plain_report(ruleset, subject), subject


_ALPHABET = b"abAB. 1\x00\xff"
_CONDITIONS = ["1 of them", "not 1 of them", "not $s0", "2 of them", "$s0 and not $s1",
               "$s0 or $s1", "not ($s0 or $s1)", "true", "false"]


@st.composite
def _literal_rules(draw):
    """Rules of text, hex and a few regex patterns over a small
    alphabet: one-byte needles, shared prefixes, keys of every width,
    needles longer than a key, nocase and fullword."""
    rules, needles = [], []
    for r in range(draw(st.integers(1, 3))):
        strings = []
        for s in range(draw(st.integers(2, 4))):
            value = bytes(draw(st.lists(st.sampled_from(_ALPHABET), min_size=1, max_size=12)))
            kind = draw(st.sampled_from(["text", "text", "hex", "regex"]))
            if kind == "hex":
                strings.append(f"$s{s} = {{ {value.hex(' ')} }}")
            else:
                value = bytes(c for c in value if c in b"abAB.1 ") or b"a"
                mods = draw(st.sampled_from(["", " nocase", " fullword", " nocase fullword"]))
                if kind == "regex":
                    value = value.replace(b".", b"1")
                    strings.append(f"$s{s} = /{value.decode()}/{mods}")
                else:
                    strings.append(f'$s{s} = "{value.decode()}"{mods}')
            needles.append(value)
        condition = draw(st.sampled_from(_CONDITIONS))
        rules.append(f"rule r{r} {{ strings: {' '.join(strings)} condition: {condition} }}")
    return parse_rules("\n".join(rules)), needles


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reports_match_plain_finditer(data):
    ruleset, needles = data.draw(_literal_rules())
    pieces = st.sampled_from([bytes([c]) for c in _ALPHABET]) | st.sampled_from(
        needles + [n.upper() for n in needles])
    subject = b"".join(data.draw(st.lists(pieces, max_size=14)))
    _assert_report_is_plain(ruleset, subject)


def test_every_pair_a_candidate():
    """Each pair of the subject starts some key, so every offset but
    the last passes the pair gate."""
    ruleset = parse_rules(
        'rule r { strings: $s0 = "aababbba" $s1 = "abba" $s2 = "baab" $s3 = "bbbbbbbbbb" '
        '$s4 = "ab" $s5 = "b" condition: 1 of them }')
    _assert_report_is_plain(ruleset, b"aababbbaaabbabbbbbbbbbbbaab" * 40 + b"a")


def test_one_byte_needles_at_every_offset_and_the_ends():
    ruleset = parse_rules(
        'rule r { strings: $s0 = "a" $s1 = { 00 } $s2 = "B" nocase $s3 = { ff } '
        '$s4 = "a" fullword condition: 1 of them }')
    for subject in [b"a", b"b", b"\x00", b"ab\x00bBa", b"\xffa a", b"a" * 20]:
        _assert_report_is_plain(ruleset, subject)


def test_needles_at_the_end_and_keys_past_it():
    """A needle that ends at the last byte is found; one whose key, or
    whose tail beyond the key, runs past the end is not, even where
    the zero padding of the last window would complete it."""
    ruleset = parse_rules(
        'rule r { strings: $s0 = "xyzzy" $s1 = "xyzzy12345" $s2 = { 7a 79 00 } '
        '$s3 = "zy" $s4 = "XYZZY1" nocase condition: 1 of them }')
    for subject in [b"..xyzzy", b"..xyzzy1234", b"xyzz", b"xyzzy12345", b"zy",
                    b"..XyZzY1", b"..xyzzy\x00", b"z", b"y"]:
        _assert_report_is_plain(ruleset, subject)


def test_nocase_literals():
    ruleset = parse_rules(
        'rule r { strings: $s0 = "EvAl(" nocase $s1 = "eval(" $s2 = "EVAL(BASE64" nocase '
        '$s3 = "\xc3\x89" nocase condition: 1 of them }')
    for subject in [b"eval(x) EVAL(base64_decode EvAl(", b"Eval(", b"\xc3\xa9 \xc3\x89",
                    b"EVAL(BASE6"]:
        _assert_report_is_plain(ruleset, subject)


def test_rules_that_hold_on_the_empty_set_report_without_occurrences():
    parsed = parse_rules(
        'rule n { strings: $a = "zz" condition: not $a } '
        'rule z { strings: $a = "zz" $b = /yy/ condition: 1 of them } '
        'rule o { strings: $a = "zz" condition: $a } '
        'rule t { condition: true }')
    # the parser rejects "0 of them"; a RuleSet built in code may hold it
    n, z, o, t = parsed.rules
    ruleset = RuleSet((n, replace(z, condition=OfExpr(0, None)), o, t))
    for subject, names in [(b"", ["n", "z", "t"]), (b"hello", ["n", "z", "t"]),
                           (b"zz", ["z", "o", "t"])]:
        assert match_buffer(ruleset, subject).rule_names == names
        _assert_report_is_plain(ruleset, subject)
    assert match_buffer(ruleset, b"hello").matched[0] == ("n", [])


def test_fullword_patterns():
    ruleset = parse_rules(
        'rule r { strings: $s0 = "ab" fullword $s1 = "AB" nocase fullword '
        '$s2 = /ab+/ fullword $s3 = "ab" condition: 1 of them }')
    for subject in [b"ab", b"xab ab_ ab", b"abab", b"(ab)", b"1ab", b"AB.ab\xffab", b"abbb abx"]:
        _assert_report_is_plain(ruleset, subject)


def test_occurrences_across_a_block_boundary():
    """Subjects longer than one block: a needle and a regex's required
    pair straddling the boundary, and a needle at the very end."""
    ruleset = parse_rules(
        'rule r { strings: $s0 = "xyzzy12345" $s1 = "zq" $s2 = /q1w/ $s3 = "Tail" nocase '
        '$s4 = "x" condition: 1 of them }')
    edge = _BLOCK_SIZE
    for cut in [1, 2, 5, 9]:
        subject = bytearray(b"." * (edge + 40))
        subject[edge - cut:edge - cut + 10] = b"xyzzy12345"
        subject[edge - 1:edge + 2] = b"q1w"
        subject[-4:] = b"TAIL"
        _assert_report_is_plain(ruleset, bytes(subject))
