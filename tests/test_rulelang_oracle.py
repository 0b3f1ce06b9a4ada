"""The rule engine against independent references.

Parsing: `parse_rules` against the character-at-a-time parser it
replaced (`tests/rulelang_oracle.py`) on mutated rule texts: equal
rules, or an equal error message, line and column. Every other rule
text a test parses is checked the same way after that test (see
`tests/conftest.py`).

Matching: `CompiledRuleSet.occurrences` for hex-wildcard and regex
patterns against one plain `finditer` per pattern, on subjects built
from each scan's gate literal (whole, case-flipped or cut once) and
from matches drawn from the patterns themselves; the literal reader on
each construct that ends a run. Every pattern's `occurrences`, and the
rule names `match_buffer` gives, against a plain per-pattern `finditer`
(a lookahead for literals, so overlapping occurrences count) with every
rule's condition evaluated on it, on subjects
where most offsets pass the pair gate, across a block boundary and at
the end of the subject. Case-sensitive text and hex literals, which are
looked up in the lowercased subject and confirmed in the subject, against
the same `finditer` on subjects holding exact and case-flipped copies.
The two pair gates of wider keys at widths 3 and up, across a block
boundary, at the subject's end and on pairs that differ only in case.
The key tables against a loop that builds them one key at a time.
"""

import itertools
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tests.conftest import rule_texts
from tests.rulelang_check import assert_parse_matches_oracle
from wsdetect.rulelang import (
    CompiledRuleSet,
    HexBody,
    Pattern,
    RegexBody,
    Rule,
    RuleSet,
    TextBody,
    match_buffer,
    parse_rules,
)
from wsdetect.rulelang.matcher import _BLOCK_SIZE, _key_groups, evaluate_condition
from wsdetect.rulelang.model import BoolLiteral, OfExpr, _required_literal

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


# Comments and whitespace placed between tokens of the large rule file
_GAPS = (" ", " /* c */ ", "\n  ", " // c\n", "\t/* a\n b */\t", "\r\n ")
# Characters that open, close or break a token
_EDIT_CHARS = '"/\\{}?$\n*x9 (-'


def _large_rule_file(n_rules: int = 260) -> str:
    """A rule file of `n_rules` rules that together use every body kind
    (text with escapes, hex with wildcards, regex) and modifier, integer
    and negative meta values, nested `and`/`or`/`not` and `N of (...)`,
    with a comment or line break between every kind of token, inside
    hex bodies too. Each gap is taken in turn from `_GAPS`."""
    gaps = itertools.cycle(_GAPS)

    def spaced(*tokens):
        return "".join(token + next(gaps) for token in tokens)

    out = []
    for k in range(n_rules):
        hex_items = ["4d", "5A", "??", f"{k % 256:02x}", "??"][:2 + k % 4]
        out.append(spaced(
            "rule", f"r{k}", "{",
            "meta", ":", "k0", "=", f'"v{k}\\x41"', "k1", "=", "-", str(k),
            "k2", "=", str(k * 7),
            "strings", ":",
            "$t", "=", f'"text{k}\\n"', "nocase", "fullword",
            "$h", "=", "{", *hex_items, "}",
            "$r", "=", f"/ab{k}[0-9]{{2}}\\/x/", "nocase",
            "$w", "=", f'"w{k}"', "fullword",
            "condition", ":",
            *[("(", "$t", "or", "not", "$h", ")", "and", "(", "2", "of", "(", "$t", ",",
               "$r", ",", "$w", ")", "or", "not", "not", "$w", ")"),
              ("1", "of", "them"),
              ("not", "(", "$h", "and", "$r", ")", "or", "4", "of", "them"),
              ("3", "of", "(", "$w", ",", "$h", ",", "$r", ")", "and", "true")][k % 4],
            "}"))
    return "".join(out)


def test_single_character_edits_deep_in_a_large_file_parse_as_the_oracle_does():
    # token resync bugs show only far into a file, after many tokens of
    # every kind: each edit, wherever it falls, must give the oracle's
    # rules or its error
    text = _large_rule_file()
    assert len(parse_rules(text).rules) == 260
    assert_parse_matches_oracle(text)
    rng = random.Random(10)
    hex_body = r"\{(?:" + "|".join(map(re.escape, _GAPS)) + r")4d[^}]*\}"
    after_hex = [m.end() for m in re.finditer(hex_body, text)]
    assert len(after_hex) == 260
    positions = [rng.randrange(k * len(text) // 40, (k + 1) * len(text) // 40)
                 for k in range(40)] + rng.sample(after_hex, 20)
    for k, at in enumerate(positions):
        char = _EDIT_CHARS[k % len(_EDIT_CHARS)]
        edit = k % 3
        if edit == 0:
            edited = text[:at] + text[at + 1:]
        elif edit == 1:
            edited = text[:at] + char + text[at:]
        else:
            edited = text[:at] + char + text[at + 1:]
        assert_parse_matches_oracle(edited)


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


def _gate_literals(compiled: CompiledRuleSet) -> dict[int, bytes]:
    """The literal each gated scan waits for, by pattern index: in its
    own case where the scan confirms the case, else lowercased."""
    gated = {i for i, _, is_gated in compiled._scans if is_gated}
    return {i: exact or lower for lower, owners in compiled._literals.needles.items()
            for i, exact in owners if i in gated}


def _instance(body, data) -> bytes:
    """Bytes that may match the pattern: a hex pattern with a subject byte
    in each wildcard, or a match drawn from the regex, perhaps
    case-flipped. The draw reads the regex case-sensitively, since
    `from_regex` fails on some bytes regexes that ignore case."""
    if isinstance(body, RegexBody):
        rx = re.compile(body.source.removeprefix("(?i)").encode(), re.DOTALL)
        match = data.draw(st.from_regex(rx, fullmatch=True))
        return match.swapcase() if data.draw(st.booleans()) else match
    return b"".join(bytes([t]) if t is not None else data.draw(st.sampled_from(
        _SUBJECT_BYTES)) for t in body.tokens)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_scanned_patterns_match_plain_finditer(data):
    ruleset = parse_rules(data.draw(rule_texts(max_rules=1, max_edits=0)))
    bodies = [p.body for p in ruleset.rules[0].strings]
    assume(any(_scanned(body) for body in bodies))
    compiled = CompiledRuleSet(ruleset)
    pieces = [*_SUBJECT_BYTES, *(_instance(body, data) for body in filter(_scanned, bodies))]
    for literal in _gate_literals(compiled).values():
        # the whole literal, in its case and flipped, and the literal cut once
        cut = data.draw(st.integers(1, len(literal) - 1))
        pieces += [literal, literal.swapcase(), literal[:cut] + b"\n" + literal[cut:]]
    subject = b"".join(data.draw(st.lists(st.sampled_from(pieces), max_size=8)))
    found = compiled.occurrences(subject)
    for i, body in enumerate(bodies):
        if _scanned(body):
            assert found.get(i, []) == _finditer_occurrences(body, subject), (body, subject)


@pytest.mark.parametrize("source, literal", [
    ("abcd", "abcd"),         # a literal run to the end
    ("abc.d", "abc"),         # '.' ends a run
    ("^abc$", "abc"),
    ("abc?d", "ab"),          # a quantifier drops the character before it
    ("ab{0}cd", "cd"),
    ("ab{1,2}c", "a"),
    ("a{,2}bc", "bc"),
    ("abc*?de", "ab"),        # a lazy quantifier is one quantifier
    ("a{bcd", "bcd"),         # a '{' that starts no quantifier ends a run
    ("ab{}cd", "}cd"),
    ("abé", "ab"),            # a non-ASCII character ends a run
    ("ab\\.cde", "cde"),      # an escape ends a run, and is read whole
    ("\\x61bc", "bc"),
    ("\\0123", "3"),
    ("a\\d{2}bc", "bc"),
    (".*zq9", "zq9"),         # the longest run, anywhere in the regex
    ("[abc]de", "de"),        # a class is no run, nor is any group
    ("[]ab]de", "de"),
    ("(abc)de", "de"),
    ("(?!abc)de", "de"),
    ("(?i)abc", "abc"),
    ("(?:a(b)c)de", "de"),
    ("(a|b)cd", "cd"),        # a '|' inside a group is no alternative
    ("(a\\)bcd)e", "e"),
    ("abc|d", ""),            # a '|' at depth 0: no literal
    ("ab(?#c|d)cd", "abcd"),  # a comment is skipped as the compiler skips it
    ("abc(?#c)*d", "ab"),
    ("ab]}c", "ab]}c"),       # a ']' or '}' outside a class is plain
])
def test_a_required_literal_is_the_longest_plain_run_at_depth_0(source, literal):
    re.compile(source.encode())  # the reader reads regexes that compile
    assert _required_literal(source) == literal


def test_a_gate_literal_takes_its_case_and_flags_from_the_pattern():
    ruleset = parse_rules(
        "rule r { strings: $a = /AbC/ $b = /AbC/ nocase $c = /(?i)AbC/ $d = /(?x)A bC/ "
        "$e = /12.34/ $h = { 41 62 ?? 43 44 45 ?? 46 } $w = { 41 ?? 62 } $l = /(?iL)AbC/ "
        "condition: true }")
    assert _gate_literals(CompiledRuleSet(ruleset)) == {
        0: b"AbC", 1: b"abc", 2: b"abc", 4: b"12", 5: b"CDE"}
    # a literal with no letter needs no case; VERBOSE drops whitespace from
    # the source, a hex run of one byte is too short to gate, and LOCALE
    # may fold a letter's case to a byte above 0x7f
    assert [gated for _, _, gated in CompiledRuleSet(ruleset)._scans] == [
        True, True, True, False, True, True, False, False]


class _Spy:
    """A compiled regex that records the pattern of each `finditer` call."""

    def __init__(self, rx, scanned: list):
        self.rx, self.scanned = rx, scanned

    def finditer(self, subject):
        self.scanned.append(self.rx.pattern)
        return self.rx.finditer(subject)


def _spied(ruleset) -> tuple[CompiledRuleSet, list]:
    compiled, scanned = CompiledRuleSet(ruleset), []
    compiled._scans = [(i, _Spy(rx, scanned), gated) for i, rx, gated in compiled._scans]
    return compiled, scanned


def test_a_missing_literal_skips_only_the_scans_that_need_it():
    ruleset = parse_rules(
        "rule r { strings: $x = /x.*zq9/ $y = /ab+cd/ $h = { 61 62 ?? 64 65 66 } "
        "$n = /ABC/ nocase $c = /AbC/ $z = /a|zz/ condition: true }")
    compiled, scanned = _spied(ruleset)
    # "cd" and "def" present, "zq9" missing, "AbC" only in another case
    assert compiled.occurrences(b"abbcd abXdef abc zz") == {
        1: [(0, 5)], 2: [(6, 6)], 3: [(13, 3)], 5: [(0, 1), (6, 1), (13, 1), (17, 2)]}
    assert scanned == [b"ab+cd", b"ab.def", b"ABC", b"a|zz"]
    scanned.clear()
    assert compiled.occurrences(b"") == {}
    assert compiled.occurrences(b"a") == {5: [(0, 1)]}
    assert scanned == [b"a|zz"] * 2


def test_a_quadratic_regex_without_its_literal_is_not_scanned():
    """/.*zq9/ backtracks from every offset of a subject without zq9, in
    time quadratic in its length; the gate keeps it from running."""
    compiled, scanned = _spied(parse_rules('rule r { strings: $a = /.*zq9/ condition: $a }'))
    subject = b"x" * 40_000
    assert compiled.occurrences(subject) == {} and scanned == []
    assert match_buffer(compiled, subject) == []
    subject += b"zq9"
    assert compiled.occurrences(subject) == {0: _finditer_occurrences(
        compiled.ruleset.rules[0].strings[0].body, subject)} == {0: [(0, 40_003)]}
    assert scanned == [b".*zq9"]


def _plain_report(ruleset, subject: bytes) -> tuple[list[str], dict]:
    """The names of the rules whose condition holds on their patterns'
    plain `finditer` occurrences, and those occurrences by global
    pattern index, as `occurrences` gives them: a pattern that does not
    occur has no entry."""
    names, found = [], {}
    patterns = itertools.count()
    for rule in ruleset.rules:
        present = set()
        for pattern, i in zip(rule.strings, patterns):
            spans = _finditer_occurrences(pattern.body, subject)
            if spans:
                found[i] = spans
                present.add(pattern.ident)
        if evaluate_condition(rule.condition, rule, present):
            names.append(rule.name)
    return names, found


def _assert_report_is_plain(ruleset, subject: bytes) -> None:
    compiled = CompiledRuleSet(ruleset)
    names, found = _plain_report(ruleset, subject)
    assert match_buffer(compiled, subject) == names, subject
    assert compiled.occurrences(subject) == found, subject


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
        assert match_buffer(ruleset, subject) == names
        _assert_report_is_plain(ruleset, subject)
    assert CompiledRuleSet(ruleset).occurrences(b"hello") == {}


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


_CASED_BYTES = b"aAzZeE\x80\xc9\xe9\xff.0"


@st.composite
def _cased_rules(draw):
    """One rule of case-sensitive text and hex needles over ASCII letters
    of both cases and bytes from 0x80, with a few nocase needles."""
    patterns, needles = [], []
    for k in range(draw(st.integers(1, 5))):
        needle = bytes(draw(st.lists(st.sampled_from(_CASED_BYTES), min_size=1, max_size=11)))
        kind = draw(st.sampled_from(["text", "text", "hex", "nocase"]))
        body = HexBody(tuple(needle)) if kind == "hex" else \
            TextBody(needle, nocase=kind == "nocase")
        patterns.append(Pattern(f"$s{k}", body))
        needles.append(needle)
    return RuleSet((Rule("r", (), tuple(patterns), BoolLiteral(True)),)), needles


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_case_sensitive_needles_match_plain_finditer(data):
    """Literals are looked up in the lowercased subject; a case-sensitive
    hit counts only where the subject itself holds the needle."""
    ruleset, needles = data.draw(_cased_rules())
    pieces = st.sampled_from([bytes([c]) for c in _CASED_BYTES]) | st.sampled_from(
        needles + [n.swapcase() for n in needles] + [n.lower() for n in needles])
    subject = b"".join(data.draw(st.lists(pieces, max_size=12)))
    found = CompiledRuleSet(ruleset).occurrences(subject)
    for i, pattern in enumerate(ruleset.rules[0].strings):
        assert found.get(i, []) == _finditer_occurrences(pattern.body, subject), subject


def test_a_case_flipped_copy_of_a_case_sensitive_needle_is_no_occurrence():
    ruleset = RuleSet((Rule("r", (), (
        Pattern("$t", TextBody(b"EvAl\xc9(")),
        Pattern("$h", HexBody(tuple(b"Sh\x80LL"))),
        Pattern("$n", TextBody(b"EvAl\xc9(", nocase=True))), BoolLiteral(True)),))
    compiled = CompiledRuleSet(ruleset)
    assert compiled.occurrences(b"eVaL\xc9( sH\x80ll") == {2: [(0, 6)]}
    assert compiled.occurrences(b"EvAl\xc9( Sh\x80LL") == {
        0: [(0, 6)], 1: [(7, 5)], 2: [(0, 6)]}


def test_width_three_keys_pass_both_pair_gates():
    """A width-3 key's second gated pair is its bytes 1-2: offsets whose
    first pair or whose second pair alone matches are no occurrence."""
    ruleset = parse_rules(
        'rule r { strings: $s0 = "abc" $s1 = "xBc" nocase $s2 = { 61 62 64 } $s3 = "q" '
        '$s4 = "ab" $s5 = "abcd" condition: 1 of them }')
    for subject in [b"abc", b"abx", b"zbc", b"xbc XBC xbC", b"abdabcabc", b"ab",
                    b"..abc", b"..ab", b"aBc", b"q abcd abc"]:
        _assert_report_is_plain(ruleset, subject)


def test_second_pair_across_a_block_boundary():
    """Keys whose first pair ends a block and whose second pair starts
    the next one, for width 3 (second pair one byte on) and wider keys
    (two bytes on), beside decoys whose first pair alone matches."""
    ruleset = parse_rules(
        'rule r { strings: $s0 = "k3z" $s1 = "k4yz" $s2 = "k8abcdef" $s3 = "K9ABCDEFG" nocase '
        '$s4 = "k4yQ" condition: 1 of them }')
    edge = _BLOCK_SIZE
    for needle in [b"k3z", b"k4yz", b"k8abcdef", b"k9abcdefg", b"k4yQ", b"k4yq"]:
        for at in range(edge - len(needle), edge + 1):
            subject = bytearray(b"." * (edge + 16))
            subject[at:at + len(needle)] = needle
            subject[at - 8:at - 5] = needle[:2] + b"."  # first pair only
            subject[at + 12:at + 16] = b"k4.z"
            _assert_report_is_plain(ruleset, bytes(subject))


def test_second_pair_in_the_last_bytes_of_the_subject():
    """A key's second pair at the subject's last two bytes, or cut by its
    end: the zero padding past the end passes a second pair that ends in
    zero bytes, and a slice cut by the end can equal a shorter needle,
    so a needle there must still not be reported."""
    ruleset = parse_rules(
        'rule r { strings: $s0 = "wxyz" $s1 = { 77 78 00 00 } $s2 = { 77 00 00 } '
        '$s3 = "wxy" $s4 = { 78 79 00 } $s5 = "wx" $s6 = "wxyzwxyz" $s7 = "wxyzwxyz12" '
        'condition: 1 of them }')
    for subject in [b"..wxyz", b"..wxy", b"..wx", b"..w", b"wxyz", b"..wx\x00",
                    b"..wx\x00\x00", b"..w\x00", b"..w\x00\x00", b"..xy", b"xy\x00",
                    b"..wxyzwxyz", b"..wxyzwxyz1", b"wxyzwxyz12"]:
        _assert_report_is_plain(ruleset, subject)


def test_second_pairs_that_differ_only_in_case():
    """The pair tables hold lowercased pairs; a case-sensitive key is
    confirmed in the subject, so case-flipped second pairs are no
    occurrence of it, and are one of a `nocase` key."""
    ruleset = parse_rules(
        'rule r { strings: $s0 = "evAL" $s1 = "evaL(" $s2 = "sYsTem" nocase $s3 = "abC" '
        '$s4 = "abc" condition: 1 of them }')
    for subject in [b"evAL evAl evaL( EVAL( evAL(", b"system SYSTEM sYsTem", b"abC abc ABC aBc",
                    b"evAl", b"SYSTEm"]:
        _assert_report_is_plain(ruleset, subject)


def _loop_key_groups(needles) -> list[tuple]:
    """The key tables built one key at a time: per key width, the keys'
    first pairs (each first byte followed by any byte, for width 1),
    their pairs one byte on (width 3) or two (wider), the sorted keys,
    and each key's needle lengths, sorted."""
    lengths: dict[bytes, set[int]] = {}
    for needle in needles:
        if needle:
            lengths.setdefault(needle[:8], set()).add(len(needle))
    groups = []
    for width in sorted({len(key) for key in lengths}):
        keys = sorted(key for key in lengths if len(key) == width)
        gate = np.zeros(1 << 16, dtype=bool)
        for key in keys:
            if width == 1:
                gate[key[0] << 8:(key[0] + 1) << 8] = True
            else:
                gate[int.from_bytes(key[:2], "big")] = True
        step = 1 if width == 3 else 2
        second = None
        if width >= 3:
            second = np.zeros(1 << 16, dtype=bool)
            second[[int.from_bytes(key[step:step + 2], "big") for key in keys]] = True
        bounds = [0]
        for key in keys:
            bounds.append(bounds[-1] + len(lengths[key]))
        groups.append((
            gate, second, step, np.uint64(8 * (8 - width)),
            np.array([int.from_bytes(key, "big") for key in keys], dtype=np.uint64),
            [n for key in keys for n in sorted(lengths[key])], bounds))
    return groups


_NEEDLES = st.binary(max_size=12) | st.lists(
    st.sampled_from(b"aA\x00\xff"), max_size=12).map(bytes)


@given(st.sets(_NEEDLES, max_size=40))
@settings(max_examples=200, deadline=None)
@example({b"abcdefghX", b"abcdefghY", b"abcdefgh", b"a", b"a\x00", b"abc"})
def test_key_groups_equal_the_loop_builder(needles):
    got, want = _key_groups(needles), _loop_key_groups(needles)
    assert len(got) == len(want)
    for (gate, second, step, shift, keys, lengths, bounds), (
            w_gate, w_second, w_step, w_shift, w_keys, w_lengths, w_bounds) in zip(got, want):
        assert (step, shift, lengths, bounds) == (w_step, w_shift, w_lengths, w_bounds)
        assert gate.dtype == w_gate.dtype and np.array_equal(gate, w_gate)
        assert (second is None) == (w_second is None)
        assert second is None or np.array_equal(second, w_second)
        assert keys.dtype == w_keys.dtype and np.array_equal(keys, w_keys)
