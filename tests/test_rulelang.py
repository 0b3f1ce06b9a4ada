"""Rule language: parsing, matching, tree scanning, subset boundaries."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdetect.rulelang import (
    CompiledRuleSet,
    HexBody,
    Pattern,
    RegexBody,
    Rule,
    RuleSet,
    RuleSyntaxError,
    TextBody,
    load_rules_dir,
    match_buffer,
    parse_rules,
    scan_tree,
)
from wsdetect.rulelang import matcher
from wsdetect.rulelang.matcher import evaluate_condition
from wsdetect.rulelang.model import (
    And,
    BoolLiteral,
    Not,
    OfExpr,
    Or,
    RuleError,
    StringRef,
)


class TestParsing:
    def test_b374k_rule(self, b374k_rule_text):
        ruleset = parse_rules(b374k_rule_text)
        assert len(ruleset.rules) == 1
        rule = ruleset.rules[0]
        assert rule.name == "webshell_B374kPHP_B374k"
        assert rule.pattern_ids() == ("$s0", "$s1", "$s3", "$s4")
        assert dict(rule.meta)["author"] == "Florian_Roth"
        assert dict(rule.meta)["score"] == "70"
        assert rule.condition == OfExpr(count=1, targets=None)
        fullword = {p.ident: p.body.fullword for p in rule.strings}
        assert fullword == {"$s0": True, "$s1": False, "$s3": True, "$s4": True}

    def test_stringless_rule(self):
        ruleset = parse_rules("rule r { condition: true }")
        rule = ruleset.rules[0]
        assert rule.strings == ()
        assert rule.condition == BoolLiteral(True)

    def test_leading_digit_rule_name(self):
        with pytest.raises(RuleSyntaxError, match="digit"):
            parse_rules("rule 9bad { condition: true }")

    def test_name_longer_than_128(self):
        name = "r" * 129
        with pytest.raises(RuleSyntaxError, match="too long"):
            parse_rules(f"rule {name} {{ condition: true }}")

    def test_pattern_id_longer_than_128(self):
        pid = "s" * 129
        with pytest.raises(RuleSyntaxError, match="too long"):
            parse_rules(
                f'rule r {{ strings: ${pid} = "x" condition: ${pid} }}')

    def test_unresolved_string_ref(self):
        with pytest.raises(RuleSyntaxError, match="undeclared"):
            parse_rules('rule r { strings: $a = "x" condition: $b }')

    def test_duplicate_rule_names(self):
        text = "rule r { condition: true }\nrule r { condition: false }"
        with pytest.raises(RuleSyntaxError, match="duplicate rule name") as info:
            parse_rules(text)
        # at the second definition's name
        assert (info.value.line, info.value.column) == (2, 6)

    def test_duplicate_pattern_id(self):
        with pytest.raises(RuleSyntaxError, match="duplicate pattern"):
            parse_rules('rule r { strings: $a = "x" $a = "y" condition: $a }')

    def test_of_exceeding_targets(self):
        with pytest.raises(RuleSyntaxError, match="exceeds"):
            parse_rules('rule r { strings: $a = "x" condition: 2 of them }')

    def test_of_over_them_needs_strings(self):
        with pytest.raises(RuleSyntaxError):
            parse_rules("rule r { condition: 1 of them }")

    def test_hex_pattern(self):
        ruleset = parse_rules("rule h { strings: $m = { 4d 5a ?? 90 } condition: $m }")
        body = ruleset.rules[0].strings[0].body
        assert body.tokens == (0x4D, 0x5A, None, 0x90)

    def test_hex_rejects_stray_tokens(self):
        with pytest.raises(RuleSyntaxError, match="hex"):
            parse_rules("rule h { strings: $m = { 4d 5 } condition: $m }")

    def test_empty_string_rejected(self):
        with pytest.raises(RuleSyntaxError, match="empty string") as info:
            parse_rules('rule r {\n  strings:\n    $a = "" condition: $a }')
        assert (info.value.line, info.value.column) == (3, 10)

    def test_c_style_escapes(self):
        ruleset = parse_rules(
            r'rule e { strings: $a = "tab\there\x41\"q\\" condition: $a }')
        assert ruleset.rules[0].strings[0].body.value == b'tab\there\x41"q\\'

    def test_invalid_regex_is_a_syntax_error_at_the_regex(self):
        for body, message in (("/ab(/", "invalid regex: missing ), unterminated"),
                              ("/a€b[/", "invalid regex: unterminated character set")):
            with pytest.raises(RuleSyntaxError, match=re.escape(message)) as info:
                parse_rules(f"rule r {{\n strings: $a = {body} nocase\n"
                            " condition: $a }")
            assert (info.value.line, info.value.column) == (2, 16)

    def test_unknown_escape_rejected(self):
        with pytest.raises(RuleSyntaxError, match="escape"):
            parse_rules(r'rule e { strings: $a = "bad\q" condition: $a }')

    def test_unsupported_modifier_errors(self):
        with pytest.raises(RuleSyntaxError, match="not supported"):
            parse_rules('rule r { strings: $a = "x" wide condition: $a }')

    def test_unsupported_condition_constructs(self):
        for text in (
            'rule r { strings: $a = "x" condition: #a > 2 }',
            'rule r { strings: $a = "x" condition: $a at 0 }',
            "rule r { condition: filesize }",
            'rule r { strings: $a = "x" condition: all of them }',
        ):
            with pytest.raises(RuleSyntaxError):
                parse_rules(text)

    def test_comments_are_skipped(self):
        text = """
        // line comment
        rule c { /* block
        comment */ condition: true }
        """
        assert parse_rules(text).rules[0].name == "c"

    def test_combo_rule_parses(self):
        rule = parse_rules(
            'rule combo { strings: $a = "x" nocase $h = { 01 ?? 03 } '
            '$r = /ab+c/ condition: ($a and not $h) or 1 of ($a, $r) }').rules[0]
        assert rule.strings == (
            Pattern("$a", TextBody(b"x", nocase=True)),
            Pattern("$h", HexBody((0x01, None, 0x03))),
            Pattern("$r", RegexBody("ab+c")),
        )
        assert rule.condition == Or(
            And(StringRef("$a"), Not(StringRef("$h"))),
            OfExpr(count=1, targets=("$a", "$r")))


class TestMatching:
    def test_substring_offsets(self):
        ruleset = parse_rules('rule r { strings: $a = "b374k" condition: 1 of them }')
        subject = b"...b374k_shell..."
        report = match_buffer(ruleset, subject)
        assert report.rule_names == ["r"]
        offsets = [m.offset for _, ms in report.matched for m in ms]
        assert offsets == [subject.find(b"b374k")]

    def test_every_occurrence_reported(self):
        ruleset = parse_rules('rule r { strings: $a = "ab" condition: $a }')
        report = match_buffer(ruleset, b"abxxabxab")
        offsets = [m.offset for _, ms in report.matched for m in ms]
        assert offsets == [0, 4, 7]

    def test_absent_pattern_no_match(self):
        ruleset = parse_rules('rule r { strings: $a = "b374k" condition: 1 of them }')
        assert not match_buffer(ruleset, b"hello world")

    def test_two_of_them_needs_two(self):
        ruleset = parse_rules(
            'rule r { strings: $a = "aaa" $b = "bbb" condition: 2 of them }')
        assert not match_buffer(ruleset, b"__aaa__")
        assert match_buffer(ruleset, b"__aaa_bbb__")

    def test_empty_subject(self):
        ruleset = parse_rules(
            'rule t { condition: true } '
            'rule s { strings: $a = "x" condition: $a }')
        report = match_buffer(ruleset, b"")
        assert report.rule_names == ["t"]

    def test_non_ascii_means_utf8_in_text_and_regex_alike(self):
        for body in ('"café"', "/café/"):
            ruleset = parse_rules(f"rule r {{ strings: $a = {body} condition: $a }}")
            assert match_buffer(ruleset, "un café".encode("utf-8")), body
            assert not match_buffer(ruleset, "un café".encode("latin-1")), body

    def test_nocase(self):
        ruleset = parse_rules('rule r { strings: $a = "EvAl" nocase condition: $a }')
        assert match_buffer(ruleset, b"...eval(...")
        assert match_buffer(ruleset, b"...EVAL(...")
        assert not match_buffer(ruleset, b"...evil(...")

    def test_fullword(self):
        ruleset = parse_rules('rule r { strings: $a = "cmd" fullword condition: $a }')
        assert match_buffer(ruleset, b"run cmd now")
        assert match_buffer(ruleset, b"cmd")
        assert not match_buffer(ruleset, b"xcmd ")
        assert not match_buffer(ruleset, b" cmd2")

    def test_hex_wildcard(self):
        ruleset = parse_rules("rule r { strings: $m = { 4d ?? 5a } condition: $m }")
        assert match_buffer(ruleset, b"\x4d\x00\x5a")
        assert match_buffer(ruleset, b"\x4d\xff\x5a")
        assert not match_buffer(ruleset, b"\x4d\x00\x00\x5a")

    def test_regex_pattern(self):
        ruleset = parse_rules(r"rule r { strings: $x = /ev[ai]l\(/ condition: $x }")
        assert match_buffer(ruleset, b"zz evil( zz")
        assert match_buffer(ruleset, b"eval(")
        assert not match_buffer(ruleset, b"evol(")

    def test_not_and_or(self):
        ruleset = parse_rules(
            'rule r { strings: $a = "aa" $b = "bb" condition: $a and not $b }')
        assert match_buffer(ruleset, b"aa only")
        assert not match_buffer(ruleset, b"aa and bb")

    def test_of_named_subset(self):
        ruleset = parse_rules(
            'rule r { strings: $a = "aa" $b = "bb" $c = "cc" '
            'condition: 2 of ($a, $b) }')
        assert not match_buffer(ruleset, b"aa cc")
        assert match_buffer(ruleset, b"aa bb")

    def test_determinism(self, b374k_rule_text):
        ruleset = parse_rules(b374k_rule_text)
        subject = b"B374k_ Vip_ In_ Beautify_ Just_ For_ Self and more"
        first = match_buffer(ruleset, subject)
        second = match_buffer(ruleset, subject)
        assert first.matched == second.matched


class TestOfExprBruteForce:
    """OfExpr(n, them) against exhaustive truth-table evaluation."""

    @staticmethod
    def _brute(condition, rule, present):
        if isinstance(condition, OfExpr):
            targets = rule.pattern_ids() if condition.targets is None else condition.targets
            combos = sum(1 for ident in targets if ident in present)
            return combos >= condition.count
        raise AssertionError

    @given(n_strings=st.integers(1, 6), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_truth_table(self, n_strings, data):
        idents = tuple(f"$p{i}" for i in range(n_strings))
        count = data.draw(st.integers(1, n_strings))
        present = set(data.draw(st.sets(st.sampled_from(idents))))
        strings = " ".join(f'{ident} = "needle{i}"' for i, ident in enumerate(idents))
        text = f"rule r {{ strings: {strings} condition: {count} of them }}"
        rule = parse_rules(text).rules[0]
        expr = rule.condition
        assert evaluate_condition(expr, rule, present) == self._brute(
            expr, rule, present)

    def test_one_of_them_is_or(self):
        base = 'rule a {{ strings: $x = "qq" $y = "ww" condition: {cond} }}'
        of_rule = parse_rules(base.format(cond="1 of them")).rules[0]
        or_rule = parse_rules(base.format(cond="$x or $y")).rules[0]
        for present in (set(), {"$x"}, {"$y"}, {"$x", "$y"}):
            assert (evaluate_condition(of_rule.condition, of_rule, present)
                    == evaluate_condition(or_rule.condition, or_rule, present))

    def test_random_subjects_match_naive_scan(self):
        rng = random.Random(42)
        needles = [bytes([rng.randrange(97, 123) for _ in range(rng.randint(2, 4))])
                   for _ in range(5)]
        strings = " ".join(
            f'$n{i} = "{needle.decode()}"' for i, needle in enumerate(needles))
        n = rng.randint(1, 5)
        ruleset = parse_rules(
            f"rule r {{ strings: {strings} condition: {n} of them }}")
        for _ in range(200):
            subject = bytes([rng.randrange(97, 123) for _ in range(rng.randint(0, 40))])
            expected = sum(1 for needle in needles if needle in subject) >= n
            assert bool(match_buffer(ruleset, subject)) == expected


def _needle(body):
    return bytes(body.tokens) if isinstance(body, HexBody) else body.value


def _naive_occurrences(ruleset, subject):
    """Overlapping bytes.find per literal pattern, fullword checked on
    the bytes around each hit; by pattern index, patterns that occur
    only."""
    def word(pos):
        return 0 <= pos < len(subject) and chr(subject[pos]).isascii() \
            and chr(subject[pos]).isalnum()

    found = []
    for rule in ruleset.rules:
        for pattern in rule.strings:
            body = pattern.body
            needle, hay = _needle(body), subject
            if getattr(body, "nocase", False):
                needle, hay = needle.lower(), subject.lower()
            fullword = getattr(body, "fullword", False)
            offsets, at = [], hay.find(needle)
            while at >= 0:
                if not (fullword and (word(at - 1) or word(at + len(needle)))):
                    offsets.append((at, len(needle)))
                at = hay.find(needle, at + 1)
            found.append(offsets)
    return {i: offsets for i, offsets in enumerate(found) if offsets}


@st.composite
def _literal_rules(draw, max_len=20):
    """Two rules of literal patterns over a small alphabet. Half the
    needles are prefixes of one base, so needles overlap and share keys
    at every length, shorter and longer than the key; the second rule
    repeats the first rule's first pattern."""
    alphabet = draw(st.sampled_from([b"ab", b"aB", b"abc", b"a\x00b"]))
    letters = st.sampled_from(list(alphabet))
    base = bytes(draw(st.lists(letters, min_size=max_len, max_size=max_len)))
    patterns = []
    for k in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            needle = base[:draw(st.integers(1, max_len))]
        else:
            needle = bytes(draw(st.lists(letters, min_size=1, max_size=max_len)))
        kind = draw(st.sampled_from(["text", "nocase", "fullword", "both", "hex"]))
        if kind == "hex":
            body = HexBody(tuple(needle))
        else:
            body = TextBody(needle, nocase=kind in ("nocase", "both"),
                            fullword=kind in ("fullword", "both"))
        patterns.append(Pattern(f"$s{k}", body))
    rules = (Rule("r1", (), tuple(patterns), BoolLiteral(True)),
             Rule("r2", (), (patterns[0],), BoolLiteral(True)))
    return RuleSet(rules), alphabet, base


class TestLiteralScan:
    """CompiledRuleSet.occurrences against a naive bytes.find scan."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_find(self, data):
        ruleset, alphabet, base = data.draw(_literal_rules())
        letters = st.sampled_from(list(alphabet + b" A"))
        # from shorter than a key to several keys long, often ending in
        # a needle or a prefix of the base, so longer needles run off the end
        tails = [_needle(p.body) for p in ruleset.rules[0].strings]
        tails += [base[:k] for k in range(len(base) + 1)]
        subject = bytes(data.draw(st.lists(letters, max_size=40)))
        subject += data.draw(st.sampled_from(tails))
        assert CompiledRuleSet(ruleset).occurrences(subject) == \
            _naive_occurrences(ruleset, subject)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_needles_across_block_seam(self, data):
        ruleset, alphabet, base = data.draw(_literal_rules())
        subject = bytearray(b"." * (2 * matcher._BLOCK_SIZE + 100))
        for rule in ruleset.rules:
            for pattern in rule.strings:
                needle = _needle(pattern.body)
                for seam in (matcher._BLOCK_SIZE, 2 * matcher._BLOCK_SIZE):
                    at = seam - data.draw(st.integers(0, len(needle)))
                    subject[at:at + len(needle)] = needle
        subject = bytes(subject)
        assert CompiledRuleSet(ruleset).occurrences(subject) == \
            _naive_occurrences(ruleset, subject)


class TestNocaseProperty:
    @given(st.binary(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_nocase_equals_lowercased_subject(self, subject):
        nocase = parse_rules('rule r { strings: $a = "WeB" nocase condition: $a }')
        plain = parse_rules('rule r { strings: $a = "web" condition: $a }')
        assert bool(match_buffer(nocase, subject)) == bool(
            match_buffer(plain, subject.lower()))


class TestScanTree:
    def _write(self, root, name, data):
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        return path

    def test_scan_finds_only_matching_files(self, tmp_path):
        ruleset = parse_rules('rule r { strings: $a = "b374k" condition: $a }')
        self._write(tmp_path, "a.php", b"clean file")
        hit = self._write(tmp_path, "b.php", b"xx b374k yy")
        self._write(tmp_path, "c.php", b"nothing here")
        findings, errors = scan_tree(ruleset, tmp_path)
        assert [p for p, _ in findings] == [str(hit)]
        assert errors == []
        # oracle: match_buffer per file agrees
        for path in (tmp_path / "a.php", tmp_path / "c.php"):
            assert not match_buffer(ruleset, path.read_bytes())

    def test_empty_directory(self, tmp_path):
        ruleset = parse_rules('rule r { strings: $a = "x" condition: $a }')
        findings, errors = scan_tree(ruleset, tmp_path)
        assert findings == [] and errors == []

    def test_all_match_sorted(self, tmp_path):
        ruleset = parse_rules('rule r { strings: $a = "evil" condition: $a }')
        names = ["z.php", "a.php", "m/t.php"]
        for name in names:
            self._write(tmp_path, name, b"so evil")
        findings, _ = scan_tree(ruleset, tmp_path)
        paths = [p for p, _ in findings]
        assert paths == sorted(str(tmp_path / n) for n in names)

    def test_missing_root_errors(self, tmp_path):
        ruleset = parse_rules("rule r { condition: true }")
        with pytest.raises(RuleError):
            scan_tree(ruleset, tmp_path / "nope")

    def test_unreadable_file_collected(self, tmp_path):
        ruleset = parse_rules('rule r { strings: $a = "x" condition: $a }')
        self._write(tmp_path, "ok.php", b"x marks")
        bad = tmp_path / "bad.php"  # dangling symlink: read always fails
        bad.symlink_to(tmp_path / "gone")
        findings, errors = scan_tree(ruleset, tmp_path)
        assert [p for p, _ in findings] == [str(tmp_path / "ok.php")]
        assert [e.path for e in errors] == [str(bad)]

    def test_extension_filter(self, tmp_path):
        ruleset = parse_rules('rule r { strings: $a = "evil" condition: $a }')
        self._write(tmp_path, "s.php", b"evil")
        self._write(tmp_path, "s.txt", b"evil")
        findings, _ = scan_tree(ruleset, tmp_path, extensions=("php",))
        assert [p for p, _ in findings] == [str(tmp_path / "s.php")]

    def test_monotonicity_adding_rule(self, tmp_path):
        base = 'rule one { strings: $a = "aa" condition: $a }'
        extra = base + ' rule two { strings: $b = "bb" condition: $b }'
        self._write(tmp_path, "f1", b"has aa")
        self._write(tmp_path, "f2", b"has bb")
        small, _ = scan_tree(parse_rules(base), tmp_path)
        large, _ = scan_tree(parse_rules(extra), tmp_path)
        assert {p for p, _ in small} <= {p for p, _ in large}

    def test_load_rules_dir_sorted_concatenation(self, tmp_path):
        (tmp_path / "b.yar").write_text('rule bee { condition: true }')
        (tmp_path / "a.yar").write_text('rule ay { condition: true }')
        ruleset = load_rules_dir(tmp_path)
        assert ruleset.rule_names() == ("ay", "bee")

    def test_load_rules_dir_errors_name_the_file(self, tmp_path):
        for name in ("1.yar", "2.yar", "3.yar"):
            (tmp_path / name).write_text(f"rule r{name[0]} {{\n condition: true }}\n")
        (tmp_path / "2.yar").write_text("rule r2 {\n condition: filesize }\n")
        with pytest.raises(RuleSyntaxError, match="filesize") as info:
            load_rules_dir(tmp_path)
        assert (info.value.path, info.value.line, info.value.column) == (
            str(tmp_path / "2.yar"), 2, 13)
        assert str(info.value).startswith(f"{tmp_path / '2.yar'}: line 2, column 13: ")

    def test_load_rules_dir_duplicate_across_files_names_both(self, tmp_path):
        (tmp_path / "1.yar").write_text("rule a { condition: true }")
        (tmp_path / "2.yar").write_text("// again\nrule a { condition: false }")
        with pytest.raises(RuleSyntaxError, match="duplicate rule name 'a'") as info:
            load_rules_dir(tmp_path)
        assert (info.value.path, info.value.line, info.value.column) == (
            str(tmp_path / "2.yar"), 2, 6)
        assert str(tmp_path / "1.yar") in info.value.message
