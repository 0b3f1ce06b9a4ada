"""Tokenizer and recursive-descent parser for the rule subset.

The grammar is the part of Yara the detection pipelines actually use:

    rule <name> { [meta: ...] [strings: ...] condition: <expr> }

String definitions accept text (double-quoted, C-style escapes), hex
(``{ 4d 5a ?? }``) and regex (``/.../``) bodies with ``nocase`` and
``fullword`` modifiers. Conditions accept ``true``/``false``, ``$id``,
``N of them``, ``N of ($a, $b)`` and ``and``/``or``/``not``.

Anything outside the subset (string counts, offsets, filesize, module
references, other modifiers) is a parse error, not a silent skip. So is
a regex body that does not compile: each is compiled here, once, the
way the matcher runs it (see :class:`RegexBody`), and its error is
reported at the regex token.

The lexer takes one compiled-regex match per token: the whitespace and
comments before it, then one identifier, integer, punctuation mark, or
the valid run of a quoted string or regex. A token carries only its
string offset. Line and column are computed from that offset when a
:class:`RuleSyntaxError` is built, counting newlines before it and
characters since the last one, so every error keeps the position a
character-at-a-time reader would give. Hex bodies are context
dependent and are read by the lexer on the parser's request, one byte
pair or wildcard per match.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator

from wsdetect.rulelang.model import (
    MAX_IDENTIFIER_LEN,
    And,
    BoolLiteral,
    Condition,
    HexBody,
    Not,
    OfExpr,
    Or,
    Pattern,
    RegexBody,
    Rule,
    RuleError,
    RuleSet,
    RuleSyntaxError,
    StringRef,
    TextBody,
)

_KEYWORDS = {
    "rule", "meta", "strings", "condition",
    "true", "false", "and", "or", "not", "of", "them",
    "nocase", "fullword",
}

# Recognized so we can reject them with a useful message instead of a
# generic syntax error.
_UNSUPPORTED_KEYWORDS = {
    "all", "any", "at", "in", "filesize", "entrypoint", "for",
    "wide", "ascii", "xor", "base64", "base64wide", "private",
    "global", "import", "include", "matches", "contains",
}

# Words a modifier position accepts or rejects by name; rule-structure
# keywords end the modifier list instead.
_MODIFIER_WORDS = (_KEYWORDS | _UNSUPPORTED_KEYWORDS) - {
    "condition", "strings", "meta", "rule"}

_ESCAPES = {"n": 0x0A, "t": 0x09, '"': 0x22, "\\": 0x5C}

# Whitespace and comments; an unterminated "/*" is left for the token
# alternatives to report.
_SKIP = r"[ \t\r\n]*+(?:(?://[^\n]*|/\*.*?\*/)[ \t\r\n]*+)*+"

# One token after the skip. Identifiers are ASCII-only: unicode
# "letters" and "digits" such as '²' must not pass. STRING and REGEX
# match the valid run after the opening delimiter and the closing
# delimiter if it comes next; where it does not, the character after
# the run is the error. The last alternative matches any character, so
# consecutive matches cover the text to its end.
_TOKEN = re.compile(_SKIP + r"""(?:
    (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[{}()=:,\-@\#*\[\]])
  | (?P<PATTERN_ID>\$[A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\\n]+|\\(?:[nt"\\]|x[0-9a-fA-F]{2}))*+(?P<STRING_END>")?)
  | (?P<INT>[0-9]+)
  | (?P<OPEN_COMMENT>/\*)
  | (?P<REGEX>/(?:[^/\\\n]+|\\/?)*+(?P<REGEX_END>/)?)
  | (?P<EOF>\Z)
  | (?P<BAD>.)
)""", re.VERBOSE | re.DOTALL)

_HEX_ITEM = re.compile(_SKIP + r"""(?:
    (?P<BYTE>[0-9a-fA-F]{2})
  | (?P<WILDCARD>\?\?)
  | (?P<CLOSE>\})
  | (?P<OPEN_COMMENT>/\*)
  | (?P<EOF>\Z)
  | (?P<BAD>)
)""", re.VERBOSE | re.DOTALL)

_STRING_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{2})|(.))", re.DOTALL)

_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _string_value(body: str) -> bytes:
    """The bytes of a validated string body: UTF-8 text, escapes decoded."""
    if "\\" not in body:
        return body.encode("utf-8")
    out = bytearray()
    at = 0
    for m in _STRING_ESCAPE.finditer(body):
        out += body[at:m.start()].encode("utf-8")
        out.append(int(m.group(1), 16) if m.group(1) else _ESCAPES[m.group(2)])
        at = m.end()
    out += body[at:].encode("utf-8")
    return bytes(out)


class _Lexer:
    def __init__(self, text: str, path: str | None = None):
        self.text = text
        self.path = path

    def error(self, message: str, pos: int) -> RuleSyntaxError:
        """A syntax error at string offset `pos`: line is one plus the
        newlines before it, column one plus the characters since the
        last newline."""
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        return RuleSyntaxError(message, line, column, self.path)

    def tokens(self, pos: int = 0) -> Iterator[tuple[str, object, int]]:
        """(kind, value, offset) of each token from string offset `pos`
        on; a lexical error is raised when its token is reached, and the
        parser reads nothing past EOF."""
        text = self.text
        error = self.error
        for m in _TOKEN.finditer(text, pos):
            kind = m.lastgroup
            start, end = m.span(kind)
            if kind == "IDENT":
                if end - start > MAX_IDENTIFIER_LEN:
                    raise error(
                        f"identifier too long ({end - start} > {MAX_IDENTIFIER_LEN})", start)
                yield kind, text[start:end], start
            elif kind == "PUNCT":
                yield kind, text[start], start
            elif kind == "PATTERN_ID":
                if end - start == 1:
                    raise error("'$' must be followed by a pattern name", start)
                if end - start - 1 > MAX_IDENTIFIER_LEN:
                    raise error(
                        f"pattern name too long ({end - start - 1} > {MAX_IDENTIFIER_LEN})",
                        start)
                yield kind, text[start:end], start
            elif kind == "STRING":
                if m.start("STRING_END") < 0:
                    raise self._unclosed(end, "string")
                yield kind, _string_value(text[start + 1:end - 1]), start
            elif kind == "INT":
                if text[end:end + 1] in _NAME_START:
                    raise error("identifier can't start with a digit", start)
                yield kind, int(text[start:end]), start
            elif kind == "REGEX":
                if m.start("REGEX_END") < 0:
                    raise self._unclosed(end, "regex")
                yield kind, text[start + 1:end - 1].replace("\\/", "/"), start
            elif kind == "EOF":
                yield kind, None, start
            elif kind == "OPEN_COMMENT":
                raise error("unterminated comment", start)
            else:
                raise error(f"unexpected character {text[start]!r}", start)

    def _unclosed(self, end: int, what: str) -> RuleSyntaxError:
        """The error at `end`, where the valid run of a string or regex
        stopped short of its closing delimiter."""
        text = self.text
        if end == len(text):
            return self.error(f"unterminated {what}", end)
        if text[end] == "\n":
            return self.error(f"newline inside {what}", end)
        # only a string's run stops at a backslash: an invalid escape
        if end + 1 == len(text):
            return self.error("unterminated escape", end + 1)
        if text[end + 1] == "x":
            return self.error("\\x escape needs two hex digits", end + 2)
        return self.error(f"unsupported escape \\{text[end + 1]}", end + 1)

    def read_hex_body(self, pos: int) -> tuple[HexBody, int]:
        """Read hex pairs from string offset `pos`, just past the opening
        '{', up to '}'. Returns the body and the offset past the '}',
        where tokens resume."""
        tokens: list[int | None] = []
        while True:
            m = _HEX_ITEM.match(self.text, pos)
            kind = m.lastgroup
            pos = m.end()
            if kind == "BYTE":
                tokens.append(int(m.group(kind), 16))
            elif kind == "WILDCARD":
                tokens.append(None)
            elif kind == "CLOSE":
                if not tokens:
                    raise self.error("empty hex string", pos)
                return HexBody(tuple(tokens)), pos
            elif kind == "EOF":
                raise self.error("unterminated hex string", m.start(kind))
            elif kind == "OPEN_COMMENT":
                raise self.error("unterminated comment", m.start(kind))
            else:
                raise self.error(
                    "hex strings take only hex byte pairs and '??' wildcards",
                    m.start(kind))


class _Parser:
    """Recursive descent over the lexer's tokens; `kind`, `value` and
    `pos` are the current token's."""

    def __init__(self, text: str, path: str | None = None):
        self.lexer = _Lexer(text, path)
        self._next = self.lexer.tokens().__next__
        self.kind, self.value, self.pos = self._next()

    def _advance(self):
        """Move to the next token; return the current token's value."""
        value = self.value
        self.kind, self.value, self.pos = self._next()
        return value

    def _error(self, message: str) -> RuleSyntaxError:
        return self.lexer.error(message, self.pos)

    def _expect_punct(self, ch: str) -> None:
        if self.kind != "PUNCT" or self.value != ch:
            raise self._error(f"expected {ch!r}, found {self._describe()}")
        self._advance()

    def _expect_keyword(self, word: str) -> None:
        if self.kind != "IDENT" or self.value != word:
            raise self._error(f"expected '{word}', found {self._describe()}")
        self._advance()

    def _describe(self) -> str:
        if self.kind == "EOF":
            return "end of file"
        return repr(self.value)

    # --- grammar -----------------------------------------------------

    def parse_file(self) -> list[tuple[Rule, int]]:
        """Every rule, with the offset of its name token."""
        rules = []
        while self.kind != "EOF":
            rules.append(self._parse_rule())
        return rules

    def _parse_rule(self) -> tuple[Rule, int]:
        self._expect_keyword("rule")
        if self.kind == "INT":
            raise self._error("rule name can't start with a digit")
        if self.kind != "IDENT":
            raise self._error(f"expected rule name, found {self._describe()}")
        name = self.value
        if name in _KEYWORDS or name in _UNSUPPORTED_KEYWORDS:
            raise self._error(f"'{name}' is a keyword, not a valid rule name")
        name_at = self.pos
        self._advance()
        self._expect_punct("{")

        meta: list[tuple[str, str]] = []
        strings: list[Pattern] = []
        if self.kind == "IDENT" and self.value == "meta":
            self._advance()
            self._expect_punct(":")
            meta = self._parse_meta()
        if self.kind == "IDENT" and self.value == "strings":
            self._advance()
            self._expect_punct(":")
            strings = self._parse_strings()
        self._expect_keyword("condition")
        self._expect_punct(":")
        condition = self._parse_expr()
        self._expect_punct("}")

        rule = Rule(name=name, meta=tuple(meta), strings=tuple(strings),
                    condition=condition)
        self._validate(rule)
        return rule, name_at

    def _parse_meta(self) -> list[tuple[str, str]]:
        entries = []
        while self.kind == "IDENT" and self.value not in ("strings", "condition"):
            key = self._advance()
            self._expect_punct("=")
            if self.kind == "STRING":
                # Meta text is stored as text; undecodable bytes are kept
                # via backslash-replace so nothing is silently dropped.
                value = self._advance().decode("utf-8", errors="backslashreplace")
            elif self.kind == "INT":
                value = str(self._advance())
            elif self.kind == "PUNCT" and self.value == "-":
                self._advance()
                if self.kind != "INT":
                    raise self._error("expected integer after '-'")
                value = str(-self._advance())
            else:
                raise self._error("meta values must be strings or integers")
            entries.append((key, value))
        return entries

    def _parse_strings(self) -> list[Pattern]:
        patterns: list[Pattern] = []
        seen: set[str] = set()
        while self.kind == "PATTERN_ID":
            ident = self._advance()
            if ident in seen:
                raise self._error(f"duplicate pattern id {ident}")
            seen.add(ident)
            self._expect_punct("=")
            if self.kind == "STRING":
                if not self.value:
                    raise self._error("empty string")
                value = self._advance()
                nocase, fullword = self._parse_modifiers()
                body = TextBody(value=value, nocase=nocase, fullword=fullword)
            elif self.kind == "REGEX":
                regex_at = self.pos
                source = self._advance()
                nocase, fullword = self._parse_modifiers()
                try:
                    body = RegexBody(source=source, nocase=nocase, fullword=fullword)
                except RuleError as exc:
                    raise self.lexer.error(str(exc), regex_at) from None
            elif self.kind == "PUNCT" and self.value == "{":
                # Hex bytes are not ordinary tokens; hand the raw stream
                # back to the lexer from just past the opening brace.
                body, end = self.lexer.read_hex_body(self.pos + 1)
                self._next = self.lexer.tokens(end).__next__
                self._advance()
            else:
                raise self._error("expected a quoted string, /regex/ or { hex } body")
            patterns.append(Pattern(ident=ident, body=body))
        if not patterns:
            raise self._error("strings section declared but empty")
        return patterns

    def _parse_modifiers(self) -> tuple[bool, bool]:
        nocase = fullword = False
        while self.kind == "IDENT" and self.value in _MODIFIER_WORDS:
            word = self.value
            if word == "nocase":
                nocase = True
            elif word == "fullword":
                fullword = True
            elif word in _UNSUPPORTED_KEYWORDS:
                raise self._error(f"modifier '{word}' is not supported")
            else:
                break
            self._advance()
        return nocase, fullword

    def _parse_expr(self) -> Condition:
        left = self._parse_and()
        while self.kind == "IDENT" and self.value == "or":
            self._advance()
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Condition:
        left = self._parse_not()
        while self.kind == "IDENT" and self.value == "and":
            self._advance()
            left = And(left, self._parse_not())
        return left

    def _parse_not(self) -> Condition:
        if self.kind == "IDENT" and self.value == "not":
            self._advance()
            return Not(self._parse_not())
        return self._parse_primary()

    def _parse_primary(self) -> Condition:
        kind, value = self.kind, self.value
        if kind == "PUNCT" and value == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        if kind == "IDENT" and value in ("true", "false"):
            self._advance()
            return BoolLiteral(value == "true")
        if kind == "PATTERN_ID":
            self._advance()
            return StringRef(value)
        if kind == "INT":
            count = value
            self._advance()
            self._expect_keyword("of")
            return self._parse_of_target(count)
        if kind == "PUNCT" and value in ("#", "@"):
            raise self._error(
                "string counts and offsets are outside the supported subset")
        if kind == "IDENT" and value in _UNSUPPORTED_KEYWORDS:
            raise self._error(
                f"'{value}' is outside the supported condition subset")
        raise self._error(f"expected a condition, found {self._describe()}")

    def _parse_of_target(self, count: int) -> OfExpr:
        if self.kind == "IDENT" and self.value == "them":
            self._advance()
            return OfExpr(count=count, targets=None)
        if self.kind == "PUNCT" and self.value == "(":
            self._advance()
            idents = []
            while True:
                if self.kind != "PATTERN_ID":
                    raise self._error("expected pattern id in 'of' list")
                idents.append(self._advance())
                if self.kind == "PUNCT" and self.value == ",":
                    self._advance()
                    continue
                break
            self._expect_punct(")")
            return OfExpr(count=count, targets=tuple(idents))
        raise self._error("expected 'them' or a pattern list after 'of'")

    # --- semantic checks ----------------------------------------------

    def _validate(self, rule: Rule) -> None:
        declared = set(rule.pattern_ids())

        def walk(node: Condition) -> None:
            if isinstance(node, StringRef):
                if node.ident not in declared:
                    raise self._error(
                        f"condition references undeclared pattern {node.ident}")
            elif isinstance(node, OfExpr):
                targets = rule.pattern_ids() if node.targets is None else node.targets
                for ident in targets:
                    if ident not in declared:
                        raise self._error(
                            f"'of' list references undeclared pattern {ident}")
                if node.count < 1:
                    raise self._error("'N of' requires N >= 1")
                if node.count > len(targets):
                    raise self._error(
                        f"'{node.count} of' exceeds the {len(targets)} available patterns")
            elif isinstance(node, (And, Or)):
                walk(node.left)
                walk(node.right)
            elif isinstance(node, Not):
                walk(node.operand)

        walk(rule.condition)


def parse_rules(text: str) -> RuleSet:
    """Parse rule-file contents into a :class:`RuleSet`.

    Raises :class:`RuleSyntaxError` with line/column on any syntax or
    semantic problem, including duplicate rule names across the file.
    """
    return parse_sources([(None, text)])


def parse_sources(sources: Iterable[tuple[str | None, str]]) -> RuleSet:
    """Parse several rule files, given as (path, text), into one
    :class:`RuleSet`, rules in file order.

    Each file is parsed on its own, so a :class:`RuleSyntaxError` names
    its file and gives the line and column within it. A rule name may be
    defined once across all files; a duplicate is reported at the second
    definition's name, naming the file of the first when it differs.
    """
    files = []
    for path, text in sources:
        parser = _Parser(text, path)
        files.append((parser.lexer, parser.parse_file()))
    defined_in: dict[str, str | None] = {}
    for lexer, rules in files:
        for rule, name_at in rules:
            if rule.name in defined_in:
                first = defined_in[rule.name]
                where = "" if first == lexer.path else f", first defined in {first}"
                raise lexer.error(f"duplicate rule name '{rule.name}'{where}", name_at)
            defined_in[rule.name] = lexer.path
    return RuleSet(rules=tuple(rule for _, rules in files for rule, _ in rules))
