"""The character-at-a-time rule parser as it was before the run-based
lexer, kept as a test-only oracle.

Lexer and parser are the code `wsdetect.rulelang.parser` replaced,
changed in three places only: a duplicate rule name is reported at the
second definition's name token (it was line 0, column 0), a regex body
is compiled where it is parsed and an invalid one is a
`RuleSyntaxError` at the regex token, and the `RuleSet` has no
fingerprint. `tests/test_rulelang_oracle.py` checks `parse_rules`
against it: equal rules, or an equal message, line and column.
"""

from __future__ import annotations

from wsdetect.rulelang.model import (
    MAX_IDENTIFIER_LEN,
    RuleError,
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

_ESCAPES = {"n": 0x0A, "t": 0x09, '"': 0x22, "\\": 0x5C}

# identifier rules are ASCII-only; unicode "letters"/"digits" such as
# '²' must not sneak through str.isalpha()/str.isdigit()
_ASCII_ALPHA = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_ASCII_DIGIT = frozenset("0123456789")
_IDENT_CHARS = _ASCII_ALPHA | _ASCII_DIGIT | {"_"}


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):  # pragma: no cover - debug aid
        return f"_Token({self.kind!r}, {self.value!r}, {self.line}:{self.col})"


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> RuleSyntaxError:
        return RuleSyntaxError(message, self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text):
                if self.text[self.pos] == "\n":
                    self.line += 1
                    self.col = 1
                else:
                    self.col += 1
                self.pos += 1

    def _skip_ws_and_comments(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance()
            elif self.text.startswith("//", self.pos):
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif self.text.startswith("/*", self.pos):
                end = self.text.find("*/", self.pos + 2)
                if end < 0:
                    raise self.error("unterminated comment")
                while self.pos < end + 2:
                    self._advance()
            else:
                return

    def next_token(self) -> _Token:
        self._skip_ws_and_comments()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return _Token("EOF", None, line, col)
        ch = self.text[self.pos]

        if ch == "$":
            self._advance()
            ident = self._read_ident_chars()
            if not ident:
                raise RuleSyntaxError("'$' must be followed by a pattern name", line, col)
            if len(ident) > MAX_IDENTIFIER_LEN:
                raise RuleSyntaxError(
                    f"pattern name too long ({len(ident)} > {MAX_IDENTIFIER_LEN})", line, col)
            return _Token("PATTERN_ID", "$" + ident, line, col)

        if ch in _ASCII_ALPHA or ch == "_":
            ident = self._read_ident_chars()
            if len(ident) > MAX_IDENTIFIER_LEN:
                raise RuleSyntaxError(
                    f"identifier too long ({len(ident)} > {MAX_IDENTIFIER_LEN})", line, col)
            return _Token("IDENT", ident, line, col)

        if ch in _ASCII_DIGIT:
            num = self._read_while(lambda c: c in _ASCII_DIGIT)
            if self.pos < len(self.text) and self.text[self.pos] in (
                    _ASCII_ALPHA | {"_"}):
                raise RuleSyntaxError(
                    "identifier can't start with a digit", line, col)
            return _Token("INT", int(num), line, col)

        if ch == '"':
            return _Token("STRING", self._read_quoted_string(), line, col)

        if ch == "/":
            return _Token("REGEX", self._read_regex(), line, col)

        if ch in "{}()=:,-@#*[]":
            self._advance()
            return _Token("PUNCT", ch, line, col)

        raise RuleSyntaxError(f"unexpected character {ch!r}", line, col)

    def _read_ident_chars(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _IDENT_CHARS:
            self._advance()
        return self.text[start:self.pos]

    def _read_while(self, pred) -> str:
        start = self.pos
        while self.pos < len(self.text) and pred(self.text[self.pos]):
            self._advance()
        return self.text[start:self.pos]

    def _read_quoted_string(self) -> bytes:
        self._advance()  # opening quote
        out = bytearray()
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.pos]
            if ch == '"':
                self._advance()
                return bytes(out)
            if ch == "\n":
                raise self.error("newline inside string")
            if ch == "\\":
                self._advance()
                if self.pos >= len(self.text):
                    raise self.error("unterminated escape")
                esc = self.text[self.pos]
                if esc in _ESCAPES:
                    out.append(_ESCAPES[esc])
                    self._advance()
                elif esc == "x":
                    self._advance()
                    hexpair = self.text[self.pos:self.pos + 2]
                    if len(hexpair) != 2 or not all(c in "0123456789abcdefABCDEF" for c in hexpair):
                        raise self.error("\\x escape needs two hex digits")
                    out.append(int(hexpair, 16))
                    self._advance(2)
                else:
                    raise self.error(f"unsupported escape \\{esc}")
            else:
                out.extend(ch.encode("utf-8"))
                self._advance()

    def _read_regex(self) -> str:
        self._advance()  # opening slash
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated regex")
            ch = self.text[self.pos]
            if ch == "/":
                self._advance()
                return "".join(out)
            if ch == "\n":
                raise self.error("newline inside regex")
            if ch == "\\" and self.text[self.pos + 1:self.pos + 2] == "/":
                out.append("/")
                self._advance(2)
            else:
                out.append(ch)
                self._advance()

    def read_hex_body_after_brace(self) -> HexBody:
        """Read hex pairs up to '}'. The opening '{' is already consumed."""
        tokens: list[int | None] = []
        while True:
            self._skip_ws_and_comments()
            if self.pos >= len(self.text):
                raise self.error("unterminated hex string")
            ch = self.text[self.pos]
            if ch == "}":
                self._advance()
                if not tokens:
                    raise self.error("empty hex string")
                return HexBody(tuple(tokens))
            pair = self.text[self.pos:self.pos + 2]
            if pair == "??":
                tokens.append(None)
                self._advance(2)
            elif len(pair) == 2 and all(c in "0123456789abcdefABCDEF" for c in pair):
                tokens.append(int(pair, 16))
                self._advance(2)
            else:
                raise self.error(
                    "hex strings take only hex byte pairs and '??' wildcards")


class _Parser:
    def __init__(self, text: str):
        self.lexer = _Lexer(text)
        self.tok = self.lexer.next_token()

    def _advance(self) -> _Token:
        prev = self.tok
        self.tok = self.lexer.next_token()
        return prev

    def _error(self, message: str) -> RuleSyntaxError:
        return RuleSyntaxError(message, self.tok.line, self.tok.col)

    def _expect_punct(self, ch: str) -> None:
        if self.tok.kind != "PUNCT" or self.tok.value != ch:
            raise self._error(f"expected {ch!r}, found {self._describe()}")
        self._advance()

    def _expect_keyword(self, word: str) -> None:
        if self.tok.kind != "IDENT" or self.tok.value != word:
            raise self._error(f"expected '{word}', found {self._describe()}")
        self._advance()

    def _describe(self) -> str:
        if self.tok.kind == "EOF":
            return "end of file"
        return repr(self.tok.value)

    # --- grammar -----------------------------------------------------

    def parse_file(self) -> list[tuple[Rule, tuple[int, int]]]:
        rules = []
        while self.tok.kind != "EOF":
            rules.append(self._parse_rule())
        return rules

    def _parse_rule(self) -> tuple[Rule, tuple[int, int]]:
        self._expect_keyword("rule")
        if self.tok.kind == "INT":
            raise self._error("rule name can't start with a digit")
        if self.tok.kind != "IDENT":
            raise self._error(f"expected rule name, found {self._describe()}")
        name = self.tok.value
        if name in _KEYWORDS or name in _UNSUPPORTED_KEYWORDS:
            raise self._error(f"'{name}' is a keyword, not a valid rule name")
        name_at = (self.tok.line, self.tok.col)
        self._advance()
        self._expect_punct("{")

        meta: list[tuple[str, str]] = []
        strings: list[Pattern] = []
        if self.tok.kind == "IDENT" and self.tok.value == "meta":
            self._advance()
            self._expect_punct(":")
            meta = self._parse_meta()
        if self.tok.kind == "IDENT" and self.tok.value == "strings":
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
        while self.tok.kind == "IDENT" and self.tok.value not in ("strings", "condition"):
            key = self._advance().value
            self._expect_punct("=")
            if self.tok.kind == "STRING":
                # Meta text is stored as text; undecodable bytes are kept
                # via backslash-replace so nothing is silently dropped.
                value = self._advance().value.decode("utf-8", errors="backslashreplace")
            elif self.tok.kind == "INT":
                value = str(self._advance().value)
            elif self.tok.kind == "PUNCT" and self.tok.value == "-":
                self._advance()
                if self.tok.kind != "INT":
                    raise self._error("expected integer after '-'")
                value = str(-self._advance().value)
            else:
                raise self._error("meta values must be strings or integers")
            entries.append((key, value))
        return entries

    def _parse_strings(self) -> list[Pattern]:
        patterns: list[Pattern] = []
        seen: set[str] = set()
        while self.tok.kind == "PATTERN_ID":
            ident = self._advance().value
            if ident in seen:
                raise self._error(f"duplicate pattern id {ident}")
            seen.add(ident)
            self._expect_punct("=")
            if self.tok.kind == "STRING":
                if not self.tok.value:
                    raise self._error("empty string")
                value = self._advance().value
                nocase, fullword = self._parse_modifiers()
                body = TextBody(value=value, nocase=nocase, fullword=fullword)
            elif self.tok.kind == "REGEX":
                regex = self._advance()
                nocase, fullword = self._parse_modifiers()
                try:
                    body = RegexBody(source=regex.value, nocase=nocase,
                                     fullword=fullword)
                except RuleError as exc:
                    raise RuleSyntaxError(str(exc), regex.line, regex.col) from None
            elif self.tok.kind == "PUNCT" and self.tok.value == "{":
                # Hex bytes are not ordinary tokens; hand the raw stream
                # back to the lexer from just past the opening brace.
                body = self.lexer.read_hex_body_after_brace()
                self._advance()
            else:
                raise self._error("expected a quoted string, /regex/ or { hex } body")
            patterns.append(Pattern(ident=ident, body=body))
        if not patterns:
            raise self._error("strings section declared but empty")
        return patterns

    def _parse_modifiers(self) -> tuple[bool, bool]:
        nocase = fullword = False
        while self.tok.kind == "IDENT" and self.tok.value in (
                _KEYWORDS | _UNSUPPORTED_KEYWORDS) and self.tok.value not in (
                "condition", "strings", "meta", "rule"):
            word = self.tok.value
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
        while self.tok.kind == "IDENT" and self.tok.value == "or":
            self._advance()
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Condition:
        left = self._parse_not()
        while self.tok.kind == "IDENT" and self.tok.value == "and":
            self._advance()
            left = And(left, self._parse_not())
        return left

    def _parse_not(self) -> Condition:
        if self.tok.kind == "IDENT" and self.tok.value == "not":
            self._advance()
            return Not(self._parse_not())
        return self._parse_primary()

    def _parse_primary(self) -> Condition:
        tok = self.tok
        if tok.kind == "PUNCT" and tok.value == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        if tok.kind == "IDENT" and tok.value in ("true", "false"):
            self._advance()
            return BoolLiteral(tok.value == "true")
        if tok.kind == "PATTERN_ID":
            self._advance()
            return StringRef(tok.value)
        if tok.kind == "INT":
            count = tok.value
            self._advance()
            self._expect_keyword("of")
            return self._parse_of_target(count)
        if tok.kind == "PUNCT" and tok.value in ("#", "@"):
            raise self._error(
                "string counts and offsets are outside the supported subset")
        if tok.kind == "IDENT" and tok.value in _UNSUPPORTED_KEYWORDS:
            raise self._error(
                f"'{tok.value}' is outside the supported condition subset")
        raise self._error(f"expected a condition, found {self._describe()}")

    def _parse_of_target(self, count: int) -> OfExpr:
        if self.tok.kind == "IDENT" and self.tok.value == "them":
            self._advance()
            return OfExpr(count=count, targets=None)
        if self.tok.kind == "PUNCT" and self.tok.value == "(":
            self._advance()
            idents = []
            while True:
                if self.tok.kind != "PATTERN_ID":
                    raise self._error("expected pattern id in 'of' list")
                idents.append(self._advance().value)
                if self.tok.kind == "PUNCT" and self.tok.value == ",":
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
    """Parse rule-file contents into a compiled :class:`RuleSet`.

    Raises :class:`RuleSyntaxError` with line/column on any syntax or
    semantic problem, including duplicate rule names across the file.
    """
    parser = _Parser(text)
    rules = parser.parse_file()
    seen: set[str] = set()
    for rule, (line, col) in rules:
        if rule.name in seen:
            raise RuleSyntaxError(f"duplicate rule name '{rule.name}'", line, col)
        seen.add(rule.name)
    return RuleSet(rules=tuple(rule for rule, _ in rules))
