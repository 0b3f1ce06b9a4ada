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
reported at the regex token. So is a condition nested more than
MAX_CONDITION_DEPTH levels deep, or an integer of more than
MAX_INTEGER_DIGITS digits, at the token past the limit.

The text is lexed once, by one ``findall`` of a master regex, into a
flat list of token strings; the parser walks that list by index and
tells a token's kind by its text. A token is an identifier, an
integer, one punctuation mark, a closed string or regex, or a whole
valid hex body from its ``{`` to its ``}``: hex bodies are context
dependent, but a valid one is never anything else, so it is read here
and its bytes are taken from the token text. Every other character
becomes a token of its own, so a lexical error is a token the parser
cannot accept: a lone ``"`` or ``/`` (an unclosed string or regex), a
``/*`` without its end, an integer run into a name, an overlong name,
a bare ``$``, or a stray character. Its error is raised only when the
parser reaches it, so the first error in parse order is the one
reported, as a token-at-a-time reader would report it.

Tokens carry no offsets. An error finds the offset of its token by
lexing the text again up to it, and computes line and column from that
offset (newlines before it, characters since the last one). An invalid
hex body stays a ``{`` token; its error is found by reading the body
one byte pair or wildcard at a time.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable

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

_RESERVED = frozenset(_KEYWORDS | _UNSUPPORTED_KEYWORDS)

# A condition nests at most this deep, counting each 'not' and each
# parenthesis as one level: the parser recurses once per level, and
# must fail with a syntax error, not Python's recursion limit.
MAX_CONDITION_DEPTH = 100

# An integer has at most this many digits, enough for any 64-bit value.
MAX_INTEGER_DIGITS = 20

# Words a modifier position accepts or rejects by name; rule-structure
# keywords end the modifier list instead.
_MODIFIER_WORDS = _RESERVED - {"condition", "strings", "meta", "rule"}

_ESCAPES = {"n": 0x0A, "t": 0x09, '"': 0x22, "\\": 0x5C}

# Whitespace and comments; an unterminated "/*" is left for the token
# alternatives to report.
_SKIP = r"[ \t\r\n]*+(?:/(?:/[^\n]*|\*.*?\*/)[ \t\r\n]*+)*+"

# The valid run of a string or regex after its opening delimiter.
_STRING_RUN = r'"(?:[^"\\\n]+|\\(?:[nt"\\]|x[0-9a-fA-F]{2}))*+'
_REGEX_RUN = r"/(?:[^/\\\n]+|\\/?)*+"

# One token after the skip, as the only group. Identifiers are
# ASCII-only: unicode "letters" and "digits" such as '²' must not pass.
# A pattern id takes a name of 1 to MAX_IDENTIFIER_LEN characters; any
# other "$" is a token of its own. An integer takes a name character
# right after it, which makes it an invalid token. The last alternative
# matches any character, so consecutive matches cover the text to its
# end, where the token is empty.
_TOKEN = re.compile(_SKIP + rf"""(
    [A-Za-z_][A-Za-z0-9_]*
  | \{{(?:{_SKIP}(?:[0-9a-fA-F]{{2}}|\?\?))++{_SKIP}\}}
  | [{{}}()=:,\-@\#*\[\]]
  | \$[A-Za-z0-9_]{{1,{MAX_IDENTIFIER_LEN}}}+(?![A-Za-z0-9_])
  | {_STRING_RUN}"
  | [0-9]++[A-Za-z_]?
  | /\*
  | {_REGEX_RUN}/
  | \Z
  | .
)""", re.VERBOSE | re.DOTALL)

# The end-of-file token; whitespace is never a token.
_EOF = " "

_STRING_RUN_AT = re.compile(_STRING_RUN)
_REGEX_RUN_AT = re.compile(_REGEX_RUN)
_PATTERN_NAME_AT = re.compile(r"[A-Za-z0-9_]*")

_HEX_ITEM = re.compile(_SKIP + r"""(?:
    (?P<BYTE>[0-9a-fA-F]{2})
  | (?P<WILDCARD>\?\?)
  | (?P<CLOSE>\})
  | (?P<OPEN_COMMENT>/\*)
  | (?P<EOF>\Z)
  | (?P<BAD>)
)""", re.VERBOSE | re.DOTALL)

# In a valid hex token every "/" opens a comment.
_COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)

_STRING_ESCAPE = re.compile(r"\\(?:x([0-9a-fA-F]{2})|(.))", re.DOTALL)

_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_DIGITS = frozenset("0123456789")
_PUNCT = frozenset("{}()=:,-@#*[]")


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


def _hex_body(token: str) -> HexBody:
    """The body of a valid hex token: outside comments, whitespace and
    '??' wildcards between byte pairs."""
    inner = token[1:-1]
    if "/" in inner:
        inner = _COMMENT.sub("", inner)
    first, *rest = inner.split("??")
    items: list[int | None] = list(bytes.fromhex(first))
    for part in rest:
        items.append(None)
        items += bytes.fromhex(part)
    return HexBody(tuple(items))


def _describe(token: str) -> str:
    """The token as an error message names it: its value's repr. Only
    for a token without a lexical error."""
    if token == _EOF:
        return "end of file"
    first = token[0]
    if first == '"':
        return repr(_string_value(token[1:-1]))
    if first == "/":
        return repr(token[1:-1].replace("\\/", "/"))
    if first in _DIGITS:
        return repr(int(token))
    return repr(first if first == "{" else token)


class _Parser:
    """Recursive descent over the token strings of one rule file. Every
    step takes the index of its first token and returns the index past
    its last one."""

    def __init__(self, text: str, path: str | None = None):
        self.text = text
        self.path = path
        toks = _TOKEN.findall(text)
        # the end of the text is an empty token, matched a second time
        # after trailing whitespace or comments
        if len(toks) > 1 and not toks[-2]:
            toks.pop()
        toks[-1] = _EOF
        self.toks = toks
        # one StringRef per pattern id, shared by the file's conditions
        self.refs: dict[str, StringRef] = {}
        # the pattern ids of the rule being parsed, and the message of
        # the first reference in its condition they cannot satisfy
        self.declared: set[str] = set()
        self.reference_error: str | None = None
        # the 'not's and parentheses open around the current condition
        self.depth = 0

    # --- errors --------------------------------------------------------

    def error(self, message: str, pos: int) -> RuleSyntaxError:
        """A syntax error at string offset `pos`: line is one plus the
        newlines before it, column one plus the characters since the
        last newline."""
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        return RuleSyntaxError(message, line, column, self.path)

    def offset(self, k: int) -> int:
        """The string offset of token `k`, by lexing up to it again."""
        return next(itertools.islice(_TOKEN.finditer(self.text), k, None)).start(1)

    def _lexical_error(self, token: str, pos: int) -> RuleSyntaxError | None:
        """The error of a token the lexer could not form, at offset `pos`."""
        if token == _EOF:
            return None
        first = token[0]
        if first in _NAME_START:
            if len(token) > MAX_IDENTIFIER_LEN:
                return self.error(
                    f"identifier too long ({len(token)} > {MAX_IDENTIFIER_LEN})", pos)
        elif token == "$":
            n = _PATTERN_NAME_AT.match(self.text, pos + 1).end() - pos - 1
            if not n:
                return self.error("'$' must be followed by a pattern name", pos)
            return self.error(f"pattern name too long ({n} > {MAX_IDENTIFIER_LEN})", pos)
        elif first in _DIGITS:
            if token[-1] not in _DIGITS:
                return self.error("identifier can't start with a digit", pos)
        elif token == '"':
            return self._unclosed(_STRING_RUN_AT.match(self.text, pos).end(), "string")
        elif token == "/":
            return self._unclosed(_REGEX_RUN_AT.match(self.text, pos).end(), "regex")
        elif token == "/*":
            return self.error("unterminated comment", pos)
        elif first not in _PUNCT and first != "$" and first != '"' and first != "/":
            return self.error(f"unexpected character {token!r}", pos)
        return None

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

    def _fail(self, k: int, message: str, at: int | None = None) -> RuleSyntaxError:
        """The error raised while token `k` is current: its lexical
        error if it has one, else `message` at token `at` (default `k`)."""
        pos = self.offset(k)
        return self._lexical_error(self.toks[k], pos) or self.error(
            message, pos if at is None else self.offset(at))

    def _bad_token(self, k: int) -> RuleSyntaxError:
        """The lexical error of token `k`, which has one."""
        error = self._lexical_error(self.toks[k], self.offset(k))
        assert error is not None, self.toks[k]
        return error

    def _expected(self, k: int, what: str) -> RuleSyntaxError:
        """"expected `what`, found ..." at token `k`."""
        token = self.toks[k]
        pos = self.offset(k)
        return self._lexical_error(token, pos) or self.error(
            f"expected {what}, found {_describe(token)}", pos)

    def _hex_error(self, k: int) -> RuleSyntaxError:
        """The error of the invalid hex body opened by token `k`, read
        one byte pair or wildcard at a time."""
        pos = self.offset(k) + 1
        items = 0
        while True:
            m = _HEX_ITEM.match(self.text, pos)
            kind = m.lastgroup
            pos = m.end()
            if kind == "BYTE" or kind == "WILDCARD":
                items += 1
            elif kind == "CLOSE":
                assert not items, "a valid hex body lexes as one token"
                return self.error("empty hex string", pos)
            elif kind == "EOF":
                return self.error("unterminated hex string", m.start(kind))
            elif kind == "OPEN_COMMENT":
                return self.error("unterminated comment", m.start(kind))
            else:
                return self.error(
                    "hex strings take only hex byte pairs and '??' wildcards",
                    m.start(kind))

    # --- grammar -----------------------------------------------------

    def parse_file(self) -> list[tuple[Rule, int]]:
        """Every rule, with the index of its name token."""
        toks = self.toks
        rules = []
        i = 0
        while toks[i] != _EOF:
            if toks[i] != "rule":
                raise self._expected(i, "'rule'")
            name = toks[i + 1]
            if name in _RESERVED or name[0] not in _NAME_START \
                    or len(name) > MAX_IDENTIFIER_LEN:
                raise self._rule_name_error(i + 1)
            if toks[i + 2] != "{":
                raise self._rule_open_error(i + 2)
            rule, end = self._parse_rule_body(name, i + 3)
            rules.append((rule, i + 1))
            i = end
        return rules

    def _rule_name_error(self, k: int) -> RuleSyntaxError:
        name = self.toks[k]
        if name[0] in _DIGITS:
            return self._fail(k, "rule name can't start with a digit")
        if name[0] not in _NAME_START:
            return self._expected(k, "rule name")
        return self._fail(k, f"'{name}' is a keyword, not a valid rule name")

    def _rule_open_error(self, k: int) -> RuleSyntaxError:
        """The error where '{' should open a rule. A hex token there is
        a '{' whose rule body starts with a byte pair or wildcard, and
        its first token is where 'condition' is expected."""
        if self.toks[k][0] != "{":
            return self._expected(k, "'{'")
        m = _TOKEN.match(self.text, self.offset(k) + 1)
        token, pos = m.group(1), m.start(1)
        return self._lexical_error(token, pos) or self.error(
            f"expected 'condition', found {_describe(token)}", pos)

    def _parse_rule_body(self, name: str, i: int) -> tuple[Rule, int]:
        """The rule named `name` from its first token after '{'."""
        toks = self.toks
        meta: tuple[tuple[str, str], ...] = ()
        strings: tuple[Pattern, ...] = ()
        seen = self.declared = set()
        self.reference_error = None
        self.depth = 0
        if toks[i] == "meta":
            if toks[i + 1] != ":":
                raise self._expected(i + 1, "':'")
            i += 2
            entries = []
            key = toks[i]
            while key[0] in _NAME_START and key != "strings" and key != "condition":
                if len(key) > MAX_IDENTIFIER_LEN:
                    raise self._bad_token(i)
                if toks[i + 1] != "=":
                    raise self._expected(i + 1, "'='")
                value = toks[i + 2]
                if value[0] == '"' and len(value) > 1:
                    # Meta text is stored as text; undecodable bytes are
                    # kept via backslash-replace so nothing is silently
                    # dropped.
                    value = _string_value(value[1:-1]).decode(
                        "utf-8", errors="backslashreplace")
                    i += 3
                else:
                    value, i = self._meta_number(i + 2)
                entries.append((key, value))
                key = toks[i]
            meta = tuple(entries)
        if toks[i] == "strings":
            if toks[i + 1] != ":":
                raise self._expected(i + 1, "':'")
            i += 2
            patterns = []
            ident = toks[i]
            while ident[0] == "$":
                if ident in seen or ident == "$" or toks[i + 1] != "=":
                    raise self._pattern_head_error(i)
                seen.add(ident)
                body = toks[i + 2]
                first = body[0]
                i += 3
                if first == '"' and len(body) > 2:
                    value = body[1:-1]
                    value = _string_value(value) if "\\" in value else value.encode("utf-8")
                    if toks[i] in _MODIFIER_WORDS:
                        nocase, fullword, i = self._parse_modifiers(i)
                        body = TextBody(value, nocase, fullword)
                    else:
                        body = TextBody(value, False, False)
                elif first == "{" and len(body) > 1:
                    body = _hex_body(body)
                elif first == "/" and len(body) > 1 and body != "/*":
                    nocase, fullword, k = self._parse_modifiers(i)
                    try:
                        body = RegexBody(body[1:-1].replace("\\/", "/"), nocase, fullword)
                    except RuleError as exc:
                        raise self._fail(k, str(exc), at=i - 1) from None
                    i = k
                else:
                    raise self._body_error(i - 1)
                patterns.append(Pattern(ident, body))
                ident = toks[i]
            if not patterns:
                raise self._fail(i, "strings section declared but empty")
            strings = tuple(patterns)
        if toks[i] != "condition":
            raise self._expected(i, "'condition'")
        if toks[i + 1] != ":":
            raise self._expected(i + 1, "':'")
        condition, i = self._parse_expr(i + 2)
        if toks[i] != "}":
            raise self._expected(i, "'}'")
        if self.reference_error:
            raise self._fail(i + 1, self.reference_error)
        return Rule(name, meta, strings, condition), i + 1

    def _meta_number(self, k: int) -> tuple[str, int]:
        """An integer meta value from token `k` as text, and the index
        past it."""
        toks = self.toks
        if toks[k] == "-":
            if toks[k + 1][0] not in _DIGITS:
                raise self._fail(k + 1, "expected integer after '-'")
            return str(-self._int(k + 1)), k + 2
        if toks[k][0] not in _DIGITS:
            raise self._fail(k, "meta values must be strings or integers")
        return str(self._int(k)), k + 1

    def _int(self, k: int) -> int:
        """The value of integer token `k`."""
        token = self.toks[k]
        if token[-1] not in _DIGITS:  # run into a name
            raise self._bad_token(k)
        if len(token) > MAX_INTEGER_DIGITS:
            raise self._fail(
                k, f"integer too long ({len(token)} > {MAX_INTEGER_DIGITS} digits)")
        return int(token)

    def _pattern_head_error(self, k: int) -> RuleSyntaxError:
        """The error of a pattern definition that token `k` starts."""
        ident = self.toks[k]
        if ident == "$":
            return self._bad_token(k)
        if ident in self.declared:
            return self._fail(k + 1, f"duplicate pattern id {ident}")
        return self._expected(k + 1, "'='")

    def _body_error(self, k: int) -> RuleSyntaxError:
        """The error where token `k` should be a pattern body."""
        if self.toks[k] == '""':
            return self._fail(k, "empty string")
        if self.toks[k] == "{":
            return self._hex_error(k)
        return self._fail(k, "expected a quoted string, /regex/ or { hex } body")

    def _parse_modifiers(self, i: int) -> tuple[bool, bool, int]:
        toks = self.toks
        nocase = fullword = False
        while toks[i] in _MODIFIER_WORDS:
            word = toks[i]
            if word == "nocase":
                nocase = True
            elif word == "fullword":
                fullword = True
            elif word in _UNSUPPORTED_KEYWORDS:
                raise self._fail(i, f"modifier '{word}' is not supported")
            else:
                break
            i += 1
        return nocase, fullword, i

    def _parse_expr(self, i: int) -> tuple[Condition, int]:
        """'or' over 'and' over `_parse_term`, both left-associative."""
        toks = self.toks
        left, i = self._parse_term(i)
        while toks[i] == "and":
            right, i = self._parse_term(i + 1)
            left = And(left, right)
        while toks[i] == "or":
            right, i = self._parse_term(i + 1)
            while toks[i] == "and":
                term, i = self._parse_term(i + 1)
                right = And(right, term)
            left = Or(left, right)
        return left, i

    def _parse_term(self, i: int) -> tuple[Condition, int]:
        """A primary condition under any number of 'not'. The first
        reference the rule's patterns cannot satisfy is kept in
        `reference_error`, and raised after the rule's closing '}'."""
        toks = self.toks
        token = toks[i]
        first = token[0]
        if first == "$":
            if token == "$":
                raise self._bad_token(i)
            if token not in self.declared:
                self._unsatisfied(f"condition references undeclared pattern {token}")
            ref = self.refs.get(token)
            if ref is None:
                ref = self.refs[token] = StringRef(token)
            return ref, i + 1
        if first in _DIGITS:
            count = self._int(i)
            if toks[i + 1] != "of":
                raise self._expected(i + 1, "'of'")
            return self._parse_of_target(count, i + 2)
        if token == "(" or token == "not":
            if self.depth == MAX_CONDITION_DEPTH:
                raise self._fail(
                    i, f"condition nested deeper than {MAX_CONDITION_DEPTH} levels")
            self.depth += 1
            if token == "(":
                inner, i = self._parse_expr(i + 1)
                if toks[i] != ")":
                    raise self._expected(i, "')'")
                i += 1
            else:
                operand, i = self._parse_term(i + 1)
                inner = Not(operand)
            self.depth -= 1
            return inner, i
        if token == "true" or token == "false":
            return BoolLiteral(token == "true"), i + 1
        if token == "#" or token == "@":
            raise self._fail(
                i, "string counts and offsets are outside the supported subset")
        if token in _UNSUPPORTED_KEYWORDS:
            raise self._fail(i, f"'{token}' is outside the supported condition subset")
        raise self._expected(i, "a condition")

    def _parse_of_target(self, count: int, i: int) -> tuple[OfExpr, int]:
        toks = self.toks
        if toks[i] == "them":
            self._check_count(count, len(self.declared))
            return OfExpr(count, None), i + 1
        if toks[i] != "(":
            raise self._fail(i, "expected 'them' or a pattern list after 'of'")
        idents = []
        while True:
            i += 1
            ident = toks[i]
            if ident[0] != "$":
                raise self._fail(i, "expected pattern id in 'of' list")
            if ident == "$":
                raise self._bad_token(i)
            if ident not in self.declared:
                self._unsatisfied(f"'of' list references undeclared pattern {ident}")
            idents.append(ident)
            i += 1
            if toks[i] != ",":
                break
        if toks[i] != ")":
            raise self._expected(i, "')'")
        self._check_count(count, len(idents))
        return OfExpr(count, tuple(idents)), i + 1

    def _check_count(self, count: int, available: int) -> None:
        """Keep the error of 'N of' over `available` patterns, if any."""
        if count < 1:
            self._unsatisfied("'N of' requires N >= 1")
        elif count > available:
            self._unsatisfied(
                f"'{count} of' exceeds the {available} available patterns")

    def _unsatisfied(self, message: str) -> None:
        """Keep `message` as the rule's reference error, unless it has one."""
        if self.reference_error is None:
            self.reference_error = message


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
        files.append((parser, parser.parse_file()))
    defined_in: dict[str, str | None] = {}
    for parser, rules in files:
        for rule, name_at in rules:
            if rule.name in defined_in:
                first = defined_in[rule.name]
                where = "" if first == parser.path else f", first defined in {first}"
                raise parser.error(f"duplicate rule name '{rule.name}'{where}",
                                   parser.offset(name_at))
            defined_in[rule.name] = parser.path
    return RuleSet(rules=tuple(rule for _, rules in files for rule, _ in rules))
