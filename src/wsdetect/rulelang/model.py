"""AST and error types for the rule language."""

from __future__ import annotations

import re
from dataclasses import dataclass, field


MAX_IDENTIFIER_LEN = 128


class RuleError(Exception):
    """Base class for rule compilation/evaluation problems."""


class RuleSyntaxError(RuleError):
    """Syntax or semantic error in a rule file, with source position and,
    for a rule directory, the file it is in."""

    def __init__(self, message: str, line: int, column: int,
                 path: str | None = None):
        where = f"line {line}, column {column}"
        super().__init__(f"{path}: {where}: {message}" if path else f"{where}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.path = path


@dataclass(frozen=True)
class TextBody:
    value: bytes
    nocase: bool = False
    fullword: bool = False


@dataclass(frozen=True)
class HexBody:
    # Each element is an int byte value, or None for a `??` wildcard.
    tokens: tuple[int | None, ...]


@dataclass(frozen=True)
class RegexBody:
    """A regex over bytes: each character of `source` stands for its
    UTF-8 bytes, as in a text string. Compiled once, here, with
    ``DOTALL`` (and ``IGNORECASE`` for ``nocase``); an invalid source
    raises :class:`RuleError`."""

    source: str
    nocase: bool = False
    fullword: bool = False
    compiled: re.Pattern[bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flags = re.DOTALL | (re.IGNORECASE if self.nocase else 0)
        try:
            compiled = re.compile(self.source.encode("utf-8"), flags)
        except re.error as exc:
            raise RuleError(f"invalid regex: {exc}") from None
        at = _nested_repeat(self.source)
        if at is not None:
            raise RuleError(f"invalid regex: the quantifier at position {at} repeats a "
                            "group that holds a quantifier or '|'")
        object.__setattr__(self, "compiled", compiled)


# one token of a regex as written: a (?#...) comment, a group's opening
# with its '?', ')', '|', a quantifier (*, + or ?, or {m}, {m,}, {,n},
# {m,n} or {,}) with its lazy or possessive mark, a class (a ']' first is
# a member), an escape ('\x' and two hex digits, up to three digits, or
# one character), a run of plain ASCII characters, or one other character
_TOKEN = re.compile(
    r"(?P<comment>\(\?#[^)]*\))|(?P<open>\(\??)|(?P<close>\))|(?P<alt>\|)"
    r"|(?P<quantifier>(?:[*+?]|\{(?:\d+|\d*,\d*)\})[?+]?)"
    r"|(?P<class>\[\^?\]?(?:\\.|[^\]\\])*\])|(?P<escape>\\(?:x[0-9a-fA-F]{2}|[0-9]{1,3}|.))"
    r"|(?P<run>[^\x80-\U0010ffff()|*+?{\[\\.^$]+)|(?P<other>.)", re.DOTALL)
# a ')' that a quantifier may follow, past whitespace and comments: a
# regex without one repeats no group
_GROUP_THEN_QUANTIFIER = re.compile(r"\)(?:\s|\(\?#[^)]*\))*[*+?{]")


def _nested_repeat(source: str) -> int | None:
    """The position in `source`, a regex that compiles, of the first
    quantifier that repeats a group holding a quantifier or a '|' at any
    depth, or None. Such a regex can backtrack exponentially in the
    subject's length, as /(a+)+b/ does. Read as written: whitespace and
    (?#...) comments between a group and its quantifier are skipped."""
    if not _GROUP_THEN_QUANTIFIER.search(source):
        return None
    holds = [False]  # per open group: whether it holds a quantifier or '|'
    last = None  # what a quantifier here repeats: None (nothing), else whether it holds one
    for token in _TOKEN.finditer(source):
        kind = token.lastgroup
        if kind == "quantifier":
            if last:
                return token.start()
            holds[-1] = True
            last = None
        elif kind == "comment" or token.group().isspace():
            continue
        elif kind == "open":
            holds.append(False)
            last = None
        elif kind == "close":
            last = holds.pop() if len(holds) > 1 else False
            holds[-1] |= last
        elif kind == "alt":
            holds[-1] = True
            last = None
        else:
            last = False
    return None


def _required_literal(source: str) -> str:
    """The longest run of plain ASCII characters at depth 0 of `source`,
    a regex that compiles and is not VERBOSE, or '' when it has a '|'
    at depth 0: every match holds that run. A group, a class, an escape,
    a non-ASCII character, '.', '^', '$' and a '{' that starts no
    quantifier end a run; a quantifier drops the character before it."""
    runs = [""]  # the runs read so far, the last one still open
    depth = 0
    for token in _TOKEN.finditer(source):
        kind = token.lastgroup
        if kind in ("open", "close"):
            depth += 1 if kind == "open" else -1
        elif depth or kind == "comment":
            continue
        elif kind == "alt":
            return ""
        elif kind == "quantifier":
            runs[-1] = runs[-1][:-1]
        elif kind == "run":
            runs[-1] += token.group()
            continue
        runs.append("")
    return max(runs, key=len)


@dataclass(frozen=True)
class Pattern:
    """A named string pattern, e.g. ``$s0 = "b374k" fullword``."""

    ident: str  # includes the leading "$"
    body: TextBody | HexBody | RegexBody


# --- condition expression tree -------------------------------------------

@dataclass(frozen=True)
class StringRef:
    ident: str


@dataclass(frozen=True)
class OfExpr:
    count: int
    targets: tuple[str, ...] | None  # None means "them" (all declared patterns)


@dataclass(frozen=True)
class And:
    left: Condition
    right: Condition


@dataclass(frozen=True)
class Or:
    left: Condition
    right: Condition


@dataclass(frozen=True)
class Not:
    operand: Condition


@dataclass(frozen=True)
class BoolLiteral:
    value: bool


Condition = StringRef | OfExpr | And | Or | Not | BoolLiteral


@dataclass(frozen=True)
class Rule:
    name: str
    meta: tuple[tuple[str, str], ...]
    strings: tuple[Pattern, ...]
    condition: Condition

    def pattern_ids(self) -> tuple[str, ...]:
        return tuple(p.ident for p in self.strings)


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[Rule, ...]

    def rule_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)

