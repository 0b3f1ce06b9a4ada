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


# a quantifier: *, + or ?, or {m}, {m,}, {,n}, {m,n} or {,}
_QUANTIFIER = re.compile(r"[*+?]|\{(?:\d+|\d*,\d*)\}")
# a ')' that a quantifier may follow, past whitespace and comments: a
# regex without one repeats no group
_GROUP_THEN_QUANTIFIER = re.compile(r"\)(?:\s|\(\?#[^)]*\))*[*+?{]")


def _nested_repeat(source: str) -> int | None:
    """The position in `source`, a regex that compiles, of the first
    quantifier that repeats a group holding a quantifier or a '|' at any
    depth, or None. Such a regex can backtrack exponentially in the
    subject's length, as /(a+)+b/ does. Read as written: whitespace and
    (?#...) comments between a group and its quantifier are skipped, a
    character class or an escape is one atom, and a '?' or '+' right
    after a quantifier makes it lazy or possessive."""
    if not _GROUP_THEN_QUANTIFIER.search(source):
        return None
    holds = [False]  # per open group: whether it holds a quantifier or '|'
    last = None  # what a quantifier here repeats: None (nothing), else whether it holds one
    k = 0
    while k < len(source):
        ch = source[k]
        quantifier = _QUANTIFIER.match(source, k) if last is not None else None
        if quantifier:
            if last:
                return k
            holds[-1] = True
            k = quantifier.end() + source.startswith(("?", "+"), quantifier.end())
            last = None
        elif ch.isspace():
            k += 1
        elif source.startswith("(?#", k):
            k = source.index(")", k) + 1
        elif ch == "(":
            holds.append(False)
            last = None
            k += 1
        elif ch == ")":
            last = holds.pop() if len(holds) > 1 else False
            holds[-1] |= last
            k += 1
        elif ch == "|":
            holds[-1] = True
            last = None
            k += 1
        else:
            last = False
            k = _class_end(source, k) if ch == "[" else k + 1 + (ch == "\\")
    return None


def _class_end(source: str, k: int) -> int:
    """The position after the character class that opens at `k`."""
    k += 1
    k += source.startswith("^", k)
    k += source.startswith("]", k)  # a ']' first is a member
    while k < len(source) and source[k] != "]":
        k += 1 + (source[k] == "\\")
    return k + 1


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

