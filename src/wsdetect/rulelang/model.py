"""AST and result types for the rule language."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


MAX_IDENTIFIER_LEN = 128


class RuleError(Exception):
    """Base class for rule compilation/evaluation problems."""


class RuleSyntaxError(RuleError):
    """Syntax or semantic error in a rule file, with source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


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
    source: str
    nocase: bool = False
    fullword: bool = False


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
    fingerprint: str

    @staticmethod
    def fingerprint_of(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()

    def rule_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)


@dataclass(frozen=True)
class PatternMatch:
    """One pattern occurrence inside a subject."""

    pattern_id: str
    offset: int


@dataclass
class MatchReport:
    """Rules matched against one subject (file path or buffer tag)."""

    subject: str
    matched: list[tuple[str, list[PatternMatch]]] = field(default_factory=list)

    @property
    def rule_names(self) -> list[str]:
        return [name for name, _ in self.matched]

    def __bool__(self) -> bool:
        return bool(self.matched)
