"""Filesystem scanning: apply a compiled ruleset to whole trees."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from wsdetect.rulelang.matcher import CompiledRuleSet, match_buffer
from wsdetect.rulelang.model import RuleError, RuleSet, RuleSyntaxError
from wsdetect.rulelang.parser import parse_rules, parse_sources

# the file name suffix of the rule files in a rules directory
RULE_FILE_SUFFIX = ".yar"


@dataclass
class ScanError:
    path: str
    reason: str


def scan_tree(rules: RuleSet, root: str | Path,
              extensions: tuple[str, ...] | None = None,
              ) -> tuple[list[tuple[str, list[str]]], list[ScanError]]:
    """Scan a directory tree and return each file with at least one
    match, with the names of the rules it matched.

    Results come back in deterministic lexicographic path order.
    Unreadable files are collected as errors, never silently skipped.
    """
    root = Path(root)
    if not root.is_dir():
        raise RuleError(f"scan root {root} is not a readable directory")
    compiled = CompiledRuleSet(rules)

    paths: list[Path] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = Path(dirpath) / name
            if extensions and path.suffix.lstrip(".").lower() not in extensions:
                continue
            paths.append(path)
    paths.sort()

    findings: list[tuple[str, list[str]]] = []
    errors: list[ScanError] = []
    for path in paths:
        try:
            data = path.read_bytes()
        except OSError as exc:
            errors.append(ScanError(path=str(path), reason=str(exc)))
            continue
        names = match_buffer(compiled, data)
        if names:
            findings.append((str(path), names))
    return findings, errors


def _read_rule_text(path: str | Path) -> str:
    """A rule file's text: UTF-8, with CRLF and CR line ends read as LF,
    as a text-mode read gives them.

    A byte that is not UTF-8 is a :class:`RuleSyntaxError` naming the
    file, at the line and column the parser would give its character.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _lf(data[:exc.start].decode("utf-8"))
        raise RuleSyntaxError(
            f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
            before.count("\n") + 1, len(before) - before.rfind("\n"),
            str(path)) from None
    return _lf(text)


def _lf(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_rules_file(path: str | Path) -> RuleSet:
    return parse_rules(_read_rule_text(path))


def load_rules_dir(path: str | Path) -> RuleSet:
    """Every RULE_FILE_SUFFIX file in a directory, sorted by filename, as
    one rule set. Errors name the file they are in (see `parse_sources`)."""
    directory = Path(path)
    if not directory.is_dir():
        raise RuleError(f"rules directory {directory} does not exist")
    files = sorted(p for p in directory.iterdir() if p.suffix == RULE_FILE_SUFFIX)
    if not files:
        raise RuleError(f"no {RULE_FILE_SUFFIX} files in {directory}")
    return parse_sources((str(p), _read_rule_text(p)) for p in files)
