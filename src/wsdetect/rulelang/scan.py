"""Matching files against a ruleset, and loading rule files."""

from __future__ import annotations

from pathlib import Path

from wsdetect.files import read_each
from wsdetect.rulelang.matcher import CompiledRuleSet, match_buffer
from wsdetect.rulelang.model import RuleError, RuleSet, RuleSyntaxError
from wsdetect.rulelang.parser import parse_rules, parse_sources

# the file name suffix of the rule files in a rules directory
RULE_FILE_SUFFIX = ".yar"


def match_files(rules: RuleSet, paths,
                ) -> tuple[list[tuple[str, list[str]]], list[tuple[str, str]]]:
    """Each readable file of `paths`, in order, with the names of the
    rules it matched (none for a clean file); and each unreadable one
    with its reason (see `read_each`)."""
    compiled = CompiledRuleSet(rules)
    matched: list[tuple[str, list[str]]] = []
    failures: list[tuple[str, str]] = []
    for path, data in read_each(paths):
        if isinstance(data, str):
            failures.append((path, data))
        else:
            matched.append((path, match_buffer(compiled, data)))
    return matched, failures


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
