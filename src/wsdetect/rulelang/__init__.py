"""Signature rule engine: a Yara-subset language for webshell detection.

Supports text/hex/regex string patterns with ``nocase``/``fullword``
modifiers and conditions built from string references, ``N of them``,
``N of ($a, $b, ...)`` and boolean operators. Deliberately not full
Yara: no modules, no string counts, no offsets, no filesize.
"""

from wsdetect.rulelang.model import (
    Condition,
    HexBody,
    Pattern,
    RegexBody,
    Rule,
    RuleError,
    RuleSet,
    RuleSyntaxError,
    TextBody,
)
from wsdetect.rulelang.parser import parse_rules
from wsdetect.rulelang.scan import load_rules_dir, load_rules_file, match_files
from wsdetect.rulelang.matcher import CompiledRuleSet, match_buffer

__all__ = [
    "CompiledRuleSet",
    "Condition",
    "HexBody",
    "Pattern",
    "RegexBody",
    "Rule",
    "RuleError",
    "RuleSet",
    "RuleSyntaxError",
    "TextBody",
    "load_rules_dir",
    "load_rules_file",
    "match_buffer",
    "match_files",
    "parse_rules",
]
