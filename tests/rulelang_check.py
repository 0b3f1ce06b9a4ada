"""Comparison of `parse_rules` with the character-at-a-time oracle
(`tests/rulelang_oracle.py`), and the rule texts the tests parse.

`tests/conftest.py` records the text of every rule file the parser
reads during a test in `PARSED`; after each test, each text not yet in
`CHECKED` goes through `assert_parse_matches_oracle`. The state lives
here, not in conftest, because conftest is imported twice: by pytest,
and as `tests.conftest` by the test modules.
"""

from __future__ import annotations

from tests import rulelang_oracle as oracle
from wsdetect.rulelang import RuleSyntaxError, parse_rules

PARSED: list[str] = []
CHECKED: set[str] = set()


def parse_outcome(parse, text: str):
    """The rules `parse(text)` returns, or the message, line and column
    of the `RuleSyntaxError` it raises."""
    try:
        return parse(text).rules
    except RuleSyntaxError as exc:
        return exc.message, exc.line, exc.column


def assert_parse_matches_oracle(text: str) -> None:
    CHECKED.add(text)
    assert parse_outcome(parse_rules, text) == parse_outcome(oracle.parse_rules, text), text


def beyond_oracle(text: str) -> str:
    """Leave `text` out of the oracle comparison, and return it. For a
    text past a parser limit the oracle lacks: it recurses without a
    depth limit, into Python's recursion limit, and converts an integer
    of any length, into Python's digit limit."""
    CHECKED.add(text)
    return text
