"""The early-stop listing parse against the full parse it replaced.

`wsdetect.opcode.parse_listing` keeps only in-vocabulary mnemonics and
stops at the row holding the `max_length`-th; `tests/opcode_oracle.py`
reads every row and filters afterwards. Both must give the same vector,
and `parse_listing` must raise `OpcodeParseError` exactly when the full
parse finds no op row.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import opcode_oracle as oracle
from wsdetect.opcode import OpcodeParseError, OpcodeVocabulary, oiva, parse_listing

# VLD-like tokens: ASCII and Unicode digits, row markers, operand text,
# and caps words. A vocabulary is drawn from MNEMONICS, so every caps
# word can be in or out of it; "echo" and "Q" are vocabulary entries no
# opcode cell can hold.
MNEMONICS = ("ECHO", "INIT_FCALL", "RETURN", "ASSIGN", "A1", "X_", "UPPER",
             "echo", "Q")
_VLD_TOKENS = MNEMONICS + ("0", "7", "12", "\u00b2", "\u0663", "1\u00b2", "E", ">",
                           "#*", "'UPPER", "TEXT'", "!0,", "$cmd", "null", "Echo",
                           "ECHO2", "2ECHO", "_A")
_SPACES = (" ", "  ", "\t", "\x0b", "\xa0")
_BREAKS = ("\n", "\r\n", "\r", "\x1c", "\x85", " ")

_op_row = st.tuples(st.sampled_from(("2", "14", "\u0663")), st.sampled_from(("0", "3*", "")),
                    st.sampled_from(("", "E", "E >", ">")), st.sampled_from(MNEMONICS),
                    st.sampled_from(("", "'hi'", "!0, 'UPPER TEXT'", "RETURN 1")))
_free_row = st.lists(st.tuples(st.sampled_from(_SPACES), st.sampled_from(_VLD_TOKENS)),
                     max_size=7)


@st.composite
def vld_dumps(draw):
    """Op rows with the opcode in and out of the vocabulary, caps words
    with no number before them, banner lines and free token rows."""
    rows = draw(st.lists(st.one_of(_op_row.map(lambda cells: "   ".join(cells)),
                                   _free_row.map(lambda row: "".join(s + t for s, t in row)),
                                   st.sampled_from(("Finding entry points",
                                                    "ECHO RETURN 1",
                                                    "function name:  (null)",
                                                    "line  #* E I O op"))),
                         max_size=30))
    return "".join(row + draw(st.sampled_from(_BREAKS)) for row in rows)


# CIL text: labelled instructions (some not in the vocabulary), label
# operands with no colon after them, directives and line wrapping
_CIL_MNEMONICS = ("nop", "ldstr", "br.s", "ret", "call", "ldloc.0", "Stloc")
_cil_piece = st.one_of(
    st.tuples(st.integers(0, 0xFFFF), st.sampled_from(("", " ")),
              st.sampled_from(_CIL_MNEMONICS), st.sampled_from(("", " \"x\"", " IL_0016")))
    .map(lambda p: f"IL_{p[0]:04x}{p[1]}: {p[2]}{p[3]}"),
    st.sampled_from((".maxstack 1", ".locals init (int32 V_0)", "{", "}", "IL_0016",
                     "IL_00: nop", "IL_0010 :\n  ret")))


@st.composite
def cil_texts(draw):
    pieces = draw(st.lists(_cil_piece, max_size=25))
    return "".join(p + draw(st.sampled_from(("\n", " ", "\r\n"))) for p in pieces)


def _check(text, language, alphabet, data):
    vocab = OpcodeVocabulary(tuple(data.draw(st.lists(
        st.sampled_from(alphabet), min_size=1, max_size=len(alphabet), unique=True))))
    full = oracle.PARSERS[language](text)
    known = sum(m in vocab.mnemonics for m in full)
    # fewer, exactly and more in-vocabulary rows than max_length
    max_length = data.draw(st.sampled_from(
        [max(known - 1, 1), max(known, 1), known + 1]) | st.integers(1, 40))
    if not full:
        with pytest.raises(OpcodeParseError, match=f"^no {language} opcode rows recognized$"):
            parse_listing(text, language, vocab, max_length)
        return
    listing = parse_listing(text, language, vocab, max_length)
    assert oiva(listing, vocab, max_length) == oracle.oiva(full, vocab, max_length)
    assert listing.mnemonics == [m for m in full if m in vocab.mnemonics][:max_length]
    if len(listing.mnemonics) < max_length:
        assert listing.rows == len(full)  # no stop: every row was read
    else:
        # the stop is at the row holding the last kept mnemonic
        kept = 0
        for rows, mnemonic in enumerate(full, 1):
            kept += mnemonic in vocab.mnemonics
            if kept == max_length:
                break
        assert listing.rows == rows


@given(vld_dumps(), st.data())
@settings(max_examples=400, deadline=None)
def test_vld_vectors_equal_the_full_parse(text, data):
    _check(text, "php", MNEMONICS, data)


@given(cil_texts(), st.data())
@settings(max_examples=300, deadline=None)
def test_cil_vectors_equal_the_full_parse(text, data):
    _check(text, "cil", _CIL_MNEMONICS, data)


def test_rows_past_max_length_are_not_read():
    vocab = OpcodeVocabulary(("ECHO", "RETURN"))
    dump = "".join(f"{n} {n} ECHO\n" for n in range(5)) + "9 9 NOPE\n9 9 RETURN\n"
    listing = parse_listing(dump, "php", vocab, 3)
    assert listing.mnemonics == ["ECHO"] * 3 and listing.rows == 3
    cil = "IL_0000: nop\nIL_0001: ret\nIL_0002: ret\nIL_0003: nop\n"
    listing = parse_listing(cil, "cil", OpcodeVocabulary(("ret",)), 1)
    assert listing.mnemonics == ["ret"] and listing.rows == 2
