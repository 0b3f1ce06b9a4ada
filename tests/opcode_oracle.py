"""The opcode listing and vectorization as they were before the parse
stopped at `max_length`, kept as a test oracle.

`parse_vld` and `parse_cil` read every op row of a listing and keep
every mnemonic, in the vocabulary or not; `oiva` then maps the whole
listing to indices and keeps the first `max_length`.
`tests/test_opcode_oracle.py` requires `wsdetect.opcode`'s early-stop
parse, followed by its `oiva`, to give the same vector, and to see op
rows exactly when these parsers do.
"""

from __future__ import annotations

import numpy as np

from wsdetect.opcode import (
    _CIL_INSTR,
    _VLD_OP,
    OciVector,
    OpcodeError,
    OpcodeVocabulary,
)


def parse_vld(text: str) -> list[str]:
    """The opcode column of a VLD dump, one mnemonic per op row."""
    mnemonics: list[str] = []
    append = mnemonics.append
    is_op = _VLD_OP.match
    for line in text.splitlines():
        saw_number = False
        for token in line.split():
            if token.isdigit():
                saw_number = True
            elif is_op(token):
                if saw_number:
                    append(token)
                break
    return mnemonics


def parse_cil(text: str) -> list[str]:
    """CIL mnemonics, one per ``IL_xxxx:`` label, in label order."""
    return [m.group(1) for m in _CIL_INSTR.finditer(text)]


PARSERS = {"php": parse_vld, "cil": parse_cil}


def oiva(mnemonics: list[str], vocab: OpcodeVocabulary, max_length: int) -> OciVector:
    """The first `max_length` in-vocabulary indices of a listing,
    right-padded with 0."""
    if max_length < 1:
        raise OpcodeError("max_length must be >= 1")
    indices = [i for i in map(vocab._index.get, mnemonics)
               if i is not None][:max_length]
    padded = np.zeros(max_length, dtype=np.intp)
    padded[:len(indices)] = indices
    return OciVector(padded)
