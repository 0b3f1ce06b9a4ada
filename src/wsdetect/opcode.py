"""Opcode listings and index vectorization.

Two textual disassembly frontends are parsed here: VLD dumps for PHP
(``php -d vld.active=1``) and CIL disassembly for .NET. Listings are
turned into fixed-length vectors of 1-based vocabulary indices, with 0
reserved for padding so the first opcode is never confused with pad.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np


class OpcodeError(Exception):
    pass


@dataclass(frozen=True)
class OpcodeVocabulary:
    """Ordered mnemonic list; index of a mnemonic is its 1-based position."""

    mnemonics: tuple[str, ...]
    language: str = "custom"

    def __post_init__(self):
        if not self.mnemonics:
            raise OpcodeError("vocabulary has no mnemonics")
        index: dict[str, int] = {}
        for i, m in enumerate(self.mnemonics, 1):
            if index.setdefault(m, i) != i:
                raise OpcodeError(f"duplicate mnemonic {m!r} in vocabulary")
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.mnemonics)

    def index_of(self, mnemonic: str) -> int | None:
        """1-based index, or None when the mnemonic is out of vocabulary."""
        return self._index.get(mnemonic)


@dataclass
class OpcodeListing:
    mnemonics: list[str]


@dataclass(frozen=True, eq=False)
class OciVector:
    """Zero-padded vector of 1-based opcode indices (padding is a suffix).

    `indices` is a read-only intp array, built once from any integer
    sequence, so a batch of vectors stacks into a model input without
    converting Python ints. Two vectors are equal when their indices are.
    """

    indices: np.ndarray

    def __post_init__(self):
        indices = np.array(self.indices, dtype=np.intp)
        if indices.ndim != 1:
            raise OpcodeError("an OCI vector is one row of indices")
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OciVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash(self.indices.tobytes())


def load_vocabulary(path: str | Path, language: str = "custom") -> OpcodeVocabulary:
    """Load a one-mnemonic-per-line vocabulary file. '#' starts a comment."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    entries = (raw.split("#", 1)[0].strip() for raw in lines)
    try:
        return OpcodeVocabulary(tuple(e for e in entries if e), language=language)
    except OpcodeError as exc:
        raise OpcodeError(f"{path}: {exc}") from None


# --- disassembly frontends -------------------------------------------------

# A VLD opcode cell: all-caps token of length >= 2 (ECHO, INIT_FCALL, ...).
_VLD_OP = re.compile(r"^[A-Z][A-Z0-9_]+$")

# CIL instruction: an IL_xxxx label, a colon, then the mnemonic.
_CIL_INSTR = re.compile(r"IL_[0-9A-Fa-f]{4}\s*:\s*([A-Za-z][A-Za-z0-9.]*)")


def parse_vld(text: str) -> OpcodeListing:
    """Extract the opcode column from a VLD dump, one mnemonic per op row.

    Op rows look like ``   2     0  E >   ECHO  'hi'``; banner, header
    and branch-summary lines carry no all-caps opcode token and are
    skipped. Lines with no recognizable opcode are never an error.
    """
    mnemonics: list[str] = []
    append = mnemonics.append
    is_op = _VLD_OP.match
    for line in text.splitlines():
        saw_number = False
        for token in line.split():
            # a token of digits never starts with [A-Z], so this test
            # skips only regex calls that would fail
            if token.isdigit():
                saw_number = True
            elif is_op(token):
                # require an op/line number earlier in the row so stray
                # caps words in free text do not register
                if saw_number:
                    append(token)
                break
    return OpcodeListing(mnemonics)


def parse_cil(text: str) -> OpcodeListing:
    """Extract CIL mnemonics, one per ``IL_xxxx:`` label, in label order.

    Directives (``.maxstack``, ``.locals``, ``.custom``) and operand
    text never match the instruction shape and are skipped. Works on
    line-wrapped disassembly since the scan is not line-based.
    """
    mnemonics = [m.group(1) for m in _CIL_INSTR.finditer(text)]
    return OpcodeListing(mnemonics)


# Each opcode language: its listing parser and its built-in vocabulary
# file in `wsdetect.data`.
LANGUAGES = {
    "php": (parse_vld, "php_opcodes.txt"),
    "cil": (parse_cil, "cil_opcodes.txt"),
}


def _language(language: str) -> tuple:
    try:
        return LANGUAGES[language]
    except KeyError:
        raise OpcodeError(f"unknown opcode language {language!r}") from None


def parse_listing(text: str, language: str) -> OpcodeListing:
    parse, _ = _language(language)
    return parse(text)


def builtin_vocabulary(language: str) -> OpcodeVocabulary:
    """The vocabulary shipped with the package for `language`."""
    _, filename = _language(language)
    ref = resources.files("wsdetect.data").joinpath(filename)
    with resources.as_file(ref) as path:
        return load_vocabulary(path, language=language)


# --- vectorization ---------------------------------------------------------

def oiva(listing: OpcodeListing, vocab: OpcodeVocabulary, max_length: int) -> OciVector:
    """Map a listing to its fixed-length index vector.

    Listing entries are matched as whole tokens against the vocabulary;
    out-of-vocabulary entries contribute nothing. The index sequence is
    right-padded with 0 to ``max_length``; sequences longer than that
    keep their first ``max_length`` indices.
    """
    if max_length < 1:
        raise OpcodeError("max_length must be >= 1")
    indices: list[int] = []
    for mnemonic in listing.mnemonics:
        idx = vocab.index_of(mnemonic)
        if idx is not None:
            indices.append(idx)
            if len(indices) == max_length:
                break
    padded = np.zeros(max_length, dtype=np.intp)
    padded[:len(indices)] = indices
    return OciVector(padded)


@dataclass
class VectorizeFailure:
    path: str
    reason: str


@dataclass
class VectorizedCorpus:
    vectors: list[OciVector]
    labels: list[int]
    paths: list[str]
    failures: list[VectorizeFailure] = field(default_factory=list)


def vectorize_corpus(items: list[tuple[str | Path, int]], language: str,
                     vocab: OpcodeVocabulary, max_length: int) -> VectorizedCorpus:
    """Vectorize (path, label) disassembly files; row order = input order.

    Unreadable files are recorded as failures and the batch continues.
    """
    corpus = VectorizedCorpus(vectors=[], labels=[], paths=[])
    for path, label in items:
        try:
            text = Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            corpus.failures.append(VectorizeFailure(path=str(path), reason=str(exc)))
            continue
        listing = parse_listing(text, language)
        corpus.vectors.append(oiva(listing, vocab, max_length))
        corpus.labels.append(label)
        corpus.paths.append(str(path))
    return corpus


def write_corpus_csv(corpus: VectorizedCorpus, path: str | Path) -> None:
    """CSV layout: path,label,oci_0..oci_{max_length-1}."""
    if not corpus.vectors:
        raise OpcodeError("nothing to write: corpus is empty")
    width = len(corpus.vectors[0])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label"] + [f"oci_{i}" for i in range(width)])
        for p, label, vec in zip(corpus.paths, corpus.labels, corpus.vectors):
            writer.writerow([p, label, *vec.indices])


def _utf8_lines(fh, path):
    """The lines of `fh`, opened with errors="surrogateescape"; a line
    that is not UTF-8 is an `OpcodeError` naming the path and line."""
    for number, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise OpcodeError(f"{path}:{number}: not UTF-8 text") from None
        yield line


def read_corpus_csv(path: str | Path, vocab_size: int) -> VectorizedCorpus:
    """Read a `write_corpus_csv` file written for a vocabulary of
    `vocab_size` mnemonics. A line that is not UTF-8 or not CSV, a row
    whose width differs from the header's, a cell that is not an
    integer, a label other than 0 or 1, or an index outside
    0..vocab_size is an `OpcodeError` naming the path and line."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(_utf8_lines(fh, path))
        try:
            return _read_corpus(reader, path, vocab_size)
        except csv.Error as exc:
            raise OpcodeError(f"{path}:{reader.line_num}: {exc}") from None


def _read_corpus(reader, path, vocab_size: int) -> VectorizedCorpus:
    header = next(reader, None)
    if not header or header[:2] != ["path", "label"]:
        raise OpcodeError(f"{path}: not a vectorized-corpus CSV")
    corpus = VectorizedCorpus(vectors=[], labels=[], paths=[])
    for row in reader:
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, the header has {len(header)}")
            label = int(row[1])
            indices = np.array(row[2:], dtype=np.intp)
            if label not in (0, 1):
                raise ValueError(f"label {label} is not 0 or 1")
            outside = (indices < 0) | (indices > vocab_size)
            if outside.any():
                raise ValueError(f"index {indices[outside.argmax()]} is outside "
                                 f"0..{vocab_size}, the vocabulary's range")
        except (ValueError, OverflowError) as exc:
            raise OpcodeError(f"{path}:{reader.line_num}: {exc}") from None
        corpus.paths.append(row[0])
        corpus.labels.append(label)
        corpus.vectors.append(OciVector(indices))
    return corpus
