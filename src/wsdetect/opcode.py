"""Opcode listings and index vectorization.

Two textual disassembly frontends are parsed here: VLD dumps for PHP
(``php -d vld.active=1``) and CIL disassembly for .NET. Listings are
turned into fixed-length vectors of 1-based vocabulary indices, with 0
reserved for padding so the first opcode is never confused with pad.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from wsdetect.files import read_each, utf8_lines


class OpcodeError(Exception):
    pass


class OpcodeParseError(OpcodeError):
    """A listing with no opcode rows: not a dump of the language.

    Raised instead of returning an empty listing, so such a file is
    never classified as benign nor vectorized into a training row.
    """


@dataclass(frozen=True)
class OpcodeVocabulary:
    """Ordered mnemonic list; index of a mnemonic is its 1-based position.

    `digest`, the sha256 hex of the mnemonics joined by newlines, is
    computed once, when the vocabulary is built; a CNN checkpoint stores
    it to name the vocabulary it was trained with."""

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
        object.__setattr__(self, "digest", hashlib.sha256(
            "\n".join(self.mnemonics).encode("utf-8")).hexdigest())

    def __len__(self) -> int:
        return len(self.mnemonics)


@dataclass
class OpcodeListing:
    """Opcode mnemonics in listing order, and `rows`, the number of op
    rows they were read from: a parse that keeps only in-vocabulary
    mnemonics counts the rows it dropped too. A listing built from
    mnemonics alone has one row per mnemonic."""

    mnemonics: list[str]
    rows: int | None = None

    def __post_init__(self):
        if self.rows is None:
            self.rows = len(self.mnemonics)


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
    """Load a one-mnemonic-per-line vocabulary file. '#' starts a comment.
    A line that is not UTF-8 is an `OpcodeError` naming the path and line."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = "".join(utf8_lines(fh, path, OpcodeError))
    entries = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    try:
        return OpcodeVocabulary(tuple(e for e in entries if e), language=language)
    except OpcodeError as exc:
        raise OpcodeError(f"{path}: {exc}") from None


# --- disassembly frontends -------------------------------------------------

# A VLD opcode cell: all-caps token of length >= 2 (ECHO, INIT_FCALL, ...).
_VLD_OP = re.compile(r"^[A-Z][A-Z0-9_]+$")

# CIL instruction: an IL_xxxx label, a colon, then the mnemonic.
_CIL_INSTR = re.compile(r"IL_[0-9A-Fa-f]{4}\s*:\s*([A-Za-z][A-Za-z0-9.]*)")


def parse_vld(text: str, vocab: OpcodeVocabulary, max_length: int) -> OpcodeListing:
    """The first `max_length` in-vocabulary mnemonics of a VLD dump's
    opcode column, one per op row, in row order.

    Op rows look like ``   2     0  E >   ECHO  'hi'``: the row's first
    all-caps token is its opcode, and an op/line number must come
    earlier in the row so stray caps words in free text do not
    register. Banner, header and branch-summary lines carry no such
    token and are skipped; lines with no recognizable opcode are never
    an error. The parse stops at the row that holds the `max_length`-th
    kept mnemonic.
    """
    ops = _vld_ops(vocab)
    mnemonics: list[str] = []
    append = mnemonics.append
    is_op = _VLD_OP.match
    rows = 0
    for line in text.splitlines():
        saw_number = False
        for token in line.split():
            # a token of digits never starts with [A-Z], so this test
            # skips only lookups and regex calls that would fail
            if token.isdigit():
                saw_number = True
            elif token in ops:
                if saw_number:
                    rows += 1
                    append(token)
                    if len(mnemonics) == max_length:
                        return OpcodeListing(mnemonics, rows)
                break
            elif is_op(token):  # an opcode the vocabulary lacks
                rows += saw_number
                break
    return OpcodeListing(mnemonics, rows)


@functools.lru_cache(maxsize=8)
def _vld_ops(vocab: OpcodeVocabulary) -> frozenset[str]:
    """The mnemonics of `vocab` that a VLD opcode cell can hold."""
    return frozenset(m for m in vocab.mnemonics if _VLD_OP.match(m))


def parse_cil(text: str, vocab: OpcodeVocabulary, max_length: int) -> OpcodeListing:
    """The first `max_length` in-vocabulary CIL mnemonics, one per
    ``IL_xxxx:`` label, in label order.

    Directives (``.maxstack``, ``.locals``, ``.custom``) and operand
    text never match the instruction shape and are skipped. Works on
    line-wrapped disassembly since the scan is not line-based.
    """
    index = vocab._index
    mnemonics: list[str] = []
    rows = 0
    for match in _CIL_INSTR.finditer(text):
        rows += 1
        mnemonic = match.group(1)
        if mnemonic in index:
            mnemonics.append(mnemonic)
            if len(mnemonics) == max_length:
                break
    return OpcodeListing(mnemonics, rows)


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


def parse_listing(text: str, language: str, vocab: OpcodeVocabulary,
                  max_length: int) -> OpcodeListing:
    """The first `max_length` in-vocabulary mnemonics of a `language`
    listing; op rows past the one holding the last of them are not
    read. A listing with no op rows raises `OpcodeParseError`; one
    whose rows are all out of the vocabulary has no mnemonics."""
    parse, _ = _language(language)
    if max_length < 1:
        raise OpcodeError("max_length must be >= 1")
    listing = parse(text, vocab, max_length)
    if not listing.rows:
        raise OpcodeParseError(f"no {language} opcode rows recognized")
    return listing


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
    indices = [i for i in map(vocab._index.get, listing.mnemonics)
               if i is not None][:max_length]
    padded = np.zeros(max_length, dtype=np.intp)
    padded[:len(indices)] = indices
    return OciVector(padded)


def dump_vector(data: bytes, language: str, vocab: OpcodeVocabulary,
                max_length: int) -> OciVector:
    """The OCI vector of a `language` dump's bytes, read as UTF-8 with
    each byte that is not UTF-8 replaced. A dump with no op rows raises
    `OpcodeParseError` (see `parse_listing`)."""
    text = data.decode("utf-8", errors="replace")
    return oiva(parse_listing(text, language, vocab, max_length), vocab, max_length)


@dataclass
class VectorizedCorpus:
    vectors: list[OciVector]
    labels: list[int]
    paths: list[str]
    failures: list[tuple[str, str]] = field(default_factory=list)  # (path, reason)


def vectorize_corpus(items: list[tuple[str | Path, int]], language: str,
                     vocab: OpcodeVocabulary, max_length: int) -> VectorizedCorpus:
    """Vectorize (path, label) disassembly files; row order = input order.

    An unreadable file (see `read_each`) or one with no opcode rows is
    recorded as a failure, with its reason, and the batch continues.
    """
    corpus = VectorizedCorpus(vectors=[], labels=[], paths=[])
    for (path, result), (_, label) in zip(read_each(p for p, _ in items), items):
        if isinstance(result, bytes):
            try:
                result = dump_vector(result, language, vocab, max_length)
            except OpcodeParseError as exc:
                result = str(exc)
        if isinstance(result, str):
            corpus.failures.append((path, result))
            continue
        corpus.vectors.append(result)
        corpus.labels.append(label)
        corpus.paths.append(path)
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


def read_corpus_csv(path: str | Path, vocab_size: int) -> VectorizedCorpus:
    """Read a `write_corpus_csv` file written for a vocabulary of
    `vocab_size` mnemonics. A line that is not UTF-8 or not CSV, a row
    whose width differs from the header's, a cell that is not an
    integer, a label other than 0 or 1, or an index outside
    0..vocab_size is an `OpcodeError` naming the path and line."""
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(utf8_lines(fh, path, OpcodeError))
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
