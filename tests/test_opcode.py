"""Opcode parsing and OIVA vectorization."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsdetect.opcode import (
    _VLD_OP,
    LANGUAGES,
    OciVector,
    OpcodeError,
    OpcodeListing,
    OpcodeParseError,
    OpcodeVocabulary,
    builtin_vocabulary,
    dump_vector,
    load_vocabulary,
    oiva,
    parse_cil,
    parse_listing,
    parse_vld,
    read_corpus_csv,
    vectorize_corpus,
    write_corpus_csv,
)

VLD_DUMP = """\
Finding entry points
Branch analysis from position: 0
filename:       /var/www/html/shell.php
function name:  (null)
number of ops:  5
compiled vars:  !0 = $cmd
line      #* E I O op                           fetch          ext  return  operands
-------------------------------------------------------------------------------------
   2     0  E >   ECHO                                                     'start'
   3     1        CONCAT                                           ~1      !0, '+'
   4     2        INCLUDE_OR_EVAL                                          !0
   5     3      > RETURN                                                   1
   5     4*     > RETURN                                                   null

branch: #  0; line:     2-    5; sop:     0; eop:     4; out0:  -2
path #1: 0,
"""

# Reconstruction of a get_Request method body disassembly.
CIL_GET_REQUEST = """\
.method public hidebysig specialname instance class [System.Web]System.Web.HttpRequest
        get_Request() cil managed
{
  .custom instance void [mscorlib]System.Diagnostics.DebuggerHiddenAttribute::.ctor() = ( 01 00 00 00 )
  .maxstack 1
  .locals init (class [System.Web]System.Web.HttpContext V_0,
                class [System.Web]System.Web.HttpRequest V_1)
  IL_0000: call class [System.Web]System.Web.HttpContext [System.Web]System.Web.HttpContext::get_Current()
  IL_0005: stloc.0
  IL_0006: ldloc.0
  IL_0007: brfalse.s IL_0012
  IL_0009: ldloc.0
  IL_000a: callvirt instance class [System.Web]System.Web.HttpRequest [System.Web]System.Web.HttpContext::get_Request()
  IL_000f: stloc.1
  IL_0010: br.s IL_0016
  IL_0012: ldnull
  IL_0013: stloc.1
  IL_0014: br.s IL_0016
  IL_0016: ldloc.1
  IL_0017: ret
}
"""


class TestVocabulary:
    def test_one_based_indexing(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("ECHO\nADD\nRETURN\n")
        vocab = load_vocabulary(path)
        vec = oiva(OpcodeListing(["RETURN", "MISSING", "ECHO", "ADD"]), vocab, 4)
        assert vec.indices.tolist() == [3, 1, 2, 0]

    def test_builtin_cil_has_229_entries(self):
        assert len(builtin_vocabulary("cil")) == 229

    def test_duplicate_mnemonic(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("ADD\nADD\n")
        with pytest.raises(OpcodeError, match="duplicate"):
            load_vocabulary(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# only a comment\n\n")
        with pytest.raises(OpcodeError, match="no mnemonics"):
            load_vocabulary(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# header\nECHO  # trailing\n\nADD\n")
        assert load_vocabulary(path).mnemonics == ("ECHO", "ADD")

    def test_a_line_that_is_not_utf8_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"ECHO\nADD\nRET\xe9\n")
        with pytest.raises(OpcodeError) as info:
            load_vocabulary(path)
        assert str(info.value) == f"{path}:3: not UTF-8 text"

    @pytest.mark.parametrize("text, message", [
        ("# only a comment\n", "vocabulary has no mnemonics"),
        ("ECHO\nADD\nECHO\nADD\n", "duplicate mnemonic 'ECHO' in vocabulary"),
    ], ids=["empty", "duplicate"])
    def test_file_errors_are_the_vocabulary_errors_with_the_path(
            self, tmp_path, text, message):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(OpcodeError, match=re.escape(message)) as direct:
            OpcodeVocabulary(tuple(text.split("#")[0].split()))
        assert str(direct.value) == message
        with pytest.raises(OpcodeError) as loaded:
            load_vocabulary(path)
        assert str(loaded.value) == f"{path}: {message}"


class TestLanguages:
    @pytest.mark.parametrize("language", sorted(LANGUAGES))
    def test_each_language_has_a_parser_and_a_builtin_vocabulary(self, language):
        vocab = builtin_vocabulary(language)
        assert vocab.language == language and len(vocab) > 0
        with pytest.raises(OpcodeParseError, match=f"^no {language} opcode rows recognized$"):
            parse_listing("", language, vocab, 10)

    def test_unknown_language(self):
        for call in (lambda: builtin_vocabulary("java"),
                     lambda: parse_listing("", "java", OpcodeVocabulary(("A",)), 1)):
            with pytest.raises(OpcodeError, match="unknown opcode language 'java'"):
                call()


# the built-in vocabularies hold every mnemonic these tests expect; the
# limit is past the length of any listing here
PHP = builtin_vocabulary("php")
CIL = builtin_vocabulary("cil")


def _vld(text):
    return parse_vld(text, PHP, 10_000)


def _cil(text):
    return parse_cil(text, CIL, 10_000)


class TestParseVld:
    def test_opcode_column_in_line_order(self):
        listing = _vld(VLD_DUMP)
        assert listing.mnemonics == [
            "ECHO", "CONCAT", "INCLUDE_OR_EVAL", "RETURN", "RETURN"]

    def test_empty_text(self):
        assert _vld("").mnemonics == []

    def test_banner_only(self):
        banner = "\n".join(VLD_DUMP.splitlines()[:8]) + "\n"
        assert _vld(banner).mnemonics == []

    def test_caps_in_operands_not_taken(self):
        line = "   7     9        ASSIGN                            !0, 'UPPER TEXT'\n"
        assert _vld(line).mnemonics == ["ASSIGN"]

    def test_multi_function_dump(self):
        dump = (
            "Finding entry points\n"
            "Branch analysis from position: 0\n"
            "filename:       /srv/app/index.php\n"
            "function name:  (null)\n"
            "number of ops:  3\n"
            "line      #* E I O op        fetch  ext  return  operands\n"
            "---------------------------------------------------------\n"
            "   2     0  E >   INIT_FCALL            'render'\n"
            "   2     1        DO_FCALL      0  $1\n"
            "   3     2      > RETURN                1\n"
            "\n"
            "Function render:\n"
            "function name:  render\n"
            "number of ops:  2\n"
            "line      #* E I O op        fetch  ext  return  operands\n"
            "---------------------------------------------------------\n"
            "   6     0  E >   ECHO                  'ok'\n"
            "   7     1      > RETURN                null\n"
            "End of function render\n")
        assert _vld(dump).mnemonics == [
            "INIT_FCALL", "DO_FCALL", "RETURN", "ECHO", "RETURN"]


def _parse_vld_reference(text: str) -> list[str]:
    """The opcode column as `parse_vld` read it before it tested
    `isdigit` first: the regex on every token."""
    mnemonics: list[str] = []
    for line in text.splitlines():
        tokens = line.split()
        saw_number = False
        for token in tokens:
            if _VLD_OP.match(token):
                if saw_number:
                    mnemonics.append(token)
                break
            if token.isdigit():
                saw_number = True
    return mnemonics


# VLD-like tokens: ASCII and Unicode digits, caps words (some only in
# operands), lower-case and quoted operand text, row markers
_VLD_TOKENS = ("0", "7", "12", "\u00b2", "\u0663", "1\u00b2", "ECHO", "INIT_FCALL",
               "A", "A1", "X_", "UPPER", "'UPPER", "TEXT'", "!0,", "$cmd", "null",
               "E", ">", "#*", "Echo", "ECHO2", "2ECHO", "_A")
# every caps word above, so the parse keeps each one the reference reads
_VLD_VOCAB = OpcodeVocabulary(tuple(t for t in _VLD_TOKENS if _VLD_OP.match(t)))
_VLD_SPACES = (" ", "  ", "\t", "\x0b", "\x0c", "\xa0")
_VLD_BREAKS = ("\n", "\r\n", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")


@given(st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(_VLD_SPACES),
                                              st.sampled_from(_VLD_TOKENS)),
                                    max_size=8),
                          st.sampled_from(_VLD_BREAKS)),
                max_size=12))
@settings(max_examples=300, deadline=None)
def test_parse_vld_matches_the_regex_first_loop(rows):
    text = "".join("".join(space + token for space, token in row) + end
                   for row, end in rows)
    assert parse_vld(text, _VLD_VOCAB, 10_000).mnemonics == _parse_vld_reference(text)


class TestParseCil:
    def test_get_request_body(self):
        listing = _cil(CIL_GET_REQUEST)
        assert listing.mnemonics[:6] == [
            "call", "stloc.0", "ldloc.0", "brfalse.s", "ldloc.0", "callvirt"]
        assert listing.mnemonics[-2:] == ["ldloc.1", "ret"]
        assert len(listing.mnemonics) == 13

    def test_single_nop(self):
        assert _cil("IL_0000: nop").mnemonics == ["nop"]

    def test_directives_only(self):
        assert _cil(".maxstack 1\n.locals init (int32 V_0)\n").mnemonics == []

    def test_spaced_colon(self):
        assert _cil("IL_0000 : ldstr \"x\"").mnemonics == ["ldstr"]

    def test_branch_operand_not_taken(self):
        # IL_0016 appears as an operand with no colon after it
        assert _cil("IL_0010: br.s IL_0016\nIL_0016: ret").mnemonics == \
            ["br.s", "ret"]


class TestOiva:
    def test_hand_traced(self):
        vocab = OpcodeVocabulary(("ECHO", "ADD", "RETURN"), "php")
        vec = oiva(OpcodeListing(["ADD", "ECHO", "RETURN"]), vocab, 5)
        assert vec.indices.tolist() == [2, 1, 3, 0, 0]

    def test_empty_listing(self):
        vocab = OpcodeVocabulary(("ADD",))
        assert oiva(OpcodeListing([]), vocab, 4).indices.tolist() == [0, 0, 0, 0]

    def test_truncation_keeps_prefix(self):
        vocab = OpcodeVocabulary(("ADD",))
        assert oiva(OpcodeListing(["ADD"] * 3), vocab, 2).indices.tolist() == [1, 1]

    def test_out_of_vocabulary_skipped(self):
        vocab = OpcodeVocabulary(("ADD",))
        vec = oiva(OpcodeListing(["NOP", "ADD", "NOPE"]), vocab, 3)
        assert vec.indices.tolist() == [1, 0, 0]

    def test_whole_token_no_substring_hit(self):
        vocab = OpcodeVocabulary(("ADD",))
        vec = oiva(OpcodeListing(["ADD_STRING"]), vocab, 2)
        assert vec.indices.tolist() == [0, 0]

    def test_max_length_validation(self):
        with pytest.raises(OpcodeError):
            oiva(OpcodeListing([]), OpcodeVocabulary(("A",)), 0)


class TestOciVector:
    def test_built_from_any_integer_sequence(self):
        vec = OciVector((2, 1, 0))
        assert vec == OciVector([2, 1, 0]) == OciVector(np.array([2, 1, 0]))
        assert vec != OciVector((2, 1, 1)) and vec != OciVector((2, 1))
        assert len(vec) == 3 and vec.indices.dtype == np.intp
        assert hash(vec) == hash(OciVector([2, 1, 0]))

    def test_indices_are_read_only(self):
        source = np.array([1, 0])
        vec = OciVector(source)
        source[0] = 5
        assert vec.indices.tolist() == [1, 0]
        with pytest.raises(ValueError):
            vec.indices[0] = 3

    def test_one_row_only(self):
        with pytest.raises(OpcodeError):
            OciVector([[1, 2], [3, 4]])


def _naive_oiva(mnemonics, vocab_list, max_length):
    """Reference: filter to the vocabulary, map to 1-based ids, pad/trim."""
    ids = [vocab_list.index(m) + 1 for m in mnemonics if m in vocab_list]
    ids = ids[:max_length]
    return tuple(ids + [0] * (max_length - len(ids)))


def _loop_oiva(listing, vocab, max_length):
    """The loop `oiva` replaced: one lookup and one append per entry,
    stopping at `max_length` indices."""
    index = {mnemonic: i for i, mnemonic in enumerate(vocab.mnemonics, 1)}
    indices = []
    for mnemonic in listing.mnemonics:
        idx = index.get(mnemonic)
        if idx is not None:
            indices.append(idx)
            if len(indices) == max_length:
                break
    padded = np.zeros(max_length, dtype=np.intp)
    padded[:len(indices)] = indices
    return OciVector(padded)


class TestOivaProperties:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_it_replaced(self, data):
        """Out-of-vocabulary entries, empty listings, and listings with
        fewer, exactly `max_length` and more in-vocabulary entries."""
        alphabet = [f"OP{i}" for i in range(12)]
        vocab = OpcodeVocabulary(tuple(data.draw(st.lists(
            st.sampled_from(alphabet), min_size=1, max_size=10, unique=True))))
        listing = OpcodeListing(data.draw(st.lists(st.sampled_from(alphabet), max_size=50)))
        known = sum(m in vocab.mnemonics for m in listing.mnemonics)
        max_length = data.draw(st.sampled_from(
            [max(known - 1, 1), max(known, 1), known + 1]) | st.integers(1, 60))
        got = oiva(listing, vocab, max_length)
        want = _loop_oiva(listing, vocab, max_length)
        assert got == want
        assert got.indices.dtype == np.intp and not got.indices.flags.writeable

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_reference(self, data):
        alphabet = [f"OP{i}" for i in range(12)]
        vocab_list = data.draw(st.lists(
            st.sampled_from(alphabet), min_size=1, max_size=10, unique=True))
        listing = data.draw(st.lists(st.sampled_from(alphabet), max_size=50))
        max_length = data.draw(st.integers(1, 60))
        vocab = OpcodeVocabulary(tuple(vocab_list))
        got = oiva(OpcodeListing(list(listing)), vocab, max_length)
        assert tuple(got.indices.tolist()) == _naive_oiva(listing, vocab_list, max_length)
        assert len(got.indices) == max_length
        assert all(0 <= i <= len(vocab_list) for i in got.indices)

    def test_order_preserved_roundtrip(self):
        vocab = OpcodeVocabulary(("A", "B", "C"))
        listing = ["B", "X", "A", "C", "A"]
        vec = oiva(OpcodeListing(listing), vocab, 10)
        trimmed = [i for i in vec.indices if i != 0]
        back = [vocab.mnemonics[i - 1] for i in trimmed]
        assert back == [m for m in listing if m in ("A", "B", "C")]

    def test_padding_is_suffix(self):
        rng = random.Random(5)
        vocab = OpcodeVocabulary(tuple(f"OP{i}" for i in range(6)))
        for _ in range(50):
            listing = [f"OP{rng.randrange(10)}" for _ in range(rng.randrange(30))]
            vec = oiva(OpcodeListing(listing), vocab, 20)
            seen_zero = False
            for value in vec.indices:
                if value == 0:
                    seen_zero = True
                elif seen_zero:
                    pytest.fail(f"padding not a suffix: {vec.indices}")

    def test_vocab_permutation_same_support(self):
        listing = OpcodeListing(["A", "Q", "B", "A"])
        v1 = OpcodeVocabulary(("A", "B"))
        v2 = OpcodeVocabulary(("B", "A"))
        first = oiva(listing, v1, 6).indices
        second = oiva(listing, v2, 6).indices
        assert [i != 0 for i in first] == [i != 0 for i in second]
        assert first.tolist() != second.tolist()


class TestCorpus:
    def test_rows_in_input_order(self, tmp_path):
        a = tmp_path / "a.cil"
        a.write_text("IL_0000: nop\nIL_0001: ret\n")
        b = tmp_path / "b.cil"
        b.write_text("IL_0000: add\n")
        vocab = OpcodeVocabulary(("nop", "add", "ret"), "cil")
        corpus = vectorize_corpus([(a, 0), (b, 1)], "cil", vocab, 4)
        assert corpus.labels == [0, 1]
        assert corpus.vectors[0].indices.tolist() == [1, 3, 0, 0]
        assert corpus.vectors[1].indices.tolist() == [2, 0, 0, 0]
        assert corpus.failures == []

    def test_unreadable_file_recorded(self, tmp_path):
        ok = tmp_path / "ok.cil"
        ok.write_text("IL_0000: nop\n")
        vocab = OpcodeVocabulary(("nop",), "cil")
        corpus = vectorize_corpus(
            [(ok, 1), (tmp_path / "missing.cil", 0)], "cil", vocab, 2)
        assert len(corpus.vectors) == 1
        assert corpus.failures == [(str(tmp_path / "missing.cil"),
                                    "No such file or directory")]

    def test_a_dump_with_no_op_rows_is_a_failure_not_a_vector(self, tmp_path):
        ok = tmp_path / "ok.vld"
        ok.write_text("   2     0  E >   ECHO  'x'\n")
        notes = tmp_path / "notes.php"
        notes.write_text("<?php echo 'no op rows'; ?>\n")
        vocab = OpcodeVocabulary(("ECHO",), "php")
        corpus = vectorize_corpus([(notes, 1), (ok, 0), (notes, 0)], "php", vocab, 3)
        assert (corpus.paths, corpus.labels) == ([str(ok)], [0])
        assert corpus.vectors == [OciVector((1, 0, 0))]
        assert corpus.failures == [(str(notes), "no php opcode rows recognized")] * 2

    def test_deterministic(self, tmp_path):
        f = tmp_path / "x.cil"
        f.write_text("IL_0000: ret\n")
        vocab = OpcodeVocabulary(("ret",), "cil")
        one = vectorize_corpus([(f, 1)], "cil", vocab, 3)
        two = vectorize_corpus([(f, 1)], "cil", vocab, 3)
        assert one.vectors == two.vectors

    @pytest.mark.parametrize("language,dump", [("php", VLD_DUMP),
                                               ("cil", CIL_GET_REQUEST)])
    def test_crlf_dumps_vectorize_as_predict_src_reads_them(self, tmp_path,
                                                            language, dump):
        vocab = builtin_vocabulary(language)
        # CRLF line ends, and a byte that is not UTF-8 in a non-op line
        data = dump.replace("\n", "\r\n").encode() + b"// \xff\r\n"
        path = tmp_path / f"dump.{language}"
        path.write_bytes(data)
        corpus = vectorize_corpus([(path, 1)], language, vocab, 16)
        direct = dump_vector(data, language, vocab, 16)
        assert corpus.failures == [] and corpus.vectors == [direct]
        assert np.count_nonzero(direct.indices) > 2

    def test_csv_roundtrip(self, tmp_path):
        f = tmp_path / "x.cil"
        f.write_text("IL_0000: ret\nIL_0001: nop\n")
        vocab = OpcodeVocabulary(("nop", "ret"), "cil")
        corpus = vectorize_corpus([(f, 1)], "cil", vocab, 4)
        out = tmp_path / "corpus.csv"
        write_corpus_csv(corpus, out)
        loaded = read_corpus_csv(out, len(vocab))
        assert loaded.vectors == corpus.vectors
        assert loaded.labels == corpus.labels
        assert loaded.paths == corpus.paths

    @pytest.mark.parametrize("row, message", [
        ("b,1,3,x", "invalid literal for int() with base 10: 'x'"),
        ("b,x,3,4", "invalid literal for int() with base 10: 'x'"),
        ("b,1,,4", "invalid literal for int() with base 10: ''"),
        ("b,1,3", "3 cells, the header has 4"),
        ("b", "1 cells, the header has 4"),
        ("b,1,3,4,5", "5 cells, the header has 4"),
        ("b,7,3,4", "label 7 is not 0 or 1"),
        ("b,-1,3,4", "label -1 is not 0 or 1"),
        ("", "0 cells, the header has 4"),
    ])
    def test_a_bad_row_names_the_path_and_line(self, tmp_path, row, message):
        path = tmp_path / "corpus.csv"
        path.write_text(f"path,label,oci_0,oci_1\na,0,1,2\n{row}\n")
        with pytest.raises(OpcodeError) as info:
            read_corpus_csv(path, 4)
        assert str(info.value) == f"{path}:3: {message}"

    @pytest.mark.parametrize("row, index", [("b,1,5,4", 5), ("b,1,3,-1", -1)])
    def test_an_index_outside_the_vocabulary_names_the_path_and_line(
            self, tmp_path, row, index):
        path = tmp_path / "corpus.csv"
        path.write_text(f"path,label,oci_0,oci_1\na,0,4,0\n{row}\n")
        with pytest.raises(OpcodeError) as info:
            read_corpus_csv(path, 4)
        assert str(info.value) == \
            f"{path}:3: index {index} is outside 0..4, the vocabulary's range"

    @pytest.mark.parametrize("text, line", [
        (b"path,label,oci_0\na,0,1\n\xff,1,2\n", 3),
        (b"path,label,oci_\xe9\n", 1),
        (b"path,label,oci_0\n" + b"a,0,1\n" * 5000 + b"b\xc3,1,2\n", 5002),
    ], ids=["row", "header", "past_the_first_read"])
    def test_a_line_that_is_not_utf8_names_the_path_and_line(self, tmp_path, text, line):
        path = tmp_path / "corpus.csv"
        path.write_bytes(text)
        with pytest.raises(OpcodeError) as info:
            read_corpus_csv(path, 4)
        assert str(info.value) == f"{path}:{line}: not UTF-8 text"

    def test_a_csv_error_names_the_path_and_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("path,label,oci_0\na,0,1\n" + "b" * 200_000 + ",1,2\n")
        with pytest.raises(OpcodeError) as info:
            read_corpus_csv(path, 4)
        assert str(info.value) == f"{path}:3: field larger than field limit (131072)"
