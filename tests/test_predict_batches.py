"""`predict src` in batches: each file's line is the line a one-file
call prints for it, whatever files share its batch."""

import gc
import io
import json
import weakref

import numpy as np
import pytest

from wsdetect import cli, srcmodel
from wsdetect import tensornet as tn
from wsdetect.opcode import OciVector, OpcodeVocabulary
from wsdetect.srcmodel import CnnConfig, OpcodeCnn, build_cnn, cnn_predict_batch

VOCAB = OpcodeVocabulary(("ECHO", "CONCAT", "RETURN", "EVAL"), "php")


def _random_head(model, rng):
    """A random-normal dense head: numpy's one-row and batched products
    of it round differently, so a batched head would show."""
    model.dense.params["w"][:] = rng.normal(size=model.dense.params["w"].shape)
    model.dense.params["b"][:] = rng.normal(size=2)
    return model


def _dump(rng, rows):
    ops = ("ECHO", "CONCAT", "RETURN", "EVAL", "NOT_IN_VOCAB")
    return "".join(f"  {n}  {n}  E >  {rng.choice(ops)}  'x'\n" for n in range(rows))


@pytest.fixture
def scan(tmp_path):
    """A model, its vocabulary and rule file, and files of every kind in
    a mixed order: CNN verdicts of several lengths, rule hits, a dump
    whose rows are all out of the vocabulary (live length 0), a file
    with no op rows and a missing file."""
    rng = np.random.default_rng(3)
    model = _random_head(build_cnn(CnnConfig.php(vocab_size=len(VOCAB), max_length=40,
                                                 num_filters=16, seed=3),
                                   language="php", vocab=VOCAB), rng)
    tn.save_model(model, tmp_path / "cnn.bin")
    (tmp_path / "vocab.txt").write_text("\n".join(VOCAB.mnemonics) + "\n")
    (tmp_path / "sig.yar").write_text('rule sig { strings: $a = "b374k" condition: $a }')
    bodies = {"cnn0": _dump(rng, 3), "rule0": "1 0 ECHO b374k\n",
              "oov": "  1  0  E >  NOT_IN_VOCAB  'x'\n", "cnn1": _dump(rng, 60),
              "cnn2": _dump(rng, 1), "norows": "no opcode rows here\n",
              "cnn3": _dump(rng, 25), "rule1": "b374k\n", "cnn4": _dump(rng, 40)}
    files = []
    for name, body in bodies.items():
        (tmp_path / f"{name}.vld").write_text(body)
        files.append(str(tmp_path / f"{name}.vld"))
    files.insert(5, str(tmp_path / "missing.vld"))
    argv = ["predict", "src", "--model", str(tmp_path / "cnn.bin"), "--vocab",
            str(tmp_path / "vocab.txt"), "--rules", str(tmp_path / "sig.yar")]
    return argv, files


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_each_line_is_the_line_of_its_one_file_call(scan, monkeypatch):
    argv, files = scan
    alone = [_run(argv + [path]) for path in files]
    assert all(len((out + err).splitlines()) == 1 for _, out, err in alone)
    monkeypatch.setattr(srcmodel, "SRC_BATCH_FILES", 2)
    forwards = []
    forward = OpcodeCnn.forward
    monkeypatch.setattr(OpcodeCnn, "forward",
                        lambda self, x, *a, **k: forwards.append(len(x)) or forward(self, x, *a, **k))
    code, out, err = _run(argv + files)
    assert code == cli.EXIT_DETECTED
    # stdout and stderr each keep file order
    assert out == "".join(one_out for _, one_out, _ in alone)
    assert err == "".join(one_err for _, _, one_err in alone)
    sources = [json.loads(line)["source"] for line in out.splitlines()]
    assert sources == ["cnn", "rules", "cnn", "cnn", "cnn", "cnn", "rules", "cnn"]
    assert [json.loads(line) for line in err.splitlines()] == [
        {"path": files[5], "error": "No such file or directory"},
        {"path": files[6], "error": "no php opcode rows recognized"}]
    # one forward per batch that holds a vector: batches of 2 over 10 files
    assert forwards == [1, 2, 1, 1, 1]


def test_an_error_line_names_its_file_once(scan, tmp_path):
    """The `path` field names the file; the message gives only the
    reason, an OS error's as its `strerror`."""
    argv, files = scan
    unreadable = [files[5], files[6], str(tmp_path)]
    code, out, err = _run(argv + unreadable)
    assert (code, out) == (cli.EXIT_ERROR, "")
    assert [json.loads(line) for line in err.splitlines()] == [
        {"path": unreadable[0], "error": "No such file or directory"},
        {"path": unreadable[1], "error": "no php opcode rows recognized"},
        {"path": unreadable[2], "error": "Is a directory"}]


def test_the_model_pairing_is_checked_once_per_call(scan, monkeypatch):
    argv, files = scan
    calls = []
    check = srcmodel.check_model_pairing
    monkeypatch.setattr(srcmodel, "check_model_pairing",
                        lambda *args: calls.append(args) or check(*args))
    monkeypatch.setattr(srcmodel, "SRC_BATCH_FILES", 3)
    assert _run(argv + files)[0] == cli.EXIT_DETECTED
    assert len(calls) == 1


def test_a_call_with_error_lines_frees_its_model_without_a_gc_pass(scan, monkeypatch):
    """An error kept as its exception would hold the call's frame, and the
    model and compiled rules with it, in a reference cycle until a GC pass."""
    argv, files = scan
    models = []
    load = tn.load_model

    def load_model(*args, **kwargs):
        model = load(*args, **kwargs)
        models.append(weakref.ref(model))
        return model

    monkeypatch.setattr(tn, "load_model", load_model)
    gc.collect()
    gc.disable()
    try:
        assert _run(argv + files)[0] == cli.EXIT_DETECTED
        assert len(models) == 1 and models[0]() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("seed", range(4))
def test_batch_rows_equal_one_row_forwards_exactly(seed):
    rng = np.random.default_rng(seed)
    model = _random_head(build_cnn(CnnConfig.php(vocab_size=len(VOCAB), max_length=60,
                                                 seed=seed)), rng)
    rows = rng.integers(0, len(VOCAB) + 1, size=(16, 60))
    rows[np.arange(60) >= rng.integers(0, 61, size=16)[:, None]] = 0
    rows[3] = 0  # live length 0
    logits = model.forward(rows)
    probs = cnn_predict_batch(model, [OciVector(row) for row in rows])
    for n in range(len(rows)):
        assert np.array_equal(logits[n:n + 1], model.forward(rows[n:n + 1]))
        assert np.array_equal(probs[n:n + 1], cnn_predict_batch(model, [OciVector(rows[n])]))
