"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 11 needs the public CSE-CIC-IDS2018 03-02-2018 CSV and
is skipped unless WSDETECT_IDS2018_CSV points at it.
"""

import io
import json
import os
import random
import time

import numpy as np
import pytest

from tests.conftest import ethernet_ipv4_tcp, pcap_bytes
from wsdetect.cli import EXIT_DETECTED, EXIT_OK, run


def _passline(number, text):
    print(f"[ACCEPT {number:02d}] PASS  {text}")


def _cli_json(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv + ["--json"], out=out, err=err)
    assert code == EXIT_OK, err.getvalue()
    return json.loads(out.getvalue())


def test_c01_metric_oracle():
    started = time.perf_counter()
    yara_panel = _cli_json(["eval", "metrics", "--tp", "709", "--fp", "8",
                            "--fn", "108", "--tn", "1447"])
    expected_yara = {"accuracy": 94.89, "precision": 98.88, "recall": 86.76,
                     "specificity": 99.45, "f1": 92.43, "fpr": 0.55,
                     "fnr": 13.24}
    for name, expected in expected_yara.items():
        assert yara_panel[name] == pytest.approx(expected, abs=0.05), name

    cnn_panel = _cli_json(["eval", "metrics", "--tp", "807", "--fp", "17",
                           "--fn", "10", "--tn", "1438"])
    assert cnn_panel == {"accuracy": 98.81, "precision": 97.94,
                         "recall": 98.78, "specificity": 98.83, "f1": 98.35,
                         "fpr": 1.17, "fnr": 1.22}

    hybrid_panel = _cli_json(["eval", "metrics", "--tp", "809", "--fp", "17",
                              "--fn", "8", "--tn", "1438"])
    assert hybrid_panel == {"accuracy": 98.9, "precision": 97.94,
                            "recall": 99.02, "specificity": 98.83,
                            "f1": 98.48, "fpr": 1.17, "fnr": 0.98}

    traffic_panel = _cli_json(["eval", "metrics", "--tp", "87794", "--fp", "48",
                               "--fn", "58", "--tn", "281645"])
    expected_traffic = {"accuracy": 99.97, "precision": 99.94, "f1": 99.94,
                        "recall": 99.93, "fnr": 0.07, "fpr": 0.02}
    for name, expected in expected_traffic.items():
        assert traffic_panel[name] == pytest.approx(expected, abs=0.05), name

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passline(1, f"four reference confusion-matrix panels reproduced "
                 f"({elapsed * 1000:.0f} ms)")


def test_c02_weighted_loss_oracle():
    from wsdetect.tensornet import class_weights

    weights = class_weights(180079, 7210)
    assert weights.benign == pytest.approx(0.520019, abs=1e-5)
    assert weights.webshell == pytest.approx(12.98814, abs=1e-5)
    total = 180079 + 7210
    recovered = 180079 * weights.benign + 7210 * weights.webshell
    assert recovered == pytest.approx(total, rel=1e-9)
    _passline(2, f"class_weights(180079, 7210) = ({weights.benign:.6f}, "
                 f"{weights.webshell:.5f}), mass conserved")


def test_c03_oiva_equivalence():
    from wsdetect.opcode import OciVector, OpcodeListing, OpcodeVocabulary, oiva

    def naive(mnemonics, vocab_list, max_length):
        ids = [vocab_list.index(m) + 1 for m in mnemonics if m in vocab_list]
        ids = ids[:max_length]
        return tuple(ids + [0] * (max_length - len(ids)))

    rng = random.Random(1234)
    alphabet = [f"OP{i}" for i in range(14)]
    started = time.perf_counter()
    for _ in range(1000):
        vocab_list = rng.sample(alphabet, rng.randint(1, 10))
        listing = [rng.choice(alphabet) for _ in range(rng.randint(0, 50))]
        max_length = rng.randint(1, 64)
        got = oiva(OpcodeListing(listing),
                   OpcodeVocabulary(tuple(vocab_list)), max_length)
        assert got == OciVector(naive(listing, vocab_list, max_length))
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passline(3, f"1000 random OIVA cases match the naive reference "
                 f"({elapsed:.2f} s)")


def test_c04_gradient_soundness():
    import tests.test_gradcheck as layerwise
    from tests.tensornet_check import grad_check
    from wsdetect import tensornet as tn
    from wsdetect.srcmodel import CnnConfig, build_cnn
    from wsdetect.trafficmodel import TabularConfig, TabularDataset, build_dnn

    started = time.perf_counter()
    layerwise.test_dense_layer()
    layerwise.test_batchnorm_layer()
    layerwise.test_conv_relu_pool_stack()
    layerwise.test_embedding_layer()
    layerwise.test_weighted_loss_gradient()

    worst = 0.0
    config = CnnConfig(vocab_size=6, max_length=10, embedding_dim=3,
                       kernel_sizes=(2, 3, 4), num_filters=2,
                       dropout_rate=0.5, seed=11)
    rng = np.random.default_rng(12)
    x = rng.integers(0, 7, size=(5, 10))
    x[:, 8:] = 0
    worst = max(worst, grad_check(build_cnn(config), x,
                                  rng.integers(0, 2, size=5)))

    n = 8
    cats = np.column_stack([rng.choice([80, 443], size=n),
                            rng.choice([6, 17], size=n)])
    dataset = TabularDataset(cats, rng.normal(size=(n, 77)),
                             rng.integers(0, 2, size=n))
    dnn = build_dnn(TabularConfig(hidden=(6, 4), embedding_dims=(3, 2),
                                  seed=13), dataset)
    worst = max(worst, grad_check(dnn, dnn.prepare(dataset), dataset.labels,
                                  weights=tn.class_weights(4, 4)))

    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 30.0
    _passline(4, f"gradient check worst relative error {worst:.2e} over all "
                 f"layers and both full graphs ({elapsed:.1f} s)")


def test_c05_cnn_planted_signal():
    from wsdetect.opcode import OpcodeListing, OpcodeVocabulary, oiva
    from wsdetect.srcmodel import CnnConfig, cnn_predict_batch, train_cnn

    rng = random.Random(20)
    fillers = [f"OP_{i}" for i in range(20)]
    vocab = OpcodeVocabulary(tuple(fillers + ["EVAL", "CONCAT", "INCLUDE"]),
                             "php")
    trigram = ["EVAL", "CONCAT", "INCLUDE"]
    max_length = 60

    vectors, labels = [], []
    for i in range(2000):
        label = i % 2
        body = [rng.choice(fillers) for _ in range(rng.randint(20, 50))]
        if label:
            pos = rng.randrange(len(body))
            body[pos:pos] = trigram
        vectors.append(oiva(OpcodeListing(body), vocab, max_length))
        labels.append(label)

    # sanity bound: trigram presence alone decides the class exactly
    def has_trigram(vec):
        ids = [v for v in vec.indices if v != 0]
        needle = [vocab.mnemonics.index(m) + 1 for m in trigram]
        return any(ids[i:i + 3] == needle for i in range(len(ids) - 2))

    oracle_hits = sum(has_trigram(v) == bool(l)
                      for v, l in zip(vectors, labels))
    assert oracle_hits == len(vectors)

    started = time.perf_counter()
    split = int(0.8 * len(vectors))
    config = CnnConfig(vocab_size=len(vocab), max_length=max_length,
                       kernel_sizes=(3, 4, 5), num_filters=128,
                       dropout_rate=0.5, learning_rate=0.001,
                       batch_size=96, epochs=4, seed=0)
    model, _ = train_cnn(vectors[:split], labels[:split], config, vocab=vocab)
    probs = cnn_predict_batch(model, vectors[split:])
    accuracy = (probs.argmax(axis=1) == np.array(labels[split:])).mean()
    elapsed = time.perf_counter() - started
    assert accuracy >= 0.95
    assert elapsed < 300.0
    _passline(5, f"planted-trigram CNN test accuracy {accuracy:.3f} with the "
                 f"tuned PHP hyperparameters ({elapsed:.0f} s)")


def _gaussian_traffic(n, separation, noise, webshell_fraction, seed):
    from wsdetect.trafficmodel import TabularDataset

    rng = np.random.default_rng(seed)
    n1 = int(n * webshell_fraction)
    n0 = n - n1
    direction = rng.normal(size=77)
    direction /= np.linalg.norm(direction)
    x0 = rng.normal(0, noise, size=(n0, 77)) - direction * separation / 2
    x1 = rng.normal(0, noise, size=(n1, 77)) + direction * separation / 2
    x = np.vstack([x0, x1])
    y = np.array([0] * n0 + [1] * n1)
    cats = np.column_stack([rng.choice([80, 443, 8080], size=n),
                            rng.choice([6, 17], size=n)])
    order = rng.permutation(n)
    return TabularDataset(cats[order], x[order], y[order])


def test_c06_dnn_separable_fixture():
    from wsdetect.trafficmodel import (
        TabularConfig,
        dnn_predict,
        kfold_cv,
        train_dnn,
    )

    started = time.perf_counter()
    data = _gaussian_traffic(1000, separation=3.0, noise=0.3,
                             webshell_fraction=0.5, seed=1)
    config = TabularConfig()  # tuned defaults: [400, 100], 0.003, 64, 2
    assert (config.hidden, config.learning_rate,
            config.batch_size, config.epochs) == ((400, 100), 0.003, 64, 2)

    # nearest-centroid oracle confirms separability
    train = data.subset(range(0, 800))
    test = data.subset(range(800, 1000))
    c0 = train.continuous[train.labels == 0].mean(axis=0)
    c1 = train.continuous[train.labels == 1].mean(axis=0)
    oracle = (np.linalg.norm(test.continuous - c1, axis=1)
              < np.linalg.norm(test.continuous - c0, axis=1)).astype(int)
    assert (oracle == test.labels).mean() >= 0.99

    model, _ = train_dnn(train, config)
    _, predicted = dnn_predict(model, test)
    held_out = (predicted == test.labels).mean()
    assert held_out >= 0.99

    report = kfold_cv(data, 5, config, seed=0)
    for fold in report.folds:
        assert fold.accuracy >= 99.0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passline(6, f"separable-fixture DNN held-out accuracy {held_out:.3f}, "
                 f"5-fold min {min(f.accuracy for f in report.folds):.2f}% "
                 f"({elapsed:.0f} s)")


def test_c07_imbalance_benefit():
    from wsdetect.trafficmodel import TabularConfig, dnn_predict, train_dnn

    recalls = {False: [], True: []}
    error_sums = {False: [], True: []}
    for seed in range(10):
        data = _gaussian_traffic(1200, separation=1.1, noise=1.0,
                                 webshell_fraction=0.05, seed=seed)
        cut = int(0.75 * len(data))
        train = data.subset(range(cut))
        test = data.subset(range(cut, len(data)))
        for weighted in (False, True):
            model, _ = train_dnn(train, TabularConfig(weighted=weighted,
                                                      seed=seed))
            _, predicted = dnn_predict(model, test)
            positives = test.labels == 1
            negatives = ~positives
            recall = (predicted[positives] == 1).mean()
            fnr = 1.0 - recall
            fpr = (predicted[negatives] == 1).mean()
            recalls[weighted].append(recall)
            error_sums[weighted].append(100.0 * (fpr + fnr))

    mean_recall_weighted = float(np.mean(recalls[True]))
    mean_recall_plain = float(np.mean(recalls[False]))
    mean_errors_weighted = float(np.mean(error_sums[True]))
    mean_errors_plain = float(np.mean(error_sums[False]))
    assert mean_recall_weighted >= mean_recall_plain
    assert mean_errors_weighted <= mean_errors_plain + 1.0
    _passline(7, f"10-seed 95:5 fixture: minority recall "
                 f"{mean_recall_plain:.3f} -> {mean_recall_weighted:.3f} with "
                 f"weighting; FPR+FNR {mean_errors_plain:.1f} -> "
                 f"{mean_errors_weighted:.1f} pp")


def test_c08_detection_pipeline_end_to_end(tmp_path):
    started = time.perf_counter()
    frames = [
        (0, ethernet_ipv4_tcp("172.16.5.9", 51000, "10.1.2.3", 8080, 400)),
        (40_000, ethernet_ipv4_tcp("10.1.2.3", 8080, "172.16.5.9", 51000, 900)),
    ]
    pcap = tmp_path / "one_flow.pcap"
    pcap.write_bytes(pcap_bytes(frames))
    eve = tmp_path / "eve.json"
    rules_dir = tmp_path / "rules"
    rules_dir.mkdir()

    out, err = io.StringIO(), io.StringIO()
    code = run(["inspect", "once", "--pcap", str(pcap), "--model", "stub",
                "--eve", str(eve), "--rules-dir", str(rules_dir)],
               out=out, err=err)
    assert code == EXIT_DETECTED

    eve_lines = eve.read_text().splitlines()
    assert len(eve_lines) == 1
    alert = json.loads(eve_lines[0])
    assert alert["alert"]["category"] == "Webshell"
    assert alert["alert"]["severity"] == 1
    assert alert["src_ip"] == "172.16.5.9"
    assert alert["src_port"] == 51000
    assert alert["dest_ip"] == "10.1.2.3"
    assert alert["dest_port"] == 8080
    assert alert["proto"] == "TCP"

    rule_lines = (rules_dir / "webshell-generated.rules").read_text().splitlines()
    assert len(rule_lines) == 1
    assert rule_lines[0].startswith("drop ip 172.16.5.9 ")

    # benign-forcing stub: nothing at all
    eve2 = tmp_path / "eve2.json"
    rules_dir2 = tmp_path / "rules2"
    rules_dir2.mkdir()
    code = run(["inspect", "once", "--pcap", str(pcap), "--model",
                "stub:benign", "--eve", str(eve2), "--rules-dir",
                str(rules_dir2)], out=io.StringIO(), err=io.StringIO())
    assert code == EXIT_OK
    assert not eve2.exists() or eve2.read_text() == ""
    assert not (rules_dir2 / "webshell-generated.rules").exists()

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _passline(8, f"end-to-end pipeline: 1 alert + 1 drop rule on the forced "
                 f"flow, nothing for benign ({elapsed * 1000:.0f} ms)")


def test_c09_rule_engine_fidelity(b374k_rule_text):
    from wsdetect.rulelang import match_buffer, parse_rules
    from wsdetect.rulelang.matcher import evaluate_condition

    ruleset = parse_rules(b374k_rule_text)
    rule = ruleset.rules[0]
    assert rule.name == "webshell_B374kPHP_B374k"
    assert len(rule.strings) == 4

    # any single declared string satisfies "1 of them"
    for pattern in rule.strings:
        subject = b"<?php " + pattern.body.value + b" ?>"
        assert match_buffer(ruleset, subject) == [rule.name], pattern.ident

    # brute-force truth-table equivalence for OfExpr over <= 6 strings,
    # checked on 500 random subjects
    rng = random.Random(99)
    needles = [f"tok{i}".encode() for i in range(6)]
    strings = " ".join(f'$t{i} = "tok{i}"' for i in range(6))
    checked = 0
    for _ in range(500):
        count = rng.randint(1, 6)
        probe = parse_rules(
            f"rule p {{ strings: {strings} condition: {count} of them }}")
        rule_p = probe.rules[0]
        subject = b" ".join(
            rng.choice(needles + [b"noise", b"fill"])
            for _ in range(rng.randint(0, 12)))
        present = {f"$t{i}" for i in range(6) if needles[i] in subject}
        expected = len(present) >= count
        assert evaluate_condition(rule_p.condition, rule_p, present) == expected
        assert bool(match_buffer(probe, subject)) == expected
        checked += 1
    assert checked == 500
    _passline(9, "B374k rule parses and matches on every single declared "
                 "string; 500-subject OfExpr truth-table equivalence holds")


def test_c10_flow_feature_oracle(three_packet_pcap):
    from wsdetect.flowmeter import CONTINUOUS_NAMES, assemble_flows, feature_table, read_pcap

    def features(flow) -> dict[str, float]:
        values = feature_table([flow]).continuous[0, 1:].tolist()
        return dict(zip(CONTINUOUS_NAMES[1:], values))

    flows = assemble_flows(read_pcap(three_packet_pcap).packets)
    v = features(flows[0])
    assert v["Flow Duration"] == pytest.approx(1_000_000, rel=1e-4)
    assert v["Flow IAT Mean"] == pytest.approx(500_000, rel=1e-4)
    assert v["Fwd Pkt Len Std"] == pytest.approx(70.7107, rel=1e-4)
    assert v["Flow Byts/s"] == pytest.approx(360.0, rel=1e-4)

    single = assemble_flows(read_pcap(three_packet_pcap).packets[:1])[0]
    degenerate = features(single)
    assert degenerate["Flow Duration"] == 0.0
    for name, value in degenerate.items():
        assert value == value and abs(value) != float("inf"), name
    for name in ("Flow Byts/s", "Flow Pkts/s", "Flow IAT Mean",
                 "Flow IAT Std", "Fwd IAT Mean", "Bwd IAT Mean"):
        assert degenerate[name] == 0.0
    _passline(10, "hand-computed flow features reproduced to 1e-4; "
                  "single-packet flow fully finite")


IDS2018_ENV = "WSDETECT_IDS2018_CSV"


@pytest.mark.skipif(IDS2018_ENV not in os.environ,
                    reason="optional: set WSDETECT_IDS2018_CSV to the public "
                           "03-02-2018 CSV to run the extended reproduction")
def test_c11_public_dataset_reproduction():
    from wsdetect.flowmeter import label_to_class, read_csv
    from wsdetect.trafficmodel import TabularConfig, TabularDataset, kfold_cv

    table, _ = read_csv(os.environ[IDS2018_ENV], labelled=True)
    labels = [label_to_class(label) for label in table.labels]
    dataset = TabularDataset(table.categoricals, table.continuous, labels)
    report = kfold_cv(dataset, 5, TabularConfig(weighted=True), seed=0)
    assert report.averages["accuracy"] >= 99.5
    assert report.averages["fpr"] <= 0.1
    _passline(11, f"public-dataset 5-fold: accuracy "
                  f"{report.averages['accuracy']:.2f}%, "
                  f"FPR {report.averages['fpr']:.3f}%")
