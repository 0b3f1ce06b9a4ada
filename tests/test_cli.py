"""CLI contract: thin adapters, exit codes, JSON output."""

import io
import json
from pathlib import Path

import pytest

from wsdetect.cli import EXIT_DETECTED, EXIT_ERROR, EXIT_OK, EXIT_USAGE, run
from wsdetect.opcode import builtin_vocabulary


PHP_OPCODES = len(builtin_vocabulary("php"))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


class TestEvalMetrics:
    def test_reference_panel_via_cli(self):
        code, out, _ = _run(["eval", "metrics", "--tp", "807", "--fp", "17",
                             "--fn", "10", "--tn", "1438"])
        assert code == EXIT_OK
        assert "98.81" in out  # accuracy of the reference CNN panel

    def test_json_mode(self):
        code, out, _ = _run(["eval", "metrics", "--tp", "709", "--fp", "8",
                             "--fn", "108", "--tn", "1447", "--json"])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["accuracy"] == 94.89
        assert payload["recall"] == pytest.approx(86.76, abs=0.05)

    def test_matches_library_call(self):
        from wsdetect.evalkit import ConfusionMatrix, metrics

        code, out, _ = _run(["eval", "metrics", "--tp", "3", "--fp", "1",
                             "--fn", "2", "--tn", "4", "--json"])
        direct = metrics(ConfusionMatrix(3, 1, 2, 4)).as_dict(digits=2)
        assert json.loads(out) == direct


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"], out=io.StringIO(), err=io.StringIO()) == EXIT_OK
        capsys.readouterr()  # argparse prints help to the real stdout

    def test_unknown_subcommand(self):
        code, _, _ = _run(["frobnicate"])
        assert code == EXIT_USAGE

    def test_unknown_flag(self):
        code, _, _ = _run(["eval", "metrics", "--tp", "1", "--fp", "0",
                           "--fn", "0", "--tn", "1", "--bogus"])
        assert code == EXIT_USAGE

    def test_runtime_error_is_exit_one(self, tmp_path):
        code, _, err = _run(["rules", "scan", "--rules",
                             str(tmp_path / "none.yar"), "--root", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "error" in err


class TestRules:
    def test_check_ok_and_bad(self, tmp_path):
        good = tmp_path / "good.yar"
        good.write_text('rule g { strings: $a = "x" condition: $a }')
        bad = tmp_path / "bad.yar"
        bad.write_text("rule 9 { condition: true }")
        assert _run(["rules", "check", str(good)])[0] == EXIT_OK
        assert _run(["rules", "check", str(bad)])[0] == EXIT_ERROR

    def test_check_reports_an_undecodable_file_and_goes_on(self, tmp_path):
        bad, good = tmp_path / "bad.yar", tmp_path / "good.yar"
        bad.write_bytes(b'rule a { meta: k = "caf\xe9" condition: true }\n')
        good.write_text("rule b { condition: true }\n")
        code, out, err = _run(["rules", "check", str(bad), str(good)])
        assert code == EXIT_ERROR
        assert out == f"{good}: 1 rule(s) ok (b)\n"
        assert err == f"{bad}: line 1, column 24: not UTF-8: byte 0xe9 " \
                      "(invalid continuation byte)\n"

    def test_check_names_the_bad_file_of_a_directory(self, tmp_path):
        rules = tmp_path / "rules"
        rules.mkdir()
        (rules / "1.yar").write_text("rule one { condition: true }")
        (rules / "2.yar").write_text("rule two {\n strings: $a = /ab(/\n"
                                     " condition: $a }")
        code, out, err = _run(["rules", "check", str(rules)])
        assert code == EXIT_ERROR and out == ""
        assert f"{rules / '2.yar'}: line 2, column 16: invalid regex" in err

    def test_scan_clean_tree_exit_zero(self, tmp_path):
        rules = tmp_path / "r.yar"
        rules.write_text('rule r { strings: $a = "b374k" condition: $a }')
        root = tmp_path / "site"
        root.mkdir()
        (root / "index.php").write_bytes(b"<?php echo 1; ?>")
        code, out, _ = _run(["rules", "scan", "--rules", str(rules),
                             "--root", str(root)])
        assert code == EXIT_OK
        assert out == ""

    def test_scan_empty_directory_exit_zero(self, tmp_path):
        rules = tmp_path / "r.yar"
        rules.write_text('rule r { strings: $a = "b374k" condition: $a }')
        empty = tmp_path / "empty"
        empty.mkdir()
        code, out, _ = _run(["rules", "scan", "--rules", str(rules),
                             "--root", str(empty)])
        assert code == EXIT_OK and out == ""

    def test_scan_detection_exit_three(self, tmp_path):
        rules = tmp_path / "r.yar"
        rules.write_text('rule r { strings: $a = "b374k" condition: $a }')
        root = tmp_path / "site"
        root.mkdir()
        (root / "shell.php").write_bytes(b"xx b374k yy")
        code, out, _ = _run(["rules", "scan", "--rules", str(rules),
                             "--root", str(root), "--json"])
        assert code == EXIT_DETECTED
        rec = json.loads(out.splitlines()[0])
        assert rec["rules"] == ["r"]


class TestSourcePipeline:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("ECHO\nCONCAT\nRETURN\nEVAL\n")
        files = []
        for i in range(12):
            path = tmp_path / f"dump{i}.php.vld"
            if i % 2:
                body = ("line 1 0 E > ECHO 'x'\n"
                        "     2 1   EVAL\n     3 2 > RETURN 1\n")
            else:
                body = "line 1 0 E > ECHO 'y'\n     2 1 > RETURN 1\n"
            path.write_text(body)
            files.append((path, i % 2))
        return tmp_path, vocab, files

    def test_extract_train_predict(self, corpus_dir, tmp_path):
        root, vocab, files = corpus_dir
        web = [str(p) for p, label in files if label == 1]
        ben = [str(p) for p, label in files if label == 0]
        csv_web = str(tmp_path / "web.csv")
        csv_ben = str(tmp_path / "ben.csv")
        code, _, _ = _run(["oci", "extract", "--language", "php", "--vocab",
                           str(vocab), "--max-length", "6", "--label", "1",
                           "--out", csv_web] + web)
        assert code == EXIT_OK
        code, _, _ = _run(["oci", "extract", "--language", "php", "--vocab",
                           str(vocab), "--max-length", "6", "--label", "0",
                           "--out", csv_ben] + ben)
        assert code == EXIT_OK
        # merge the two corpus files
        merged = tmp_path / "corpus.csv"
        lines = Path(csv_web).read_text().splitlines()
        lines += Path(csv_ben).read_text().splitlines()[1:]
        merged.write_text("\n".join(lines) + "\n")

        model_path = str(tmp_path / "model.bin")
        code, out, err = _run(["train", "src", "--corpus", str(merged),
                               "--language", "php", "--vocab", str(vocab),
                               "--epochs", "6", "--batch-size", "4",
                               "--out", model_path, "--json"])
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert payload["train_seconds"] > 0 and payload["samples_per_s"] > 0

        code, out, err = _run(["predict", "src", "--model", model_path,
                               "--vocab", str(vocab)] + web[:1] + ben[:1])
        assert code == EXIT_DETECTED, err
        verdicts = [json.loads(l) for l in out.splitlines()]
        assert verdicts[0]["label"] == "Webshell"
        assert verdicts[1]["label"] == "Benign"
        assert all(v["source"] == "cnn" for v in verdicts)

    def test_cil_pipeline_with_builtin_vocabulary(self, tmp_path):
        web = tmp_path / "shell.cil"
        web.write_text("IL_0000: ldstr \"cmd\"\nIL_0005: call x\nIL_000a: ret\n")
        ben = tmp_path / "page.cil"
        ben.write_text("IL_0000: nop\nIL_0001: ret\n")
        corpus = tmp_path / "cil.csv"
        code, _, err = _run(["oci", "extract", "--language", "cil",
                             "--max-length", "8", "--label", "1",
                             "--out", str(corpus), str(web)])
        assert code == EXIT_OK, err
        lines = Path(corpus).read_text().splitlines()
        # append a benign row by re-running extract and merging
        ben_csv = tmp_path / "ben.csv"
        _run(["oci", "extract", "--language", "cil", "--max-length", "8",
              "--label", "0", "--out", str(ben_csv), str(ben)])
        lines += Path(ben_csv).read_text().splitlines()[1:]
        merged = tmp_path / "merged.csv"
        merged.write_text("\n".join(lines) + "\n")
        model_path = str(tmp_path / "cil.bin")
        code, out, err = _run(["train", "src", "--corpus", str(merged),
                               "--language", "cil", "--epochs", "1",
                               "--batch-size", "2", "--out", model_path,
                               "--json"])
        assert code == EXIT_OK, err
        code, out, err = _run(["predict", "src", "--model", model_path,
                               str(web), str(ben)])
        assert code in (EXIT_OK, EXIT_DETECTED), err
        verdicts = [json.loads(l) for l in out.splitlines()]
        assert len(verdicts) == 2
        assert all(v["source"] == "cnn" for v in verdicts)

    def test_predict_with_rules_short_circuit(self, corpus_dir, tmp_path):
        root, vocab, files = corpus_dir
        rules = tmp_path / "sig.yar"
        rules.write_text('rule sig { strings: $a = "EVAL" condition: $a }')
        model_path = str(tmp_path / "m.bin")
        merged = tmp_path / "c.csv"
        _run(["oci", "extract", "--language", "php", "--vocab", str(vocab),
              "--max-length", "6", "--label", "1", "--out", str(merged),
              str(files[1][0]), str(files[0][0])])
        _run(["train", "src", "--corpus", str(merged), "--language", "php",
              "--vocab", str(vocab), "--epochs", "1", "--batch-size", "2",
              "--out", model_path])
        code, out, _ = _run(["predict", "src", "--model", model_path,
                             "--vocab", str(vocab), "--rules", str(rules),
                             str(files[1][0])])
        assert code == EXIT_DETECTED
        verdict = json.loads(out.splitlines()[0])
        assert verdict["source"] == "rules"
        assert verdict["rules"] == ["sig"]


    def test_predict_compiles_rules_once(self, corpus_dir, tmp_path,
                                         monkeypatch):
        from wsdetect.rulelang import matcher

        root, vocab, files = corpus_dir
        rules = tmp_path / "sig.yar"
        rules.write_text('rule sig { strings: $a = "EVAL" condition: $a }')
        model_path = str(tmp_path / "m.bin")
        corpus = tmp_path / "c.csv"
        _run(["oci", "extract", "--language", "php", "--vocab", str(vocab),
              "--max-length", "6", "--label", "1", "--out", str(corpus),
              str(files[1][0]), str(files[0][0])])
        _run(["train", "src", "--corpus", str(corpus), "--language", "php",
              "--vocab", str(vocab), "--epochs", "1", "--batch-size", "2",
              "--out", model_path])
        calls = []
        init = matcher.CompiledRuleSet.__init__

        def counting_init(self, ruleset):
            calls.append(ruleset)
            init(self, ruleset)

        monkeypatch.setattr(matcher.CompiledRuleSet, "__init__", counting_init)
        code, out, err = _run(["predict", "src", "--model", model_path,
                               "--vocab", str(vocab), "--rules", str(rules)]
                              + [str(path) for path, _ in files[:3]])
        assert code == EXIT_DETECTED, err
        sources = [json.loads(line)["source"] for line in out.splitlines()]
        assert sources == ["cnn", "rules", "cnn"]
        assert len(calls) == 1

class TestFlowPipeline:
    def test_extract_then_train_then_kfold(self, two_flow_pcap, tmp_path):
        features = str(tmp_path / "features.csv")
        code, _, err = _run(["flows", "extract", "--pcap", str(two_flow_pcap),
                             "--out", features])
        assert code == EXIT_OK, err

        # label the two flows for a trainable file, then replicate rows
        lines = Path(features).read_text().splitlines()
        header = lines[0].split(",")
        label_idx = header.index("Label")
        rows = []
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            cells[label_idx] = "Webshell" if i % 2 else "Benign"
            rows.append(",".join(cells))
        big = [lines[0]] + rows * 20
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("\n".join(big) + "\n")

        model_path = str(tmp_path / "flow.bin")
        code, out, err = _run(["train", "flow", "--csv", str(labeled),
                               "--epochs", "2", "--batch-size", "8",
                               "--out", model_path, "--json"])
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert payload["records"] == 40
        assert payload["train_seconds"] > 0 and payload["samples_per_s"] > 0

        code, out, err = _run(["predict", "flow", "--model", model_path,
                               "--csv", features])
        assert code in (EXIT_OK, EXIT_DETECTED)
        assert len(out.splitlines()) == 2

        code, out, err = _run(["eval", "kfold", "--csv", str(labeled),
                               "--k", "4", "--json"])
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert len(payload["folds"]) == 4


    def test_extract_reports_fragments_beside_skipped(self, tmp_path):
        from tests.conftest import arp_frame, ethernet_ipv4_tcp, pcap_bytes

        pcap = tmp_path / "frag.pcap"
        pcap.write_bytes(pcap_bytes([
            (0, ethernet_ipv4_tcp("10.0.0.1", 4444, "10.0.0.2", 80, 10)),
            (1, ethernet_ipv4_tcp("10.9.9.9", 31337, "10.0.0.2", 22, 16, frag=185)),
            (2, arp_frame()),
        ]))
        code, out, err = _run(["flows", "extract", "--pcap", str(pcap),
                               "--out", str(tmp_path / "f.csv"), "--json"])
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert (payload["packets"], payload["skipped"], payload["fragments"],
                payload["flows"]) == (1, 1, 1, 1)


class TestInspectOnce:
    def test_json_stats_report_skips_and_fragments(self, tmp_path):
        from tests.conftest import arp_frame, ethernet_ipv4_tcp, pcap_bytes

        pcap = tmp_path / "frag.pcap"
        pcap.write_bytes(pcap_bytes([
            (0, ethernet_ipv4_tcp("10.0.0.1", 4444, "10.0.0.2", 80, 10)),
            (1, ethernet_ipv4_tcp("10.9.9.9", 31337, "10.0.0.2", 22, 16, frag=185)),
            (2, arp_frame()),
        ]))
        code, out, err = _run(["inspect", "once", "--pcap", str(pcap),
                               "--model", "stub:benign", "--json"])
        assert code == EXIT_OK, err
        stats = json.loads(err.splitlines()[-1])
        assert (stats["flows"], stats["packets"], stats["skipped_packets"],
                stats["fragments"]) == (1, 1, 1, 1)

    def test_forced_webshell_stub(self, two_flow_pcap, tmp_path):
        eve = tmp_path / "eve.json"
        rules_dir = tmp_path / "rules"
        rules_dir.mkdir()
        code, out, err = _run(["inspect", "once", "--pcap", str(two_flow_pcap),
                               "--model", "stub", "--eve", str(eve),
                               "--rules-dir", str(rules_dir)])
        assert code == EXIT_DETECTED
        eve_lines = eve.read_text().splitlines()
        assert len(eve_lines) == 2
        assert json.loads(eve_lines[0])["alert"]["category"] == "Webshell"
        rule_lines = (rules_dir / "webshell-generated.rules").read_text().splitlines()
        assert len(rule_lines) == 2
        assert rule_lines[0].startswith("drop ip 192.168.1.10")

    def test_alert_sids_agree_with_existing_rule_file(self, two_flow_pcap, tmp_path):
        from wsdetect.inspector import GeneratedRule, parse_rule_line

        eve = tmp_path / "eve.json"
        rules_dir = tmp_path / "rules"
        rules_dir.mkdir()
        path = rules_dir / "webshell-generated.rules"
        path.write_text(GeneratedRule("drop", "1.1.1.1", 3000001).render() + "\n")
        code, out, err = _run(["inspect", "once", "--pcap", str(two_flow_pcap),
                               "--model", "stub", "--eve", str(eve),
                               "--rules-dir", str(rules_dir)])
        assert code == EXIT_DETECTED, err
        alerts = [json.loads(line) for line in eve.read_text().splitlines()]
        written = {r.src_ip: r.sid for r in map(parse_rule_line, path.read_text().splitlines())}
        assert len(written) == 3 and len(set(written.values())) == 3
        for alert in alerts:
            assert alert["alert"]["signature_id"] == written[alert["src_ip"]]

    def test_benign_stub_clean_exit(self, two_flow_pcap, tmp_path):
        code, out, err = _run(["inspect", "once", "--pcap", str(two_flow_pcap),
                               "--model", "stub:benign"])
        assert code == EXIT_OK
        assert out == ""

    def _config(self, tmp_path, monkeypatch, **keys):
        monkeypatch.delenv("WS_INSPECTOR_CONFIG", raising=False)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(keys))
        return str(path)

    def test_config_names_the_rules_dir_and_eve_file(self, two_flow_pcap, tmp_path,
                                                     monkeypatch):
        rules_dir, eve = tmp_path / "rd", tmp_path / "e.json"
        rules_dir.mkdir()
        config = self._config(tmp_path, monkeypatch, rules_dir=str(rules_dir),
                              eve_path=str(eve))
        code, out, err = _run(["--config", config, "inspect", "once",
                               "--pcap", str(two_flow_pcap), "--model", "stub"])
        assert code == EXIT_DETECTED, err
        assert out == ""
        assert len(eve.read_text().splitlines()) == 2
        assert len((rules_dir / "webshell-generated.rules").read_text().splitlines()) == 2

    def test_flags_override_the_config_keys(self, two_flow_pcap, tmp_path, monkeypatch):
        for name in ("rd", "flag-rd"):
            (tmp_path / name).mkdir()
        config = self._config(tmp_path, monkeypatch, rules_dir=str(tmp_path / "rd"),
                              eve_path=str(tmp_path / "e.json"))
        code, out, err = _run(["--config", config, "inspect", "once",
                               "--pcap", str(two_flow_pcap), "--model", "stub",
                               "--rules-dir", str(tmp_path / "flag-rd"),
                               "--eve", str(tmp_path / "flag-e.json")])
        assert code == EXIT_DETECTED, err
        assert not (tmp_path / "e.json").exists()
        assert not any((tmp_path / "rd").iterdir())
        assert len((tmp_path / "flag-e.json").read_text().splitlines()) == 2
        assert (tmp_path / "flag-rd" / "webshell-generated.rules").exists()

    def test_without_flag_or_key_rules_and_alerts_go_to_stdout(self, two_flow_pcap,
                                                               tmp_path, monkeypatch):
        config = self._config(tmp_path, monkeypatch, mode="ids")
        code, out, err = _run(["--config", config, "inspect", "once",
                               "--pcap", str(two_flow_pcap), "--model", "stub"])
        assert code == EXIT_DETECTED, err
        lines = out.splitlines()
        assert [json.loads(line)["alert"]["category"] for line in lines[:2]] == \
            ["Webshell"] * 2
        assert len(lines) == 4 and lines[2].startswith("alert ip 192.168.1.10")

    def test_a_configured_rules_dir_that_does_not_exist_is_an_error(
            self, two_flow_pcap, tmp_path, monkeypatch):
        config = self._config(tmp_path, monkeypatch, rules_dir=str(tmp_path / "missing"))
        code, out, err = _run(["--config", config, "inspect", "once",
                               "--pcap", str(two_flow_pcap), "--model", "stub"])
        assert code == EXIT_ERROR
        assert "does not exist" in err
        assert not (tmp_path / "missing").exists()


class TestDataset:
    def test_dedup_command(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "a").write_bytes(b"one")
        (root / "b").write_bytes(b"one")
        (root / "c").write_bytes(b"two")
        manifest = tmp_path / "dedup.csv"
        code, out, _ = _run(["dataset", "dedup", "--root", str(root),
                             "--manifest", str(manifest), "--json"])
        assert code == EXIT_OK
        assert json.loads(out) == {"kept": 2, "removed": 1, "unreadable": 0}
        assert "duplicate" in manifest.read_text()

    def test_split_command_by_source(self, tmp_path):
        root = tmp_path / "corpus"
        for source, count in (("big", 5), ("small", 2)):
            d = root / source
            d.mkdir(parents=True)
            for i in range(count):
                (d / f"f{i}").write_bytes(str(i).encode())
        manifest = tmp_path / "split.csv"
        code, out, _ = _run(["dataset", "split", "--root", str(root),
                             "--ratio", "0.7", "--by-source",
                             "--manifest", str(manifest), "--json"])
        assert code == EXIT_OK
        rows = manifest.read_text().splitlines()[1:]
        by_split = {}
        for row in rows:
            path, source, split, digest = row.split(",")
            by_split.setdefault(split, set()).add(source)
        assert not by_split["train"] & by_split["test"]

    def test_clean_command(self, tmp_path):
        rules = tmp_path / "r.yar"
        rules.write_text('rule w { strings: $a = "evil" condition: $a }')
        hit = tmp_path / "hit.php"
        hit.write_bytes(b"so evil")
        miss = tmp_path / "miss.php"
        miss.write_bytes(b"innocent")
        code, out, _ = _run(["dataset", "clean", "--rules", str(rules),
                             str(hit), str(miss)])
        assert code == EXIT_OK
        statuses = {json.loads(l)["path"]: json.loads(l)["status"]
                    for l in out.splitlines()}
        assert statuses[str(hit)] == "confirmed"
        assert statuses[str(miss)] == "needs_review"


class TestTune:
    def test_tiny_grid(self, two_flow_pcap, tmp_path):
        features = str(tmp_path / "f.csv")
        _run(["flows", "extract", "--pcap", str(two_flow_pcap), "--out", features])
        lines = Path(features).read_text().splitlines()
        header = lines[0].split(",")
        label_idx = header.index("Label")
        rows = []
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            cells[label_idx] = "Webshell" if i % 2 else "Benign"
            rows.append(",".join(cells))
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("\n".join([lines[0]] + rows * 10) + "\n")
        space = tmp_path / "space.json"
        space.write_text(json.dumps({
            "learning_rate": {"choice": [0.003, 0.01]},
            "epochs": {"choice": [1]},
        }))
        code, out, err = _run(["tune", "grid", "--csv", str(labeled),
                               "--space", str(space), "--k", "2", "--json"])
        assert code == EXIT_OK, err
        payload = json.loads(out)
        assert len(payload["leaderboard"]) == 2
        assert payload["best"]["learning_rate"] in (0.003, 0.01)


# Every option each subcommand accepts; an option added to the parser
# has to be added here too.
SURFACE = {
    "rules check": ["files"],
    "rules scan": ["--ext", "--json", "--root", "--rules"],
    "oci extract": ["--label", "--language", "--max-length", "--out", "--vocab",
                    "files"],
    "train src": ["--batch-size", "--corpus", "--epochs", "--json", "--language",
                  "--out", "--seed", "--vocab"],
    "train flow": ["--batch-size", "--csv", "--epochs", "--json", "--out",
                   "--seed", "--weighted"],
    "predict src": ["--language", "--model", "--rules", "--vocab", "files"],
    "predict flow": ["--csv", "--model"],
    "flows extract": ["--flow-timeout", "--json", "--out", "--pcap"],
    "eval metrics": ["--fn", "--fp", "--json", "--tn", "--tp"],
    "eval kfold": ["--csv", "--json", "--k", "--seed", "--weighted"],
    "tune grid": ["--csv", "--json", "--k", "--seed", "--space", "--weighted"],
    "dataset dedup": ["--json", "--manifest", "--root"],
    "dataset split": ["--by-source", "--json", "--manifest", "--ratio", "--root",
                      "--seed"],
    "dataset clean": ["--rules", "files"],
    "inspect once": ["--eve", "--json", "--mode", "--model", "--pcap",
                     "--rules-dir"],
    "inspect serve": ["--eve", "--model", "--rules-dir", "--socket"],
}

# The smallest argv each subcommand parses.
MINIMAL_ARGV = {
    "rules check": ["r.yar"],
    "rules scan": ["--rules", "r.yar", "--root", "d"],
    "oci extract": ["--language", "php", "--out", "c.csv", "a.txt"],
    "train src": ["--corpus", "c.csv", "--language", "php", "--out", "m.bin"],
    "train flow": ["--csv", "f.csv", "--out", "m.bin"],
    "predict src": ["--model", "m.bin", "a.txt"],
    "predict flow": ["--model", "m.bin", "--csv", "f.csv"],
    "flows extract": ["--pcap", "t.pcap", "--out", "f.csv"],
    "eval metrics": ["--tp", "1", "--fp", "1", "--fn", "1", "--tn", "1"],
    "eval kfold": ["--csv", "f.csv"],
    "tune grid": ["--csv", "f.csv", "--space", "s.json"],
    "dataset dedup": ["--root", "d"],
    "dataset split": ["--root", "d", "--manifest", "m.csv"],
    "dataset clean": ["--rules", "r.yar", "a.txt"],
    "inspect once": ["--pcap", "t.pcap", "--model", "stub"],
    "inspect serve": [],
}


def _subcommands(parser):
    import argparse

    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


class TestSurface:
    def test_inventory(self):
        from wsdetect.cli import build_parser

        parser = build_parser()
        found = {}
        for group, group_parser in _subcommands(parser).items():
            for name, sub in _subcommands(group_parser).items():
                found[f"{group} {name}"] = sorted(
                    option for action in sub._actions if action.dest != "help"
                    for option in (action.option_strings or [action.dest]))
        assert found == SURFACE
        assert sum(map(len, found.values())) == 74
        assert [a.option_strings for a in parser._actions
                if a.option_strings and a.dest != "help"] == [["--config"]]

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_help_exits_zero(self, command, capsys):
        assert run([*command.split(), "--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: wsdetect " + command)

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in sorted(SURFACE)
        for flag in ("--json", "--seed") if flag not in SURFACE[command]])
    def test_removed_flags_are_usage_errors(self, command, flag):
        from wsdetect.cli import build_parser

        argv = [*command.split(), *MINIMAL_ARGV[command]]
        build_parser().parse_args(argv)
        given = [flag, "9"] if flag == "--seed" else [flag]
        assert _run(argv + given)[0] == EXIT_USAGE

    def test_benchmark_argv_shapes_parse(self):
        from wsdetect.cli import build_parser, cmd_inspect_serve, cmd_predict_src

        parser = build_parser()
        args = parser.parse_args(["predict", "src", "--model", "m.bin",
                                  "--rules", "r.yar", "a.txt", "b.txt"])
        assert (args.func, args.model, args.rules, args.files) == (
            cmd_predict_src, "m.bin", "r.yar", ["a.txt", "b.txt"])
        args = parser.parse_args(["inspect", "serve", "--model", "m.bin",
                                  "--socket", "s.sock", "--rules-dir", "rules",
                                  "--eve", "eve.json"])
        assert (args.func, args.model, args.socket, args.rules_dir, args.eve) == (
            cmd_inspect_serve, "m.bin", "s.sock", "rules", "eve.json")


class TestFlowsExtractFormat:
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_csv_unless_jsonl_whatever_json_says(self, two_flow_pcap, tmp_path,
                                                 json_flag):
        from wsdetect.flowmeter import CSV_COLUMNS

        out_csv = tmp_path / "f.csv"
        code, out, err = _run(["flows", "extract", "--pcap", str(two_flow_pcap),
                               "--out", str(out_csv), *json_flag])
        assert code == EXIT_OK, err
        lines = out_csv.read_text().splitlines()
        assert lines[0].split(",") == list(CSV_COLUMNS)
        assert len(CSV_COLUMNS) == 83
        assert len(lines) == 3
        if json_flag:
            assert json.loads(out)["flows"] == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_jsonl_suffix_writes_json_lines(self, two_flow_pcap, tmp_path,
                                            json_flag):
        out_jsonl = tmp_path / "f.jsonl"
        code, _, err = _run(["flows", "extract", "--pcap", str(two_flow_pcap),
                             "--out", str(out_jsonl), *json_flag])
        assert code == EXIT_OK, err
        rows = [json.loads(line) for line in out_jsonl.read_text().splitlines()]
        assert len(rows) == 2
        assert {row["Src IP"] for row in rows} == {"192.168.1.10", "192.168.1.20"}


class TestLibraryDefaults:
    def test_train_flow_passes_only_given_flags(self, tmp_path, monkeypatch):
        import wsdetect.trafficmodel as trafficmodel

        seen = []

        def fake_train(dataset, config):
            seen.append(config)
            raise RuntimeError("stop")

        monkeypatch.setattr(trafficmodel, "train_dnn", fake_train)
        monkeypatch.setattr("wsdetect.cli._labelled_dataset",
                            lambda path: (0, None))
        argv = ["train", "flow", "--csv", "f.csv", "--out", str(tmp_path / "m")]
        assert _run(argv)[0] == EXIT_ERROR
        assert _run(argv + ["--epochs", "3", "--seed", "4"])[0] == EXIT_ERROR
        assert seen == [trafficmodel.TabularConfig(),
                        trafficmodel.TabularConfig(epochs=3, seed=4)]

    def test_inspect_serve_hands_flags_to_load_config(self, tmp_path, monkeypatch):
        import wsdetect.inspector as inspector

        seen = []
        monkeypatch.setattr(inspector, "serve", seen.append)
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"eve_path": "file-eve.json",
                                      "socket_path": "file.sock"}))
        code, _, err = _run(["--config", str(config), "inspect", "serve",
                             "--eve", "", "--model", "m.bin"])
        assert code == EXIT_OK, err
        # an unset flag keeps the file's value; an empty one reaches the config
        assert (seen[0].eve_path, seen[0].socket_path, seen[0].model_path) == (
            "", "file.sock", "m.bin")


class TestEmptyTraining:
    def test_header_only_csv_is_one_error_and_no_warning(self, tmp_path):
        import warnings

        from wsdetect.flowmeter import CSV_COLUMNS

        csv_path = tmp_path / "empty.csv"
        csv_path.write_text(",".join(CSV_COLUMNS) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(["train", "flow", "--csv", str(csv_path),
                                   "--out", str(tmp_path / "m.bin")])
        assert code == EXIT_ERROR
        assert err == "error: cannot fit on an empty dataset\n"
        assert [str(w.message) for w in caught] == []
        assert not (tmp_path / "m.bin").exists()


class TestDedupManifest:
    def test_manifest_hashes_are_each_files_sha256(self, tmp_path):
        import csv
        import hashlib

        root = tmp_path / "corpus"
        (root / "sub").mkdir(parents=True)
        for name, data in (("a", b"one"), ("b", b"one"), ("sub/c", b"two"),
                           ("d", b"")):
            (root / name).write_bytes(data)
        manifest = tmp_path / "dedup.csv"
        code, _, err = _run(["dataset", "dedup", "--root", str(root),
                             "--manifest", str(manifest)])
        assert code == EXIT_OK, err
        with open(manifest, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            expected = hashlib.sha256(Path(row["path"]).read_bytes()).hexdigest()
            assert row["hash"] == expected, row["path"]
        assert sorted(row["status"] for row in rows) == [
            "duplicate", "kept", "kept", "kept"]


class TestCheckpointKinds:
    """Each command loads the checkpoint kind it needs; another kind is
    one error line naming the file and both kinds."""

    @pytest.fixture
    def checkpoints(self, tmp_path):
        import numpy as np

        from wsdetect.opcode import builtin_vocabulary
        from wsdetect.srcmodel import CnnConfig, build_cnn
        from wsdetect.tensornet import save_model
        from wsdetect.trafficmodel import TabularConfig, TabularDataset, build_dnn

        cnn, dnn = tmp_path / "cnn.bin", tmp_path / "dnn.bin"
        vocab = builtin_vocabulary("php")
        config = CnnConfig.php(vocab_size=len(vocab), max_length=6, num_filters=2)
        save_model(build_cnn(config, language="php", vocab=vocab), cnn)
        rng = np.random.default_rng(0)
        data = TabularDataset(np.column_stack([rng.choice([80, 443], size=8),
                                               rng.choice([6, 17], size=8)]),
                              rng.normal(size=(8, 77)), rng.integers(0, 2, size=8))
        save_model(build_dnn(TabularConfig(hidden=(4, 2)), data), dnn)
        return cnn, dnn

    @staticmethod
    def _refused(argv, path, kind, expected):
        code, out, err = _run(argv)
        assert code == EXIT_ERROR
        assert out == ""
        assert err == (f"error: {path}: model kind is {kind!r}, "
                       f"expected {expected!r}\n")

    def test_predict_src_refuses_a_dnn(self, checkpoints, tmp_path):
        _, dnn = checkpoints
        dump = tmp_path / "a.vld"
        dump.write_text("line 1 0 E > ECHO 'x'\n")
        self._refused(["predict", "src", "--model", str(dnn), "--language", "php",
                       str(dump)], dnn, "tabular_dnn", "opcode_cnn")

    def test_predict_flow_refuses_a_cnn(self, checkpoints, two_flow_pcap, tmp_path):
        cnn, _ = checkpoints
        csv_path = tmp_path / "flows.csv"
        assert _run(["flows", "extract", "--pcap", str(two_flow_pcap),
                     "--out", str(csv_path)])[0] == EXIT_OK
        self._refused(["predict", "flow", "--model", str(cnn), "--csv", str(csv_path)],
                      cnn, "opcode_cnn", "tabular_dnn")

    def test_inspect_once_refuses_a_cnn(self, checkpoints, two_flow_pcap):
        cnn, _ = checkpoints
        self._refused(["inspect", "once", "--pcap", str(two_flow_pcap),
                       "--model", str(cnn)], cnn, "opcode_cnn", "tabular_dnn")

    def test_each_command_loads_its_own_kind(self, checkpoints, two_flow_pcap,
                                             tmp_path):
        cnn, dnn = checkpoints
        dump = tmp_path / "a.vld"
        dump.write_text("line 1 0 E > ECHO 'x'\n")
        code, _, err = _run(["predict", "src", "--model", str(cnn), str(dump)])
        assert code in (EXIT_OK, EXIT_DETECTED), err
        code, _, err = _run(["inspect", "once", "--pcap", str(two_flow_pcap),
                             "--model", str(dnn)])
        assert code in (EXIT_OK, EXIT_DETECTED), err


class TestCorpusErrors:
    @pytest.mark.parametrize("row, message", [
        ("b,1,3,x", "invalid literal for int() with base 10: 'x'"),
        ("b,1,3", "3 cells, the header has 4"),
        ("b,1,3,4,5", "5 cells, the header has 4"),
        ("b,7,3,4", "label 7 is not 0 or 1"),
        (f"b,1,3,{PHP_OPCODES + 1}",
         f"index {PHP_OPCODES + 1} is outside 0..{PHP_OPCODES}, the vocabulary's range"),
        ("b,1,-2,4", f"index -2 is outside 0..{PHP_OPCODES}, the vocabulary's range"),
    ], ids=["not_an_integer", "short_row", "long_row", "label_out_of_range",
            "index_past_the_vocabulary", "negative_index"])
    def test_train_src_names_the_path_and_line(self, tmp_path, row, message):
        corpus = tmp_path / "corpus.csv"
        corpus.write_text(f"path,label,oci_0,oci_1\na,0,1,2\n{row}\n")
        code, out, err = _run(["train", "src", "--corpus", str(corpus),
                               "--language", "php", "--out", str(tmp_path / "m.bin")])
        assert code == EXIT_ERROR
        assert err == f"error: {corpus}:3: {message}\n"
        assert not (tmp_path / "m.bin").exists()

    def test_train_src_names_a_line_that_is_not_utf8(self, tmp_path):
        corpus = tmp_path / "corpus.csv"
        corpus.write_bytes(b"path,label,oci_0,oci_1\na,0,1,2\nb\xff,1,3,4\n")
        code, out, err = _run(["train", "src", "--corpus", str(corpus),
                               "--language", "php", "--out", str(tmp_path / "m.bin")])
        assert code == EXIT_ERROR
        assert err == f"error: {corpus}:3: not UTF-8 text\n"


class TestModelPairing:
    def test_a_model_smaller_than_the_vocabulary_is_one_error_before_any_file(
            self, tmp_path):
        """A CNN saved without a vocabulary hash has no row for the top
        opcodes of a larger vocabulary: one pairing error, no verdicts,
        even when the first file cannot be read."""
        from wsdetect.srcmodel import CnnConfig, build_cnn
        from wsdetect.tensornet import save_model

        model = tmp_path / "small.bin"
        config = CnnConfig.php(vocab_size=PHP_OPCODES - 10, max_length=6, num_filters=2)
        save_model(build_cnn(config, language="php"), model)
        dump = tmp_path / "a.vld"
        dump.write_text("line 1 0 E > ECHO 'x'\n")
        code, out, err = _run(["predict", "src", "--model", str(model),
                               str(tmp_path / "missing.vld"), str(dump)])
        assert code == EXIT_ERROR
        assert out == ""
        assert err == (f"error: model has embeddings for {PHP_OPCODES - 10} opcodes, "
                       f"the vocabulary has {PHP_OPCODES}\n")
