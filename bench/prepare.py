"""Write one workload's inputs and model files to a directory.

Usage: python3 bench/prepare.py WORKLOAD SEED SIZE OUTDIR

`run.py` starts this in a child process, so the memory the generators
use never counts in the measured process's peak RSS. It writes the
generated inputs, the model checkpoints the workload needs and
`truth.json`, the planted truth the outputs are checked against.
The traffic DNN is trained here, with the package's own pipeline, on a
capture made from a different seed than the one inspected.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

MAX_LENGTH = 2000  # the CNN input length the paper's PHP model uses


def _train_dnn(seed: int, size: dict, out: Path) -> None:
    from wsdetect.flowmeter import assemble_flows, compute_features, read_pcap
    from wsdetect.tensornet import save_model
    from wsdetect.trafficmodel import TabularConfig, TabularDataset, train_dnn

    capture = gen.traffic_capture(seed + 7919, long_flows=size["train_long"],
                                  long_packets=size["bulk_packets"],
                                  short_flows=size["train_short"],
                                  webshell_share=0.25)
    path = out / "train.pcap"
    path.write_bytes(capture.data)
    flows = assemble_flows(read_pcap(path).packets)
    path.unlink()
    records = [compute_features(f) for f in flows]
    labels = [int((f.src_ip, f.src_port) in capture.webshell) for f in flows]
    model, _ = train_dnn(TabularDataset.from_records(records, labels),
                         TabularConfig(weighted=True, epochs=8, seed=seed))
    save_model(model, out / "dnn.bin")


def _capture_truth(capture: gen.Capture) -> dict:
    return {"packets": capture.packets, "skipped": capture.skipped,
            "flows": capture.flows, "webshell": sorted(capture.webshell)}


def prepare_bulk(seed: int, size: dict, out: Path) -> dict:
    capture = gen.traffic_capture(seed, long_flows=size["bulk_flows"],
                                  long_packets=size["bulk_packets"])
    (out / "bulk.pcap").write_bytes(capture.data)
    _train_dnn(seed, size, out)
    return {"pcap": "bulk.pcap", **_capture_truth(capture)}


def prepare_daemon(seed: int, size: dict, out: Path) -> dict:
    (out / "rules").mkdir()
    requests = []
    for k in range(size["requests"]):
        capture = gen.traffic_capture(seed * 1000 + k, short_flows=size["request_flows"],
                                      webshell_share=1 / 3, start_spread_s=5.0)
        name = f"req_{k:02d}.pcap"
        (out / name).write_bytes(capture.data)
        requests.append({"pcap": name, "expect": "ok", **_capture_truth(capture)})
    cut = gen.traffic_capture(seed * 1000 + 999, short_flows=size["request_flows"],
                              webshell_share=1 / 3, start_spread_s=5.0, truncate=True)
    (out / "truncated.pcap").write_bytes(cut.data)
    # a fixed share of bad requests, at fixed places in the cycle
    requests.insert(len(requests) // 2, {"pcap": "truncated.pcap", "expect": "truncated"})
    requests.append({"pcap": "missing.pcap", "expect": "missing"})
    _train_dnn(seed, size, out)
    return {"requests": requests}


def prepare_scan(seed: int, size: dict, out: Path) -> dict:
    from wsdetect.opcode import builtin_vocabulary
    from wsdetect.srcmodel import CnnConfig, build_cnn
    from wsdetect.tensornet import save_model

    vocab = builtin_vocabulary("php")
    specs = gen.rule_set(seed, size["rules"])
    (out / "rules.yar").write_text(gen.rules_text(specs), encoding="utf-8")
    chunks = []
    for c, files in enumerate(gen.scan_tree(seed, list(vocab.mnemonics), specs,
                                            size["scan_chunks"], size["scan_sizes"])):
        folder = out / "tree" / f"chunk{c:02d}"
        folder.mkdir(parents=True)
        for f in files:
            (folder / f.name).write_bytes(f.data)
        chunks.append([{"path": str(Path("tree") / folder.name / f.name),
                        "rule": f.rule, "opcodes": f.opcodes, "bytes": len(f.data)}
                       for f in files])
    model = build_cnn(CnnConfig.php(vocab_size=len(vocab), max_length=MAX_LENGTH,
                                    seed=seed), language="php", vocab=vocab)
    save_model(model, out / "cnn.bin")
    return {"chunks": chunks}


PREPARE = {"inspect_bulk": prepare_bulk, "inspect_daemon": prepare_daemon,
           "scan_src": prepare_scan}


def main(argv: list[str]) -> None:
    workload, seed, size, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    out.mkdir(parents=True)
    truth = PREPARE[workload](seed, gen.SIZES[size], out)
    (out / "truth.json").write_text(json.dumps(truth), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
