"""Tests of the benchmark itself: generators, self-time arithmetic and a
tiny-size smoke run of every workload.

Run from the repository root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import LAYER_METRICS, Span, covered, layer_times  # noqa: E402
from workloads import WORKLOADS, _tail  # noqa: E402


# --- generators ----------------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    def make(seed):
        specs = gen.rule_set(seed, 20)
        tree = gen.scan_tree(seed, ["ECHO", "ASSIGN", "INIT_FCALL"], specs, 1,
                             (500, 1000, 1500, 2000, 2500, 3000, 3500, 4000))
        capture = gen.traffic_capture(seed, long_flows=3, long_packets=(20, 30),
                                      short_flows=10)
        rows, labels = gen.oci_rows(seed, 4, 50, 100)
        cats, cont, flow_labels = gen.flow_rows(seed, 50)
        return (capture.data, capture.webshell, gen.rules_text(specs),
                [(f.name, f.data, f.rule) for f in tree[0]], rows, labels,
                cats.tobytes(), cont.tobytes(), flow_labels.tobytes())

    assert make(7) == make(7)
    assert make(7)[0] != make(8)[0]
    assert make(7)[2] != make(8)[2]


def test_pcap_writer_is_linear():
    frame = gen.tcp_frame(b"\x0a\x00\x00\x01", 1000, b"\x0a\x00\x00\x02", 80, 0,
                          gen.ACK, 1024)
    started = time.perf_counter()
    data = gen.pcap_bytes((i, frame) for i in range(100_000))
    assert time.perf_counter() - started < 10.0
    assert len(data) == 24 + 100_000 * (16 + len(frame))


def test_planted_capture_counts_match_the_reader(tmp_path):
    from wsdetect.flowmeter import assemble_flows, read_pcap

    capture = gen.traffic_capture(3, long_flows=4, long_packets=(30, 60),
                                  short_flows=20, webshell_share=0.3, vlan_share=0.5,
                                  non_ip_share=0.1)
    path = tmp_path / "c.pcap"
    path.write_bytes(capture.data)
    result = read_pcap(path)
    flows = assemble_flows(result.packets)
    assert (len(result.packets), result.skipped, len(flows)) == \
        (capture.packets, capture.skipped, capture.flows)
    assert {(f.src_ip, f.src_port) for f in flows} == capture.webshell | capture.benign


def test_planted_rules_match_only_where_planted():
    from wsdetect.rulelang import match_buffer, parse_rules

    specs = gen.rule_set(5, 40)
    ruleset = parse_rules(gen.rules_text(specs))
    for files in gen.scan_tree(5, ["ECHO", "ASSIGN"], specs, 2,
                               (500, 800, 1000, 1500, 2000, 2500, 3000, 3500)):
        for f in files:
            expected = [f.rule] if f.rule else []
            assert match_buffer(ruleset, f.data).rule_names == expected, f.name


# --- self time ------------------------------------------------------------------

def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert covered([(0, 10), (2, 3)]) == pytest.approx(10.0)


def test_self_time_of_nested_spans():
    spans = [
        Span(1, 0, "root", 0.0, 10.0),
        Span(2, 1, "a", 1.0, 4.0),       # child of root
        Span(3, 2, "b", 2.0, 3.0),       # grandchild: counts against a, not root
        Span(4, 1, "a", 5.0, 6.0),       # second call of a
        Span(5, 1, "c", 5.5, 7.0),       # overlaps the second a (another thread)
        Span(6, 0, "b", 20.0, 20.5),     # a root span of the same name as 3
    ]
    times = layer_times(spans)
    # root: 10 - union([1,4], [5,6], [5.5,7]) = 10 - 5
    assert times["root"]["self_s"] == pytest.approx(5.0)
    assert times["a"] == pytest.approx({"calls": 2, "total_s": 4.0, "self_s": 3.0})
    assert times["b"] == pytest.approx({"calls": 2, "total_s": 1.5, "self_s": 1.5})
    assert times["c"]["self_s"] == pytest.approx(1.5)


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    values = [float(v) for v in range(1, 1001)]
    assert _tail(values) == (99.0, 990.0)
    assert _tail(values[:300]) == (95.0, 285.0)
    assert _tail(values[:5]) == (100.0, 5.0)


# --- smoke runs -------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = LAYER_METRICS if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_package_source(tmp_path):
    bare = tmp_path / "bench"
    bare.mkdir()
    for path in BENCH.glob("*.py"):
        (bare / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan_src", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""


def test_layer_metrics_count_only_spans_inside_operations():
    from tracer import op_spans

    spans = [
        Span(1, 0, "bench.op", 0.0, 10.0),
        Span(2, 1, "x", 1.0, 2.0),
        Span(3, 2, "y", 1.2, 1.4),
        Span(4, 0, "x", 11.0, 12.0),    # set-up between operations
        Span(5, 4, "y", 11.1, 11.2),
    ]
    assert [s.sid for s in op_spans(spans)] == [1, 2, 3]
