"""Hostile-input robustness: parsers must fail typed, never crash.

Both the rule language and the pcap reader consume attacker-adjacent
bytes; whatever comes in, they either succeed or raise their own error
type.
"""

import random
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_captures, rule_texts
from wsdetect.flowmeter import PcapError, assemble_flows, feature_matrix, read_pcap
from wsdetect.opcode import builtin_vocabulary, parse_cil, parse_vld
from wsdetect.rulelang import RuleSyntaxError, match_buffer, parse_rules


class TestRuleParserFuzz:
    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse_rules(text)
        except RuleSyntaxError:
            pass

    @given(st.text(alphabet="rule strings condition {}()$=\"\\/#*@0123456789abc \n",
                   max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_structured_garbage_never_crashes(self, text):
        try:
            parse_rules(text)
        except RuleSyntaxError:
            pass

    @given(rule_texts())
    @settings(max_examples=150, deadline=None)
    def test_mutated_rule_texts_fail_typed_or_match(self, text):
        try:
            ruleset = parse_rules(text)
        except RuleSyntaxError:
            return
        match_buffer(ruleset, b"ab\nAB abab \x00 aB\xff")

    @given(st.binary(max_size=256))
    @settings(max_examples=200, deadline=None)
    def test_match_buffer_accepts_any_subject(self, subject):
        ruleset = parse_rules(
            'rule r { strings: $a = "xy" $h = { 00 ?? ff } '
            'condition: 1 of them }')
        match_buffer(ruleset, subject)


class TestOpcodeParserFuzz:
    @given(st.text(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_vld_any_text(self, text):
        listing = parse_vld(text, builtin_vocabulary("php"), 2000)
        assert all(m for m in listing.mnemonics)

    @given(st.text(max_size=400))
    @settings(max_examples=200, deadline=None)
    def test_cil_any_text(self, text):
        listing = parse_cil(text, builtin_vocabulary("cil"), 2000)
        assert all(m for m in listing.mnemonics)


class TestPcapFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_fail_typed(self, data):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.pcap"
            path.write_bytes(data)
            try:
                read_pcap(path)
            except PcapError:
                pass

    @given(random_captures())
    @settings(max_examples=40, deadline=None)
    def test_random_captures_fail_typed_or_give_finite_features(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.pcap"
            path.write_bytes(data)
            try:
                capture = read_pcap(path)
            except PcapError:
                return
        flows = assemble_flows(capture.packets)
        assert sum(f.stop - f.start for f in flows) == len(capture.packets)
        matrix = feature_matrix(flows)
        assert matrix.shape == (len(flows), 77) and np.isfinite(matrix).all()

    def test_mutated_valid_capture_through_full_pipeline(self, tmp_path):
        from tests.conftest import ethernet_ipv4_tcp, pcap_bytes
        from wsdetect.flowmeter import assemble_flows, feature_table

        base = pcap_bytes(
            [(0, ethernet_ipv4_tcp("1.2.3.4", 10, "5.6.7.8", 20, 30)),
             (5000, ethernet_ipv4_tcp("5.6.7.8", 20, "1.2.3.4", 10, 60))])
        rng = random.Random(0)
        for _ in range(300):
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            path = tmp_path / "mut.pcap"
            path.write_bytes(bytes(mutated))
            try:
                result = read_pcap(path)
            except PcapError:
                continue
            # whatever decoded must survive feature math with finite values
            for flow in assemble_flows(result.packets):
                values = feature_table([flow]).continuous[0, 1:].tolist()
                assert all(v == v and abs(v) != float("inf") for v in values)
