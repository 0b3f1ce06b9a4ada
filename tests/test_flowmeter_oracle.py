"""The columnar flowmeter against the per-packet oracle it replaced.

`tests/flowmeter_oracle.py` is the record-at-a-time decoder, flow
assembly and feature code; the package must agree with it exactly:
the same `PcapError` texts, packets, skip and fragment counts, flows
and flow order, and all 83 fields of every flow by ==. Every capture
the tests build is checked the same way after its test (conftest);
here the shared random-capture strategy drives it, with the flow
timeout drawn too.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import random_captures
from tests.flowmeter_check import assert_matches_oracle
from wsdetect.flowmeter.flows import DEFAULT_FLOW_TIMEOUT_US


class TestOracleAgreement:
    @given(data=random_captures(),
           timeout=st.sampled_from([DEFAULT_FLOW_TIMEOUT_US, 5_000_000,
                                    1_000_000, 1]))
    @settings(max_examples=100, deadline=None)
    def test_random_captures_agree_exactly(self, data, timeout):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "random.pcap"
            path.write_bytes(data)
            assert_matches_oracle(path, flow_timeout_us=timeout, every_flow=True)

    def test_identical_first_packets_keep_file_order(self, tmp_path):
        # a FIN splits one key into two flows that start at the same
        # microsecond with the same flow id: the earlier stays first
        from tests.conftest import ethernet_ipv4_tcp, pcap_bytes

        fin = ethernet_ipv4_tcp("10.0.0.1", 4444, "10.0.0.2", 80, 5, flags=0x11)
        data = pcap_bytes([(7, fin), (7, ethernet_ipv4_tcp(
            "10.0.0.1", 4444, "10.0.0.2", 80, 900)), (3, fin)])
        path = tmp_path / "ties.pcap"
        path.write_bytes(data)
        assert_matches_oracle(path, every_flow=True)
