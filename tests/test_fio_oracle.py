"""The feature CSV reader and writers against the record-at-a-time code
they replaced (`tests/fio_oracle.py`).

On hypothesis CSVs in both layouts (the toolkit's 83 columns and the
public CSE-CIC-IDS2018 80), with `Infinity`/NaN/empty cells, wall-clock
timestamps, repeated headers and blank lines, the runtime reader must
give the oracle's cells and cleaned-cell count exactly, and the writers
its bytes. The exceptions are the rows the runtime reader rejects: a
row of the wrong width or with a port or protocol out of range is a
`CsvFormatError` naming its line, where the oracle read it. A timestamp
the oracle could not store (NaN, infinite) is not drawn: the oracle
raised an untyped error there, and `tests/test_flowmeter.py` checks
that the runtime reader cleans it.
"""

import csv
import io
import tempfile
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import fio_oracle, flowmeter_oracle
from tests.conftest import random_captures
from tests.flowmeter_check import record_fields, table_fields
from wsdetect.flowmeter import (
    CONTINUOUS_NAMES,
    CSV_COLUMNS,
    CsvFormatError,
    PcapError,
    assemble_flows,
    compute_features,
    feature_matrix,
    feature_table,
    read_csv,
    read_pcap,
    write_csv,
    write_jsonl,
)
from wsdetect.trafficmodel import TabularDataset

PUBLIC_COLUMNS = ("Dst Port", "Protocol", "Timestamp", *CONTINUOUS_NAMES[1:], "Label")

NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["Infinity", "-Infinity", "inf", "-inf", "+inf", "NaN", "nan",
                     "", " ", "1e999", "-0", "+1.5e3", " 7 ", "1_000"]))
TIMESTAMPS = st.one_of(
    st.integers(0, 2**32).map(str),
    st.floats(-1e12, 1e12).map(repr),
    st.tuples(st.datetimes(datetime(1971, 1, 1), datetime(2037, 1, 1)),
              st.sampled_from(["%d/%m/%Y %H:%M:%S", "%d/%m/%Y %H:%M",
                               "%Y-%m-%d %H:%M:%S"])).map(lambda d: d[0].strftime(d[1])),
    st.sampled_from(["", "-0.0000001", " 1519980458.5 ", "yesterday"]))
PORTS = st.sampled_from(["80", "443", "0", "65535", "8080.0", "65535.9", "-0.5",
                        " 22 ", "", "abc", "nan"])
PROTOCOLS = st.sampled_from(["6", "17", "0", "255", "", "x"])
OUT_OF_RANGE = {"Src Port": ["65536", "-5", "1e23", "-1"],
                "Dst Port": ["65536", "-5", "1e23", "-1"],
                "Protocol": ["256", "-1", "1000"]}
TEXT = st.text(alphabet=' ab,"é\t1.-', max_size=8)
# what a row is; all but "ok", "blank", "spaces" and "header" are errors
KINDS = st.sampled_from(["ok"] * 16 + ["blank", "spaces", "header", "short", "long",
                                       "range", "garbage"])


@st.composite
def csv_files(draw):
    """(CSV text, line of the first row the runtime reader rejects or
    None, whether the oracle raises on a bad value)."""
    columns = draw(st.sampled_from([CSV_COLUMNS, PUBLIC_COLUMNS]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\r\n", "\n"])))
    writer.writerow(columns)
    first_error, garbage = None, False
    for line in range(2, 2 + draw(st.integers(0, 6))):
        kind = draw(KINDS)
        row = {
            "Flow ID": draw(TEXT), "Src IP": draw(TEXT), "Src Port": draw(PORTS),
            "Dst Port": draw(PORTS), "Protocol": draw(PROTOCOLS),
            "Timestamp": draw(TIMESTAMPS), "Label": draw(TEXT),
            **{name: draw(NUMBERS) for name in CONTINUOUS_NAMES[1:]}}
        cells = [row[name] for name in columns]
        if kind == "blank":
            cells = []
        elif kind == "spaces":
            cells = [" "] * len(columns)
        elif kind == "header":
            cells = list(columns)
        elif kind == "short":
            cells = cells[:draw(st.integers(1, len(columns) - 1))]
        elif kind == "long":
            cells += draw(st.lists(TEXT, min_size=1, max_size=3))
        elif kind == "range":
            name = draw(st.sampled_from([n for n in OUT_OF_RANGE if n in columns]))
            cells[columns.index(name)] = draw(st.sampled_from(OUT_OF_RANGE[name]))
        elif kind == "garbage":
            name = draw(st.sampled_from(CONTINUOUS_NAMES[1:]))
            cells[columns.index(name)] = "12abc"
            garbage = True
        rejected = kind in ("short", "long", "range", "garbage")
        if rejected and any(c.strip() for c in cells) and first_error is None:
            first_error = line  # an all-blank row is skipped, whatever its width
        writer.writerow(cells)
    return out.getvalue(), first_error, garbage


class TestReaderAgreesWithOracle:
    @given(csv_files())
    @settings(max_examples=150, deadline=None)
    def test_cells_cleaned_counts_and_written_bytes(self, drawn):
        text, first_error, garbage = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "flows.csv"
            path.write_text(text, encoding="utf-8", newline="")
            try:
                expected = fio_oracle.read_csv(path)
            except fio_oracle.CsvFormatError:
                assert garbage
                expected = None
            if first_error is not None:
                with pytest.raises(CsvFormatError, match=f": line {first_error}: "):
                    read_csv(path)
                return
            assert expected is not None
            table, cleaned_cells = read_csv(path)
            assert cleaned_cells == expected.cleaned_cells
            assert table_fields(table) == [record_fields(r) for r in expected.records]
            for ours, theirs in ((write_csv, fio_oracle.write_csv),
                                 (write_jsonl, fio_oracle.write_jsonl)):
                ours(table, Path(tmp) / "ours")
                theirs(expected.records, Path(tmp) / "theirs")
                assert (Path(tmp) / "ours").read_bytes() == \
                    (Path(tmp) / "theirs").read_bytes()


def _capture_flows(data: bytes, tmp: str):
    """The package's and the per-packet oracle's flows of one capture, or
    None for a capture that does not decode."""
    path = Path(tmp) / "random.pcap"
    path.write_bytes(data)
    try:
        packets = read_pcap(path).packets
    except PcapError:
        return None
    flows = assemble_flows(packets)
    return flows, flowmeter_oracle.assemble_flows(flowmeter_oracle.read_pcap(path).packets)


class TestCaptureTables:
    @given(random_captures())
    @settings(max_examples=40, deadline=None)
    def test_written_bytes_agree_with_oracle(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            both = _capture_flows(data, tmp)
            if both is None:
                return
            flows, expected_flows = both
            table = feature_table(flows)
            records = [flowmeter_oracle.compute_features(f) for f in expected_flows]
            for i, record in enumerate(records):
                record.label = table.labels[i] = ("Benign", "Webshell", "")[i % 3]
            for ours, theirs in ((write_csv, fio_oracle.write_csv),
                                 (write_jsonl, fio_oracle.write_jsonl)):
                ours(table, Path(tmp) / "ours")
                theirs(records, Path(tmp) / "theirs")
                assert (Path(tmp) / "ours").read_bytes() == \
                    (Path(tmp) / "theirs").read_bytes()

    @given(random_captures())
    @settings(max_examples=40, deadline=None)
    def test_benchmark_adapters_build_the_batch_dataset(self, data):
        # bench/prepare.py trains its DNN on this dataset
        with tempfile.TemporaryDirectory() as tmp:
            both = _capture_flows(data, tmp)
            if both is None or not both[0]:
                return
            flows = both[0]
            labels = [i % 2 for i in range(len(flows))]
            adapted = TabularDataset.from_records([compute_features(f) for f in flows], labels)
            batch = TabularDataset([(f.dst_port, f.protocol) for f in flows],
                                   feature_matrix(flows), labels)
            for name in ("categoricals", "continuous", "labels"):
                ours, theirs = getattr(adapted, name), getattr(batch, name)
                assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
                assert ours.tobytes() == theirs.tobytes(), name
