"""PCAP ingestion, bidirectional flow assembly and flow feature extraction.

The feature set is CICFlowMeter-compatible: 83 named fields per flow of
which 79 feed the traffic model (Dst Port and Protocol as categoricals,
77 continuous including the epoch timestamp), held column by column in
one `FlowTable` from capture to CSV to model."""

from wsdetect.flowmeter.pcapfile import Packets, PcapError, PcapResult, read_pcap
from wsdetect.flowmeter.flows import Flow, assemble_flows
from wsdetect.flowmeter.features import (
    CATEGORICAL_NAMES,
    CONTINUOUS_NAMES,
    CSV_COLUMNS,
    FlowTable,
    compute_features,
    feature_matrix,
    feature_table,
    label_to_class,
)
from wsdetect.flowmeter.fio import CsvFormatError, read_csv, write_csv, write_jsonl

__all__ = [
    "CATEGORICAL_NAMES",
    "CONTINUOUS_NAMES",
    "CSV_COLUMNS",
    "CsvFormatError",
    "Flow",
    "FlowTable",
    "Packets",
    "PcapError",
    "PcapResult",
    "assemble_flows",
    "compute_features",
    "feature_matrix",
    "feature_table",
    "label_to_class",
    "read_csv",
    "read_pcap",
    "write_csv",
    "write_jsonl",
]
