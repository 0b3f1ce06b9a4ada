"""DeepInspector: pcap inspection, alerting and rule generation.

The daemon receives pcap paths over a local stream socket, classifies
every flow with the traffic model in one worker process per core, and
for each webshell-classified flow emits an EVE-style alert plus a block
rule for the source IP.
"""

from wsdetect.inspector.config import InspectorConfig, load_config
from wsdetect.inspector.pipeline import (
    Alert,
    GeneratedRule,
    InspectionResult,
    SourceTable,
    StubPredictor,
    emit_eve,
    inspect_pcap,
    parse_rule_line,
    write_rules,
)
from wsdetect.inspector.daemon import InspectorDaemon, serve

__all__ = [
    "Alert",
    "GeneratedRule",
    "InspectionResult",
    "InspectorConfig",
    "InspectorDaemon",
    "SourceTable",
    "StubPredictor",
    "emit_eve",
    "inspect_pcap",
    "load_config",
    "parse_rule_line",
    "serve",
    "write_rules",
]
