"""The feature CSV reader and writers as they were before `FlowTable`,
kept as a test-only oracle, with the per-flow `FeatureRecord` they read
and wrote.

`tests/test_fio_oracle.py` checks `wsdetect.flowmeter.fio` against this
code: the same cells, cleaned-cell counts and written bytes, except
where the runtime reader turns a row into a `CsvFormatError`.
`tests/flowmeter_oracle.py` builds its flows' `FeatureRecord`s here.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from wsdetect.flowmeter.features import CONTINUOUS_NAMES, CSV_COLUMNS


@dataclass
class FeatureRecord:
    """One flow's 83 named fields. `features` holds the continuous
    values after Timestamp, keyed by their exact column names."""

    flow_id: str
    src_ip: str
    src_port: int
    dst_port: int
    protocol: int
    timestamp_us: int
    label: str = ""
    features: dict[str, float] = field(default_factory=dict)

    @property
    def timestamp_s(self) -> float:
        return self.timestamp_us / 1e6


def continuous_vector(record: FeatureRecord) -> list[float]:
    """The 77 continuous values, in column order, timestamp first as
    epoch seconds."""
    return [record.timestamp_s] + [
        record.features[name] for name in CONTINUOUS_NAMES[1:]]


class CsvFormatError(Exception):
    pass


_NONFINITE = {"infinity", "-infinity", "inf", "-inf", "nan", ""}

_TIMESTAMP_FORMATS = (
    "%d/%m/%Y %H:%M:%S",  # CSE-CIC-IDS2018
    "%d/%m/%Y %H:%M",
    "%Y-%m-%d %H:%M:%S",
)


def write_csv(records: list[FeatureRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            row = [rec.flow_id, rec.src_ip, rec.src_port, rec.dst_port,
                   rec.protocol, f"{rec.timestamp_s:.6f}"]
            row.extend(_format_value(rec.features[name])
                       for name in CONTINUOUS_NAMES[1:])
            row.append(rec.label)
            writer.writerow(row)


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def write_jsonl(records: list[FeatureRecord], path: str | Path) -> None:
    """JSON lines mirroring the CSV field names."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            obj = {
                "Flow ID": rec.flow_id, "Src IP": rec.src_ip,
                "Src Port": rec.src_port, "Dst Port": rec.dst_port,
                "Protocol": rec.protocol, "Timestamp": rec.timestamp_s,
                "Label": rec.label,
            }
            obj.update({name: rec.features[name] for name in CONTINUOUS_NAMES[1:]})
            fh.write(json.dumps(obj) + "\n")


@dataclass
class CsvReadResult:
    records: list[FeatureRecord] = field(default_factory=list)
    cleaned_cells: int = 0  # Infinity/NaN/empty numeric cells mapped to 0


def _parse_timestamp(cell: str) -> tuple[float, bool]:
    """Returns (epoch seconds, cleaned?). Accepts numeric epochs and the
    public dataset's wall-clock formats (treated as UTC)."""
    text = cell.strip()
    try:
        return float(text), False
    except ValueError:
        pass
    for fmt in _TIMESTAMP_FORMATS:
        try:
            stamp = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return stamp.timestamp(), False
        except ValueError:
            continue
    return 0.0, True


def read_csv(path: str | Path) -> CsvReadResult:
    """Read a feature CSV into records.

    Required columns: Dst Port, Protocol and the 77 continuous features.
    Identification columns and Label are optional (the public dataset
    lacks the former). Missing required columns are named in the error.
    """
    result = CsvReadResult()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise CsvFormatError(f"{path}: empty CSV")
        header = [h.strip() for h in header]
        positions = {name: i for i, name in enumerate(header)}
        required = ["Dst Port", "Protocol", *CONTINUOUS_NAMES]
        missing = [name for name in required if name not in positions]
        if missing:
            raise CsvFormatError(
                f"{path}: missing required column(s): {', '.join(missing)}")
        unknown = [name for name in header if name not in CSV_COLUMNS]
        if unknown:
            raise CsvFormatError(
                f"{path}: unknown column(s): {', '.join(unknown)}")

        def cell(row, name, default=""):
            pos = positions.get(name)
            return row[pos] if pos is not None and pos < len(row) else default

        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if cell(row, "Dst Port") == "Dst Port":
                continue  # the public CSVs repeat their header mid-file
            timestamp_s, cleaned = _parse_timestamp(cell(row, "Timestamp"))
            if cleaned:
                result.cleaned_cells += 1
            features: dict[str, float] = {}
            for name in CONTINUOUS_NAMES[1:]:
                raw = cell(row, name).strip()
                if raw.lower() in _NONFINITE:
                    features[name] = 0.0
                    result.cleaned_cells += 1
                    continue
                try:
                    value = float(raw)
                except ValueError as exc:
                    raise CsvFormatError(
                        f"{path}: bad value {raw!r} in column {name!r}") from exc
                if value != value or value in (float("inf"), float("-inf")):
                    value = 0.0
                    result.cleaned_cells += 1
                features[name] = value
            result.records.append(FeatureRecord(
                flow_id=cell(row, "Flow ID"),
                src_ip=cell(row, "Src IP"),
                src_port=_int_or_zero(cell(row, "Src Port")),
                dst_port=_int_or_zero(cell(row, "Dst Port")),
                protocol=_int_or_zero(cell(row, "Protocol")),
                timestamp_us=int(round(timestamp_s * 1e6)),
                label=cell(row, "Label").strip(),
                features=features,
            ))
    return result


def _int_or_zero(cell: str) -> int:
    try:
        return int(float(cell))
    except ValueError:
        return 0
