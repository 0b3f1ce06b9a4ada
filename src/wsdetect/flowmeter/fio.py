"""Feature CSV / JSON-lines input and output of a `FlowTable`.

`write_csv` emits the toolkit's 83-column layout and `write_jsonl` the
same fields as JSON lines. `read_csv` accepts that layout and the public
CSE-CIC-IDS2018 layout (no identification columns, human-readable
timestamps). Non-finite and empty numeric cells are cleaned to 0 and
counted. A row whose width differs from the header's, a value that is
not a number, a port or protocol out of range, text that is not UTF-8
and a field over the csv module's size limit are each a `CsvFormatError`
naming the path and the line.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path

import numpy as np

from wsdetect.flowmeter.features import CONTINUOUS_NAMES, CSV_COLUMNS, FlowTable
from wsdetect.files import utf8_lines


class CsvFormatError(Exception):
    pass


_TIMESTAMP_FORMATS = (
    "%d/%m/%Y %H:%M:%S",  # CSE-CIC-IDS2018
    "%d/%m/%Y %H:%M",
    "%Y-%m-%d %H:%M:%S",
)

# the integer columns, in `FlowTable` order, with their largest value
_INT_COLUMNS = {"Dst Port": 65535, "Protocol": 255, "Src Port": 65535}


def _rows(table: FlowTable):
    """Each flow's (flow id, src ip, src port, (dst port, protocol),
    continuous values, label), as Python values."""
    return zip(table.flow_id, table.src_ip, table.src_port.tolist(),
               table.categoricals.tolist(), table.continuous.tolist(), table.labels)


def write_csv(table: FlowTable, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for flow_id, src_ip, src_port, (dst_port, protocol), values, label in _rows(table):
            writer.writerow([flow_id, src_ip, src_port, dst_port, protocol,
                             f"{values[0]:.6f}", *map(_format_value, values[1:]),
                             label])


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def write_jsonl(table: FlowTable, path: str | Path) -> None:
    """JSON lines mirroring the CSV field names."""
    with open(path, "w", encoding="utf-8") as fh:
        for flow_id, src_ip, src_port, (dst_port, protocol), values, label in _rows(table):
            obj = {
                "Flow ID": flow_id, "Src IP": src_ip, "Src Port": src_port,
                "Dst Port": dst_port, "Protocol": protocol,
                "Timestamp": values[0], "Label": label,
            }
            obj.update(zip(CONTINUOUS_NAMES[1:], values[1:]))
            fh.write(json.dumps(obj) + "\n")


def _parse_timestamp(cell: str) -> float:
    """Epoch seconds from a numeric epoch or one of the public dataset's
    wall-clock formats (read as UTC); NaN, to be cleaned, otherwise."""
    text = cell.strip()
    try:
        return float(text)
    except ValueError:
        pass
    for fmt in _TIMESTAMP_FORMATS:
        try:
            stamp = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc)
            return stamp.timestamp()
        except ValueError:
            continue
    return math.nan


def read_csv(path: str | Path, labelled: bool = False) -> tuple[FlowTable, int]:
    """Read a feature CSV: its table and the number of cleaned cells.

    Required columns: Dst Port, Protocol and the 77 continuous features,
    and Label when `labelled`, which also makes an empty label an error.
    Identification columns and Label are otherwise optional (the public
    dataset lacks the former); an absent one reads as empty, an absent
    Src Port as 0. Missing required columns are named in the error.
    """
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        reader = csv.reader(utf8_lines(fh, path, CsvFormatError))
        try:
            return _read_table(reader, path, labelled)
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_table(reader, path, labelled: bool) -> tuple[FlowTable, int]:
    header = next(reader, None)
    if header is None:
        raise CsvFormatError(f"{path}: empty CSV")
    header = [h.strip() for h in header]
    positions = {name: i for i, name in enumerate(header)}
    required = ["Dst Port", "Protocol", *CONTINUOUS_NAMES]
    if labelled:
        required.append("Label")
    missing = [name for name in required if name not in positions]
    if missing:
        raise CsvFormatError(
            f"{path}: missing required column(s): {', '.join(missing)}")
    unknown = [name for name in header if name not in CSV_COLUMNS]
    if unknown:
        raise CsvFormatError(
            f"{path}: unknown column(s): {', '.join(unknown)}")

    width, dst_port = len(header), positions["Dst Port"]
    # an absent optional column reads the empty cell appended to each row
    texts = itemgetter(*(positions.get(name, width)
                         for name in ("Flow ID", "Src IP", "Label")))
    ints = itemgetter(*(positions.get(name, width) for name in _INT_COLUMNS))
    numbers = itemgetter(*(positions[name] for name in CONTINUOUS_NAMES))
    flow_ids, src_ips, labels = [], [], []
    codes, continuous = array("q"), array("d")
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        line = reader.line_num
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: line {line}: {len(row)} cells, the header has {width}")
        if row[dst_port] == "Dst Port":
            continue  # the public CSVs repeat their header mid-file
        row.append("")
        flow_id, src_ip, label = texts(row)
        label = label.strip()
        if labelled and not label:
            raise CsvFormatError(f"{path}: line {line}: empty Label")
        codes.extend([_int_cell(path, line, name, cell, top) for (name, top), cell
                      in zip(_INT_COLUMNS.items(), ints(row))])
        timestamp, *cells = numbers(row)
        try:
            values = list(map(float, cells))
        except ValueError:
            values = [_number(path, line, name, cell)
                      for name, cell in zip(CONTINUOUS_NAMES[1:], cells)]
        continuous.append(_parse_timestamp(timestamp))
        continuous.extend(values)
        flow_ids.append(flow_id)
        src_ips.append(src_ip)
        labels.append(label)

    # the arrays' own buffers, not copies of them
    integers = np.frombuffer(codes, np.int64).reshape(-1, len(_INT_COLUMNS))
    matrix = np.frombuffer(continuous, np.float64).reshape(-1, len(CONTINUOUS_NAMES))
    with np.errstate(over="ignore"):
        # whole microseconds, as a capture's times; + 0.0 turns -0 into 0
        matrix[:, 0] = (np.round(matrix[:, 0] * 1e6) + 0.0) / 1e6
    nonfinite = ~np.isfinite(matrix)
    matrix[nonfinite] = 0.0
    table = FlowTable(flow_id=flow_ids, src_ip=src_ips, src_port=integers[:, 2],
                      categoricals=integers[:, :2], continuous=matrix, labels=labels)
    return table, int(nonfinite.sum())


def _number(path, line: int, name: str, cell: str) -> float:
    """A continuous cell's value; NaN, to be cleaned, for an empty cell."""
    if not cell.strip():
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise CsvFormatError(f"{path}: line {line}: bad value {cell.strip()!r} "
                             f"in column {name!r}") from None


def _int_cell(path, line: int, name: str, cell: str, top: int) -> int:
    """An integer cell's value, truncated toward zero, which must lie in
    0..top; a cell that is not a number reads as 0."""
    try:
        value = float(cell)
    except ValueError:
        return 0
    if value != value:
        return 0
    if not -1 < value < top + 1:
        raise CsvFormatError(f"{path}: line {line}: {name} {cell.strip()!r} "
                             f"is outside 0-{top}")
    return int(value)
