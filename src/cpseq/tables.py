"""The one CSV codec for the tables cpseq writes: per-run metrics, the three
campaign summaries and the calibration report.

A table is a list of dataclass rows; its header is the row class's field
names. Cells are written as: ``None`` → empty, ``float`` → ``repr`` (so values
read back exactly), anything else → ``str``; lines end with ``\\n``.
"""

from __future__ import annotations

import csv
from dataclasses import fields
from pathlib import Path
from typing import Sequence, TypeVar, get_args, get_type_hints

Row = TypeVar("Row")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_table(path: str | Path, row_type: type, rows: Sequence) -> None:
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([_cell(getattr(row, name)) for name in names] for row in rows)


def _parser(hint):
    """Cell parser for a field type; an optional field (``T | None``) reads an empty cell as None."""
    args = get_args(hint)
    if type(None) in args:
        (inner,) = (a for a in args if a is not type(None))
        return lambda cell: inner(cell) if cell else None
    return hint


def read_table(path: str | Path, row_type: type[Row]) -> list[Row]:
    """Rows of a table written by :func:`write_table`; any line ending is accepted."""
    names = [f.name for f in fields(row_type)]
    hints = get_type_hints(row_type)
    parsers = [_parser(hints[name]) for name in names]
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != names:
            raise ValueError(f"{path}: header {header} does not match the {row_type.__name__} fields {names}")
        rows = []
        for cells in reader:
            if len(cells) != len(names):
                raise ValueError(f"{path}:{reader.line_num}: expected {len(names)} cells, got {len(cells)}")
            rows.append(row_type(*(parse(cell) for parse, cell in zip(parsers, cells))))
    return rows
