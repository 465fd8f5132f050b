"""The file codecs: the one CSV codec for the tables cpseq reads and writes
(datasets, query lists, per-run metrics, campaign summaries, the calibration
report), the field reader for its JSON files (artifacts, run sidecars), and
the checks of the numeric settings those files and the campaign config hold.

A table is a list of dataclass rows; its header is the row class's field
names. Cells are written as: ``None`` → empty, ``float`` → ``repr`` (so values
read back exactly), anything else → ``str``; lines end with ``\\n``. A row
with too few or too many cells, a cell its field type rejects, or a row over
several lines (a quoted cell holding a line break) raises ValueError naming the
file and the line; one for a missing or malformed JSON field names the file and the key.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Callable, Sequence, TypeVar, get_args, get_type_hints

import numpy as np

Row = TypeVar("Row")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too, whose own repr reads "np.float64(...)"
        return repr(float(value))
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
        for line, cells in enumerate(reader, start=2):  # a table puts each row on one line, as write_table does
            if reader.line_num != line:
                raise ValueError(f"{path}:{line}: a quoted cell holds a line break, so the row spans several lines")
            if len(cells) != len(names):
                raise ValueError(f"{path}:{line}: expected {len(names)} cells, got {len(cells)}")
            try:
                rows.append(row_type(*(parse(cell) for parse, cell in zip(parsers, cells))))
            except ValueError as err:
                raise ValueError(f"{path}:{line}: {err}") from None
    return rows


def json_field(payload, key: str, convert: Callable):
    """``convert(payload[key])``; raises ValueError naming the key when it is missing or convert rejects it."""
    if not isinstance(payload, dict) or key not in payload:
        raise ValueError(f"missing key {key!r}")
    try:
        return convert(payload[key])
    except (TypeError, ValueError) as err:
        raise ValueError(f"key {key!r}: {err}") from None


def read_json(path: str | Path, from_json_dict: Callable):
    """``from_json_dict`` of the JSON file at path; its ValueError names the file."""
    try:
        return from_json_dict(json.loads(Path(path).read_text()))
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def check_integer(name: str, value) -> None:
    """Raises ValueError naming the setting unless ``value`` is an integer; a bool is not, a numpy integer is."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_count(name: str, value) -> None:
    """Raises ValueError naming the setting unless ``value`` is an integer (as :func:`check_integer`) of at least 1."""
    check_integer(name, value)
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def check_seed(name: str, value) -> None:
    """Raises ValueError naming the setting unless ``value`` is an integer (as :func:`check_integer`) of at least 0."""
    check_integer(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0")


def check_positive(name: str, value: float) -> None:
    """Raises ValueError naming the setting unless ``value`` is positive (NaN is not) and finite."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0")
    if value == np.inf:
        raise ValueError(f"{name} must be finite")
