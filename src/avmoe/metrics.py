"""Stable CSV serialization and atomic file writes for run artifacts, plus
Spearman rank correlation for measuring runs. The trainer does not use it;
the acceptance checks, tests and demos measure with it. There is no table
reader: each float cell is its ``repr``, so the ``csv`` module and
``float`` read it back as the same float64."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


class CsvError(ValueError):
    """Malformed CSV content."""


def spearman(x, y) -> float:
    """Pearson correlation of rank vectors, average ranks on ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError(f"need two equal-length vectors of size >= 2, got {x.shape}, {y.shape}")
    rx, ry = _average_ranks(x), _average_ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks of ``v``; each run of equal values shares the mean of
    its ranks."""
    order = np.argsort(v, kind="stable")
    ordered = v[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], v.size] - 1
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


@dataclass
class CsvTable:
    """Header plus homogeneous rows; numeric cells round-trip bit-exactly."""

    header: list[str]
    rows: list[list] = field(default_factory=list)

    def append(self, row: list):
        if len(row) != len(self.header):
            raise CsvError(f"row has {len(row)} cells, header has {len(self.header)}")
        self.rows.append(list(row))

    def column(self, name: str) -> list:
        idx = self.header.index(name)
        return [r[idx] for r in self.rows]

    def __len__(self):
        return len(self.rows)


def _format_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)  # shortest string that round-trips float64
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, np.floating):
        return repr(float(v))
    return str(v)


@contextmanager
def atomic_open(path: str):
    """Open a text file whose contents replace ``path`` whole, or not at
    all: writes go to a temp file in the same directory, renamed over
    ``path`` when the block exits without an error. The file gets the mode
    ``open(path, "w")`` gives a new file (0o666 less the umask)."""
    path = os.path.abspath(path)
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    # unlike tempfile.mkstemp's fixed 0o600, this mode goes through the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_table(table: CsvTable, path: str):
    """Atomic whole-file write of ``table`` as CSV."""
    lines = [",".join(table.header)]
    for row in table.rows:
        if len(row) != len(table.header):
            raise CsvError(f"row width {len(row)} != header width {len(table.header)}")
        lines.append(",".join(_format_cell(v) for v in row))
    with atomic_open(path) as f:
        f.write("\n".join(lines) + "\n")

