"""Deterministic CSV / JSON tables for every command, plus sidecars.

write_table serializes a list of row dicts.  ConvergenceReport holds the
shared row shape of epsilon sweeps against a limiting value, the delta-lemma
check, and the independence probe (there the limit column is 0, so rel_err
is nan in CSV and null in JSON), and writes itself through write_table.
Float cells are written with repr, which is shortest-roundtrip in Python 3,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from typing import Mapping

CSV_COLUMNS = ["epsilon", "n", "value_re", "value_im", "limit_re", "limit_im", "abs_err", "rel_err", "warnings"]


def write_table(path: str, fmt: str, rows: list[dict], metadata: dict, kind: str | None = None) -> None:
    """Write rows as CSV (header from the first row's keys) or as JSON
    {"metadata", "rows"}, with a "kind" key when one is given."""
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0]) if rows else []
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in (row[k] for k in header)])
        text = buf.getvalue()
    elif fmt == "json":
        doc = {"metadata": metadata, "rows": rows}
        if kind is not None:
            doc["kind"] = kind
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    value: complex
    limit: complex
    warnings: tuple[str, ...] = ()
    breakdown: Mapping[str, complex] = field(default_factory=dict)

    @property
    def abs_err(self) -> float:
        return abs(self.value - self.limit)

    @property
    def rel_err(self) -> float:
        scale = abs(self.limit)
        return self.abs_err / scale if scale > 0 else math.nan


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    kind: str
    rows: tuple[SweepRow, ...]
    metadata: dict

    def _csv_row(self, row: SweepRow) -> dict:
        cells = [
            float(row.epsilon),
            self.metadata.get("n", ""),
            row.value.real,
            row.value.imag,
            row.limit.real,
            row.limit.imag,
            row.abs_err,
            row.rel_err,
            ";".join(row.warnings),
        ]
        return dict(zip(CSV_COLUMNS, cells))

    @staticmethod
    def _json_row(row: SweepRow) -> dict:
        return {
            "epsilon": row.epsilon,
            "value": [row.value.real, row.value.imag],
            "limit": [row.limit.real, row.limit.imag],
            "abs_err": row.abs_err,
            # JSON has no NaN; a zero limit leaves rel_err undefined
            "rel_err": None if math.isnan(row.rel_err) else row.rel_err,
            "breakdown": {k: [v.real, v.imag] for k, v in sorted(row.breakdown.items())},
            "warnings": list(row.warnings),
        }

    def write(self, path: str, fmt: str = "csv") -> None:
        to_row = self._json_row if fmt == "json" else self._csv_row
        write_table(path, fmt, [to_row(row) for row in self.rows], self.metadata, kind=self.kind)


def write_sidecar(path: str, metadata: dict) -> str:
    """Write the run's metadata next to its table as path + ".meta.json".

    The CLI's metadata holds the command, the config path (or
    "builtin-default"), the package version and the command's own inputs,
    such as its epsilons or sizes."""
    sidecar = path + ".meta.json"
    with open(sidecar, "w") as fh:
        json.dump(metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
