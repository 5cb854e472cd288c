"""The benchmark's own spans: recorded around calls into each layer's
public functions, from outside ``src/``.

A span is ``{id, name, parent, workload, start, end}`` plus whatever
counters were read at its boundary.  Spans stay in memory and are written
as JSONL when the run ends.  A layer's *self time* is its span's duration
minus the part its child spans cover.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Spans:
    def __init__(self, workload: str):
        self.workload = workload
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        row = {"id": len(self.rows), "name": name,
               "parent": self._open[-1] if self._open else None,
               "workload": self.workload, "start": time.perf_counter()}
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Total self seconds per span name, over spans ``first`` onward."""
        rows = self.rows[first:]
        covered = {}
        for r in rows:
            if r["parent"] is not None:
                covered[r["parent"]] = (covered.get(r["parent"], 0.0)
                                        + r["end"] - r["start"])
        out: dict[str, float] = {}
        for r in rows:
            own = r["end"] - r["start"] - covered.get(r["id"], 0.0)
            out[r["name"]] = out.get(r["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(row) + "\n")


