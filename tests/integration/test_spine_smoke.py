"""The benchmark spine cannot rot, and the docs cannot drift from it.

``benchmarks/spine/`` is the one performance benchmark (``BENCHMARK.json``
is its contract), and nothing in ``src/`` imports it, so without a tier-1
guard an API change could break it unnoticed.  Two checks, both reading
the spine from outside — nothing is imported from it:

* one workload runs end to end as the driver runs it (a subprocess from
  the repo root; the run starts with the oracle's planted-error
  self-test, exit code 3 on a miss) and is correct;
* every number in ``docs/performance.md``'s "Measured" tables is a
  ``BENCHMARK.json`` metric and equals the committed row in
  ``benchmarks/results/spine/`` to the printed precision.
"""

import functools
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]
STAMP = {"cores", "affinity", "machine", "python", "numpy", "scipy", "numba",
         "commit", "seed", "seconds", "correct", "attempted", "failed"}


def test_one_workload_runs_and_is_correct():
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py",
         "--workload", "compile_suite", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] > 0
    assert list(last["metrics"]) == END_TO_END


# -- the committed rows and the table that quotes them ------------------------

@functools.cache
def committed(workload: str, trace: int) -> dict:
    path = (ROOT / "benchmarks" / "results" / "spine"
            / f"{workload}-seed0-trace{trace}.json")
    return json.loads(path.read_text())


def test_committed_rows_are_stamped_and_correct():
    docs = [committed(w, t) for w in WORKLOADS for t in (0, 1)]
    for doc in docs:
        assert STAMP <= set(doc)
        assert doc["correct"] is True and doc["failed"] == 0
        assert set(doc["rows"]) <= set(END_TO_END + PER_LAYER)
        assert set(END_TO_END) <= set(doc["rows"])
    # one run: one host, one commit
    assert len({(d["commit"], d["machine"], d["cores"]) for d in docs}) == 1


def measured_section() -> str:
    text = (ROOT / "docs" / "performance.md").read_text()
    start = text.index("\n## Measured\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end > 0 else None]


def quoted_numbers():
    """``(metric, workload, printed, trace)`` for every number in the
    section's tables: the end-to-end grid (one row per workload, one
    column per metric; untraced run) and the per-layer tables (``metric``
    / ``workload`` / ``value`` columns; traced run)."""
    names = re.compile(r"`([\w.]+)`")
    for block in re.findall(r"(?:^\|.*\n)+", measured_section(), re.M):
        header, _, *rows = [[c.strip() for c in line.strip("|\n").split("|")]
                            for line in block.splitlines()]
        for cells in rows:
            if header[0] == "workload":
                for head, printed in zip(header[1:], cells[1:]):
                    yield (names.search(head).group(1),
                           names.search(cells[0]).group(1), printed, 0)
            else:
                at = {h: cells[header.index(h)]
                      for h in ("metric", "workload", "value")}
                yield (names.search(at["metric"]).group(1),
                       names.search(at["workload"]).group(1), at["value"], 1)


def test_every_measured_number_is_a_committed_row():
    quoted = list(quoted_numbers())
    grid = {(m, w) for m, w, _, trace in quoted if trace == 0}
    assert grid == {(m, w) for m in END_TO_END for w in WORKLOADS}
    assert any(trace == 1 for *_, trace in quoted)
    for metric, workload, printed, trace in quoted:
        assert metric in (PER_LAYER if trace else END_TO_END), metric
        value = committed(workload, trace)["rows"][metric]["value"]
        decimals = len(printed.partition(".")[2])
        assert f"{value:.{decimals}f}" == printed, (metric, workload, value)
    # the caption names the commit the rows were taken at
    assert committed(WORKLOADS[0], 0)["commit"][:7] in measured_section()
