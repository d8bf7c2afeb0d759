"""The benchmark records at the repository root: every `BENCH_*.json` parses and
holds what a speed claim is read from.

A record keeps the command it ran, the host line (with the BLAS thread count
the runs were pinned to), and per workload the seeds of its alternating
parent/change pairs, each side's median and interquartile range of every
end-to-end metric, and the pairs the change won; and the in-process timings
taken beside them.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def test_a_record_exists():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_the_fields_of_a_claim(path):
    record = json.loads(path.read_text())
    assert {"command", "host", "workloads", "in_process"} <= record.keys()
    assert {"blas_threads", "nproc", "numpy", "python"} <= record["host"].keys()
    assert record["workloads"] and record["in_process"]
    for name, runs in record["workloads"].items():
        seeds = runs["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds), name
        for side in ("parent", "change"):
            assert set(runs[side]) == METRICS, (name, side)
            for metric, stat in runs[side].items():
                assert {"median", "q1", "q3", "iqr"} <= stat.keys(), (name, side, metric)
                assert stat["q1"] <= stat["median"] <= stat["q3"], (name, side, metric)
                assert len(stat["runs"]) == len(seeds), (name, side, metric)
        assert set(runs["change_wins"]) == METRICS
        assert all(0 <= won <= len(seeds) for won in runs["change_wins"].values())
