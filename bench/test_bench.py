"""
Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, workload: str, trace: int):
    cmd = SPEC["command"][1:] + [
        "--workload", workload, "--seed", "0", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(
        [sys.executable] + cmd, cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_a_dropped_letter_is_a_failure(monkeypatch):
    from artingeo.shortlex import ShortlexEngine

    nf = ShortlexEngine.nf
    monkeypatch.setattr(ShortlexEngine, "nf", lambda self, w: nf(self, w)[:-1])
    wl = workloads.NfLong("tiny", workloads.DEFAULT_SEED)
    records = worker.timed_untraced(wl, 0.0)
    failures = worker.check(wl, records, workloads.load_reference("tiny")["nf-long"])
    assert len(failures) == len(records)


def test_a_changed_scan_row_is_a_failure():
    wl = workloads.D2Merge("tiny", 3)
    records = worker.timed_untraced(wl, 0.0)
    records[0]["summary"] = dict(records[0]["summary"], digest="0" * 16)
    failures = worker.check(wl, records, workloads.load_reference("tiny")["d2-merge"])
    assert len(failures) == 1


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_outputs_are_identical(workload):
    from artingeo.shortlex import ShortlexEngine

    wl = workloads.WORKLOADS[workload]("tiny", 5)
    plain, _ = worker.run_cycle(wl, 0)
    tracer = Tracer()
    append = ShortlexEngine.append
    with tracer.installed(), tracer.cycle():
        assert ShortlexEngine.append is not append
        traced, _ = worker.run_cycle(wl, 0, tracer)
    assert ShortlexEngine.append is append
    assert [r["summary"] for r in traced] == [r["summary"] for r in plain]
    assert all("error" not in r for r in plain + traced)
    calls = tracer.totals()
    assert sum(c for c, _s in calls.values()) > len(traced)


def test_self_times_add_up_to_the_cycle():
    wl = workloads.BallD1("tiny", 0)
    tracer = Tracer()
    with tracer.installed(), tracer.cycle():
        worker.run_cycle(wl, 0, tracer)
    total = sum(s for _c, s in tracer.totals().values())
    assert total == pytest.approx(tracer.cycle_seconds, rel=1e-9)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    proc = bench(tmp_path, NAMES[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
