"""Self-tests of the sweep benchmark at a tiny size.

Run with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import sweep

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "nonregular-small": replace(sweep.WORKLOADS["nonregular-small"], primes=(3, 5), samples=2),
    "regular-p1009": replace(sweep.WORKLOADS["regular-p1009"], primes=(7,), samples=3),
    "falsify-small": replace(sweep.WORKLOADS["falsify-small"], primes=(3, 5), samples=2),
}
TINY = {name: replace(w, trace_chunks=2, min_elements=4) for name, w in TINY.items()}


def child(phase: str, workload: str, seed: int = 7) -> dict:
    return sweep.main({"workload": workload, "phase": phase, "seed": seed, "seconds": 0}, TINY)


def record(verdict: str) -> str:
    return json.dumps({**dict.fromkeys(sweep.REPORT_FIELDS, 0), "verdict": verdict}) + "\n"


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_name_and_unit_is_present(workload, tmp_path, monkeypatch):
    result = child("sweep", workload)
    assert result["failed"] == 0 and result["attempted"] >= 4
    values, counts, raw = run.end_to_end_values([result], result)
    assert values.keys() == counts.keys() == {m["name"] for m in SPEC["end_to_end"]}
    assert raw.keys() < values.keys()
    metrics = run.with_units(values, SPEC["end_to_end"])
    assert all(metric["unit"] and metric["value"] > 0 for metric in metrics.values())

    monkeypatch.setattr(sweep, "OUT_DIR", tmp_path)
    traced = child("trace", workload)
    assert traced["failed"] == 0 and traced["stream_sha256"] == result["stream_sha256"]
    assert traced["per_layer"].keys() == {m["name"] for m in SPEC["per_layer"]}
    assert run.with_units(traced["per_layer"], SPEC["per_layer"]).keys() == run.LAYER_MAP.keys()
    assert traced["per_layer"]["torus.sample_regular.calls"] > 0
    assert (tmp_path / f"spans-{workload}-seed7.jsonl").stat().st_size > 0
    # every wrapper was taken out again
    from sl2endo import cli, cyclotomic

    assert not hasattr(cli.run, "__wrapped__")
    assert not hasattr(cli.sample_regular, "__wrapped__")
    assert not hasattr(cyclotomic.CycNumber.__add__, "__wrapped__")


def test_gate_counts_unequal_and_missing_records():
    workload = TINY["nonregular-small"]  # four planned elements per chunk
    stream = sweep.ReportStream("equal", 1)
    for verdict in ("equal", "unequal", "equal"):
        stream.write(record(verdict))
    stream.end_chunk()
    failed = sweep.chunk_failures(workload, stream.elements, stream.bad_elements, 1,
                                  "verify: 2 equal, 1 unequal, 0 skipped\n")
    assert (stream.records, stream.bad_elements, failed) == (3, 1, 2)
    assert failed / workload.elements_per_chunk > 0


def test_gate_fails_a_clean_stream_with_a_wrong_summary():
    workload = TINY["falsify-small"]
    stream = sweep.ReportStream("unequal", 2)
    for _ in range(2 * workload.elements_per_chunk):
        stream.write(record("unequal"))
    args = (workload, stream.elements, stream.bad_elements)
    assert sweep.chunk_failures(*args, 0, "falsify: 8 checks, 8 unequal as expected,"
                                " 0 unexpectedly equal\n") == 0
    assert sweep.chunk_failures(*args, 0, "") == 1
    assert sweep.chunk_failures(*args, 1, "falsify: 8 checks, 8 unequal as expected,"
                                " 0 unexpectedly equal\n") == 1


def test_one_seed_gives_one_stream_digest():
    first = child("sweep", "falsify-small", seed=3)
    again = child("sweep", "falsify-small", seed=3)
    other = child("sweep", "falsify-small", seed=4)
    assert first["stream_sha256"] == again["stream_sha256"] != other["stream_sha256"]


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "nonregular-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
