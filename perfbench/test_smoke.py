"""Smoke test of the benchmark itself on tiny fields (m <= 5).

It checks that every metric named in BENCHMARK.json is reported with its
unit and that the checks pass and fail as they should; it sets no timing
thresholds.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_M = {"rs255_stream": 4, "counted_m10": 5, "batch_m11": 5}


def tiny(name):
    return dataclasses.replace(bench.WORKLOADS[name], m=TINY_M[name], setups=2)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY_M))
def test_tiny_workload_reports_every_metric(name, trace, tmp_path):
    result, lines, first_failure = bench.run(tiny(name), 3, 0.2, trace, out_dir=tmp_path)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert first_failure is None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(line.startswith("mismatch_frac 0 ") for line in lines)
    if trace:
        spans = json.loads((tmp_path / f"spans-{name}-seed3.json").read_text())
        assert spans["spans"] and spans["env"]["seed"] == 3
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_exactly_for_a_seed():
    runs = [bench.run(tiny("counted_m10"), 5, 0.1, False)[0]["metrics"] for _ in range(2)]
    for name in ("mults_per_vector", "adds_per_vector"):
        assert runs[0][name] == runs[1][name]


def test_mismatch_is_reported(monkeypatch):
    oracle = bench.reference.naive_dft_batch

    def corrupted(vectors, ctx):
        out = oracle(vectors, ctx)
        out[0][1] ^= 1
        return out

    monkeypatch.setattr(bench.reference, "naive_dft_batch", corrupted)
    result, _, first = bench.run(tiny("rs255_stream"), 3, 0.1, False)
    assert not result["correct"] and result["failed"] > 0
    assert first["workload"] == "rs255_stream" and first["seed"] == 3
    assert first["vector_index"] == 0 and first["output_index"] == 1
    assert first["expected"] == first["actual"] ^ 1


def test_count_cross_check_fails_the_run(monkeypatch):
    naive_adds = bench.algorithms.stage2_naive_adds
    monkeypatch.setattr(bench.algorithms, "stage2_naive_adds", lambda plan: naive_adds(plan) + 1)
    result, _, first = bench.run(tiny("counted_m10"), 3, 0.1, False)
    assert not result["correct"]
    assert first["reason"] == "count cross-check"


def test_raising_call_is_a_failure(monkeypatch):
    apply = bench.algorithms.apply

    def raising(plan, *args, **kw):
        if isinstance(plan, bench.algorithms.GoertzelPlan):
            raise RuntimeError("boom")
        return apply(plan, *args, **kw)

    monkeypatch.setattr(bench.algorithms, "apply", raising)
    result, _, first = bench.run(tiny("rs255_stream"), 3, 0.1, False)
    assert not result["correct"] and result["failed"] > 0
    assert first["tag"] == "goertzel" and first["reason"] == "raised"
    assert "RuntimeError: boom" in first["traceback"]


def test_host_clock_scales_by_the_probe(monkeypatch):
    monkeypatch.setattr(hostclock, "probe", lambda: 2 * hostclock.PROBE_REF_S)
    clock = hostclock.HostClock()
    out, wall, ref, raised = clock.timed(lambda: 7)
    assert out == 7 and not raised and ref == pytest.approx(wall / 2)
    assert clock.speed() == pytest.approx(0.5)
    out, _, _, raised = clock.timed(lambda: 1 / 0)
    assert raised and isinstance(out, ZeroDivisionError)
