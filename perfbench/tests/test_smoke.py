"""Reduced-size runs of every workload end with no failed call."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as W

SMALL = [
    W.SweepFine(bins=640, epsilons=(0.1, 0.05)),
    W.IndependenceFar(bins=320, epsilons=(0.2, 0.1)),
    W.WnOrder5(k=3),
    W.MomentsDeep(moments=6),
]


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_small_run_has_no_failures(workload):
    record = run.run_workload(workload, seed=7, seconds=0.0, trace=False, setup_repeats=1, min_rounds=1)
    assert record["attempted"] == workload.calls_per_round
    assert record["failed"] == 0, record["problems"]
    result = run.result_line(record, run.declared_units(trace=False))
    assert result["correct"] and set(result["metrics"]) == {"setup_s", "cmd_cal", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_declared_layer_metric():
    record = run.run_workload(SMALL[0], seed=7, seconds=0.0, trace=True, min_rounds=2)
    assert record["failed"] == 0, record["problems"]
    result = run.result_line(record, run.declared_units(trace=True))
    metrics = result["metrics"]
    assert metrics["finite_eps.matmuls"]["value"] == 2 * 4
    assert metrics["finite_eps.factor_reuse"]["value"] == 0.5
    assert metrics["symbols.fourier.calls"]["value"] == 2 * 6


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "wn-order5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_warm_up_and_repeat_stay_out_of_the_timed_samples(monkeypatch):
    seen = []
    real = run.invoke

    def spy(cli, call):
        seen.append([a for a in call.argv if not a.startswith(str(run.TMP_DIR))])
        return real(cli, call)

    monkeypatch.setattr(run, "invoke", spy)
    record = run.run_workload(W.MomentsDeep(moments=6), seed=7, seconds=0.0, trace=False, setup_repeats=1, min_rounds=2)
    warm, first, repeat, second = seen
    assert repeat == first, "the first timed input is repeated right after its timed call"
    assert warm not in (first, second) and first != second, "every timed call gets fresh inputs"
    assert len(record["samples"]["cmd_s"]) == 2 and record["failed"] == 0
