"""Smoke tests of the benchmark at tiny sizes.

    python -m pytest perfbench -q
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import mallows  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's rep and the set-up sample to a few calls."""
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.Pool, "ROWS", 300)
    monkeypatch.setattr(workloads.Deep, "ROWS", 10)
    monkeypatch.setattr(workloads.CliSample, "COUNT", 5)
    monkeypatch.setattr(workloads.Laws, "STRATA", 1)
    monkeypatch.setattr(workloads.Laws, "BOX", workloads.Laws.BOX[:12])


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(table)
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    # the pooled TV check needs ~10^5 rows, far more than one tiny pool rep
    if workload != "pool":
        assert result["correct"]


def test_traced_run_restores_every_wrapper(tiny):
    modules = tracing.package_modules()
    namespaces = [m for n, m in sys.modules.items() if n.startswith("mallows")]
    before = {(id(ns), attr): obj for ns in namespaces for attr, obj in vars(ns).items()}
    stream_before = dict(vars(mallows.GeomStream))
    original = mallows.samplers.sample_young_euler

    tracer = tracing.Tracer()
    tracer.install(modules, namespaces)
    try:
        assert hasattr(mallows.cli.sample_two_sided_interlacing, tracing.MARK)
        assert hasattr(mallows.sample_young_euler, tracing.MARK)
        assert hasattr(mallows.GeomStream.uniform, tracing.MARK)
        workloads.CliSample(0).run(0)
    finally:
        tracer.restore()

    after = {(id(ns), attr): obj for ns in namespaces for attr, obj in vars(ns).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert dict(vars(mallows.GeomStream)) == stream_before
    assert tracing.leftover_wrappers(namespaces) == []
    assert mallows.samplers.sample_young_euler is original
    spans = {k: list(v) for k, v in tracer.agg.items()}
    assert any(name == "cli.main" for name, _ in spans)
    # the untraced path calls the originals: nothing more is recorded
    workloads.CliSample(0).run(1)
    assert {k: list(v) for k, v in tracer.agg.items()} == spans


def test_raising_evaluation_is_counted_not_propagated(tiny, monkeypatch):
    def broken(p, radius):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(mallows.dist, "displacement_pmf", broken)
    wl = workloads.Laws(0)
    rep = wl.run(0)
    n_q = workloads.Laws.STRATA + len(workloads.Laws.NEAR_ONE)
    assert rep.failed >= n_q
    assert wl.errors["ZeroDivisionError"] >= n_q
    assert rep.ops == n_q * (2 + len(workloads.Laws.BOX))
    wl.absorb(rep)
    assert not any("pmf" in p for p in wl.problems)


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pool", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
