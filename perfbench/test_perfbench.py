"""Quick tests of the benchmark harness at tiny problem sizes.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _owners():
    from repro.kernels import get_backend

    backend = type(get_backend())
    return [
        (backend if owner == spans.BACKEND else spans._resolve(owner), attr)
        for _, owner, attr, _ in spans.LAYERS
    ]


def _snapshot():
    return [(attr in vars(owner), vars(owner).get(attr)) for owner, attr in _owners()]


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_workload_emits_every_metric(name, tmp_path):
    result, info = run.measure(name, 1, 0.1, True, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert info["failed_frac"] == 0.0

    before = _snapshot()
    result, info = run.measure_traced(name, 1, 0.1, True, tmp_path)
    assert _snapshot() == before
    assert result["correct"] and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["trace.residual_s"] == pytest.approx(metrics["trace.wall_s"])
    assert 0 <= metrics["trace.residual_s"] < 0.05 * metrics["trace.wall_s"]


def test_restore_puts_back_every_attribute():
    before = _snapshot()
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    patched = _snapshot()
    assert all(has and value is not old for (has, value), (_, old) in zip(patched, before))
    tracer.restore()
    after = _snapshot()
    assert [has for has, _ in after] == [has for has, _ in before]
    assert all(new is old for (_, new), (_, old) in zip(after, before))


def test_layer_table_self_time_and_calls():
    tracer = spans.Tracer()
    # outer(10) > [inner(3) > same-name inner(1)], other(2)
    tracer.spans = [
        ("b", 1.0, 2.0, 2),
        ("b", 0.0, 3.0, 1),
        ("c", 4.0, 6.0, 1),
        ("a", 0.0, 10.0, 0),
    ]
    table = tracer.layer_table()
    assert table["a"] == {"self_s": 5.0, "calls": 1}
    assert table["b"] == {"self_s": 3.0, "calls": 1}
    assert table["c"] == {"self_s": 2.0, "calls": 1}


def test_main_prints_result_last(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    assert run.main(["--workload", "kconn", "--seconds", "0.1", "--tiny"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    env = json.loads(lines[0])
    assert env["info"] == "env" and "numba" in env and env["calibration"]
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}


def test_fails_without_program_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_this_harness():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.per_layer_units())
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)
    assert run.HERE.name in BENCHMARK["paths"]
