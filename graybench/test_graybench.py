"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest graybench -q``.
Each workload runs in-process with the companion-sized inputs (whose
pins are committed), and its result line is checked against
BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import campaign_wl  # noqa: E402
import explore_wl  # noqa: E402
import run  # noqa: E402
import service_wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at its companion size, from the repository root."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(campaign_wl, "BATCH_TRIALS", campaign_wl.COMPANION_TRIALS)
    monkeypatch.setattr(campaign_wl, "SETUP_REPEATS", 1)
    monkeypatch.setattr(campaign_wl, "COMPANION_BATCHES", 1)
    once = tuple(phase[:4] + (1,) for phase in explore_wl.PHASES["companion"])
    monkeypatch.setattr(explore_wl, "PHASES", {"full": once, "companion": once})
    monkeypatch.setattr(explore_wl, "SETUP_REPEATS", 1)
    monkeypatch.setattr(service_wl, "SETUP_SPAWNS", 1)
    monkeypatch.setattr(service_wl, "COMPANION", (0, 1))
    monkeypatch.setattr(service_wl, "TRACE_REFERENCE", (40, 1))
    monkeypatch.setattr(service_wl, "budgets", lambda seconds: (40, 1))
    monkeypatch.setattr(service_wl, "CHUNK", 20)
    monkeypatch.setattr(service_wl, "WARMUP_OPS", 5)
    monkeypatch.setattr(service_wl, "ROUND_OPS", 20)
    pins = json.loads((HERE / "pins.json").read_text())
    pins["campaign_ra8"]["full"] = pins["campaign_ra8"]["companion"]
    pins["explore_ra4"]["full"] = pins["explore_ra4"]["companion"]
    pin_dir = ROOT / ".graybench_tmp" / "test-pins"
    pin_dir.mkdir(parents=True, exist_ok=True)
    (pin_dir / "pins.json").write_text(json.dumps(pins))
    monkeypatch.setattr(run, "HERE", pin_dir)
    yield pin_dir
    shutil.rmtree(pin_dir, ignore_errors=True)


def _result(capsys) -> tuple[dict | None, str]:
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return last, out


def _argv(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace)]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(tiny, capsys, workload):
    assert run.main(_argv(workload, 0)) == 0
    result, _ = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(tiny, capsys, workload):
    assert run.main(_argv(workload, 1)) == 0
    result, _ = _result(capsys)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert result["failed"] == 0


def test_clean_service_run_has_no_failed_acquires(tiny, capsys):
    assert run.main(_argv("service_ra3", 0)) == 0
    result, out = _result(capsys)
    assert result["failed"] == 0
    assert "backlog" in out


@pytest.mark.parametrize(
    "workload, path",
    [
        ("explore_ra4", ("explore_ra4", "full", "sym", "digest")),
        ("campaign_ra8", ("campaign_ra8", "full", "digest")),
    ],
)
def test_corrupted_pin_exits_nonzero_without_result(
    tiny, capsys, workload, path
):
    pins_file = tiny / "pins.json"
    pins = json.loads(pins_file.read_text())
    node = pins
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "0" * len(node[path[-1]])
    pins_file.write_text(json.dumps(pins))
    assert run.main(_argv(workload, 0)) == 1
    result, _ = _result(capsys)
    assert result is None


def test_without_sources_exits_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(_argv("explore_ra4", 0)) == 2
    assert _result(capsys)[0] is None
