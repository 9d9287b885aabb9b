"""Smoke check for the benchmark: every workload at a reduced size.

Checks the output schema against BENCHMARK.json, the correctness checks
and the generator's promises; it makes no timing assertions. Run from the
repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from vopol import VOCABULARY, load_model, parse_policy_document, run_scenario, validate_model, validate_policies  # noqa: E402
from vopol.cli import model_symbols, parse_scenario  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SCALE = "0.2"


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_workloads_have_generators():
    assert {w["name"] for w in SPEC["workloads"]} <= set(gen.GENERATORS)


@pytest.mark.parametrize("name", list(gen.GENERATORS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(name, trace):
    proc = bench(ROOT, "--workload", name, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--scale", SMOKE_SCALE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_one_command_reports_every_workload():
    proc = bench(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0", "--trace", "0",
                 "--scale", SMOKE_SCALE)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [
        f"{name}/{m['name']}" for name in gen.GENERATORS for m in SPEC["end_to_end"]
    ]


@pytest.mark.parametrize("name", list(gen.GENERATORS))
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_generated_inputs_are_valid_and_replay_cleanly(name, seed):
    workload = gen.GENERATORS[name](seed, float(SMOKE_SCALE))
    assert workload == gen.GENERATORS[name](seed, float(SMOKE_SCALE))
    model = load_model(workload.model)
    assert validate_model(model) == []
    doc = parse_policy_document(workload.policies)
    errors = [d for d in validate_policies(doc, VOCABULARY, model_symbols(model)) if d.severity == "error"]
    assert errors == []
    events = parse_scenario(workload.scenario)
    assert len(events) == workload.sizes["events"]
    final, _, records = run_scenario(model, doc, events)
    assert [r for r in records if r.kind == "ERROR"] == []
    assert validate_model(final) == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
