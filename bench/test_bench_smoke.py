"""Smoke test of the benchmark: every workload, the oracle check and the
trace run at tiny sizes, so that the harness cannot rot unnoticed."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from oracle import kilbas_saigo_reference  # noqa: E402


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=root, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["cli-session", "verify-fine", "ks-sweep"])
def test_smoke_run_prints_declared_metrics(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", trace,
                     "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_frac = " in proc.stdout and "silent_wrong_frac = " in proc.stdout


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "ks-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_matches_closed_forms():
    # E_{1,1,0}(z) = exp(z); E_{1/2,1,0}(z) = exp(z^2) erfc(-z); E_{2,1,0}(-x^2) = cos(x).
    assert kilbas_saigo_reference((1.0, 1.0, 0.0), [complex(-3.0), complex(2.0, 1.0)]) == pytest.approx(
        [math.exp(-3.0), complex(math.exp(2.0) * math.cos(1.0), math.exp(2.0) * math.sin(1.0))], rel=1e-15)
    assert kilbas_saigo_reference((0.5, 1.0, 0.0), [complex(-8.0)])[0] == pytest.approx(
        math.exp(64.0) * math.erfc(8.0), rel=1e-13)
    assert kilbas_saigo_reference((2.0, 1.0, 0.0), [complex(-4.0)])[0] == pytest.approx(math.cos(2.0), rel=1e-15)
