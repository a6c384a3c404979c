"""Smoke test of the benchmark: tiny sizes of every workload.

Run from the repository root with:

    python3 -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced at --smoke sizes; the test checks
that every metric BENCHMARK.json names is printed with its unit and that
the output checks pass.  It also checks that the tracer fails loudly on
a missing or never-called target, and that the benchmark refuses to run
without the library source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload: str, trace: int) -> None:
    out = run_bench(
        ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and value == value
        assert f"# metric {name} {value!r} {unit}\n" in out.stdout
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in units)


def test_refuses_to_run_without_library(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", "error_eval", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_fails_on_missing_target(monkeypatch) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    bogus = tracer.Target("grid", "emdheat.grid", "renamed_away")
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (bogus,))
    t = tracer.Tracer()
    with pytest.raises(tracer.TraceError, match="renamed_away"):
        t.install()
    # a failed install leaves nothing patched
    assert not t._undo


def test_tracer_fails_on_target_never_called() -> None:
    calls = {"emd.emd": 1}
    tracer.require_called(("emd.emd",), calls)
    with pytest.raises(tracer.TraceError, match="emd.emd_norm"):
        tracer.require_called(("emd.emd", "emd.emd_norm"), calls)
    with pytest.raises(tracer.TraceError, match="not traced"):
        tracer.require_called(("emd.no_such_function",), calls)
