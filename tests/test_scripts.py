"""Smoke tests: the example scripts run end to end at toy size."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_recovery_benchmark_prints_every_family(tmp_path):
    proc = run_script("recovery_benchmark.py", "--discrete", "--rows", "2000", "--seeds", "3",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert {row[0] for row in rows} == {"SUCCESSIVE", "PRODUCT", "PLUGIN"}
    assert len(rows) == 12


def test_synthetic_study_writes_its_four_artifacts(tmp_path):
    proc = run_script("run_synthetic_study.py", "--discrete", "--rows", "2000",
                      "--outdir", str(tmp_path / "study"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    for name in ("cohort.csv", "config.json", "report.json", "table.txt"):
        assert (tmp_path / "study" / name).stat().st_size > 0, name
    report = json.loads((tmp_path / "study" / "report.json").read_text(encoding="utf-8"))
    assert [run.get("error") for run in report["runs"]] == [None] * 7
