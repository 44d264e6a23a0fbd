"""The benchmark's own correctness gate, run on a copy of the checkout."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["pp_fit", "pp_predict", "smooth_fit",
                                      "bench_m2"])
def test_perfbench_reports_correct_with_no_failed_op(tmp_path, workload):
    # perfbench/run.py checks what every op writes: the model bytes and
    # the quick-benchmark report bytes against perfbench/pins.json where
    # the pins apply, and scaled errors below 1.  It runs in a copy of
    # src/ and perfbench/, so its .perfbench/ results stay out of the
    # checkout.
    for name in ("src", "perfbench"):
        shutil.copytree(REPO / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
