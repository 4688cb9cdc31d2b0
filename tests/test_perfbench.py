"""The benchmark harness against this checkout's package.

``perfbench/`` imports and wraps names of ``cardiosleep`` (for example
``pipeline.matrix_to_sequence``, ``registry.NormStats`` and
``features_resp.cpc_spectrum``). Its self-check runs every workload and the
traced profile at a tiny size, so removing or renaming such a name fails here
rather than in a benchmark run.
"""
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selfcheck"],
                          cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "selfcheck: ok" in proc.stdout
