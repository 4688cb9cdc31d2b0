"""The benchmark harness against this checkout's package.

``perfbench/`` imports and wraps names of ``cardiosleep`` (for example
``pipeline.matrix_to_sequence``, ``registry.NormStats`` and
``features_resp.cpc_spectrum``). Its self-check runs every workload and the
traced profile at a tiny size, so removing or renaming such a name fails here
rather than in a benchmark run. It runs on a copy of the harness, so that the
suite leaves the working directory of benchmark runs, ``perfbench/.work/``,
alone.
"""
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_selfcheck_passes(tmp_path):
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(REPO / "src")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--selfcheck"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "selfcheck: ok" in proc.stdout
    assert (tmp_path / "perfbench" / ".work").is_dir()
