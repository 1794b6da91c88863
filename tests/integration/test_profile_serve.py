"""``tools/profile_serve.py`` (``make profile-serve``) runs and reports.

The smoke-size replay in a subprocess, as ``make`` runs it: every
request of the benchmark's serve-stream schedule is answered, and the
report carries the per-op times, the memory after each advance and the
retained allocation sites.
"""

import os
import re
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
TOOL = os.path.join(REPO_ROOT, "tools", "profile_serve.py")


def test_smoke_replay_profile():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, TOOL, "--smoke", "--top", "5"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = proc.stdout
    assert "3 advances" in out and " 0 failed" in out
    for op in ("advance", "predict", "rank", "score", "forecast"):
        assert f"    {op} " in out
    assert out.count("facts  VmHWM") == 3
    assert len(re.findall(r"entries \d+/\d+/\d+", out)) == 3
    assert "load dataset directory" in out and "use_store_file" in out
    assert "digests: responses" in out
    assert "source lines by bytes retained" in out
