"""``tools/profile_train.py`` (``make profile-train``) runs and attributes.

One warm epoch under cProfile, in a subprocess as ``make`` runs it.  The
default LogCL step must show its Eq. 4 / Eq. 12 R-GCN layers and its
Eq. 18 decoder as the fused kernels, so the profile names the code that
actually runs.
"""

import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
TOOL = os.path.join(REPO_ROOT, "tools", "profile_train.py")


def test_one_warm_epoch_profile():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, TOOL, "--epochs", "1", "--top", "60"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "icews14_like dim 32 window 3: 1 warm epoch(s)" in proc.stdout
    assert "(fused_relational_pass)" in proc.stdout
    assert "(fused_convtranse)" in proc.stdout
