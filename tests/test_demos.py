"""Every narrative script under demos/ runs to completion against the
package as it stands, so a renamed or removed public name cannot break a
demo unnoticed."""

import subprocess
import sys

import pytest

from conftest import PYTHON_FLAGS, ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, *PYTHON_FLAGS, str(demo)], cwd=ROOT,
                          env=src_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
