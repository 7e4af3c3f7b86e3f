import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,header",
    [
        ("run_threshold_scan.py", "family,d,cbar,l1_g0pp,beta_max_fcond,beta_max_alt9,beta_max_alt11"),
        ("run_hessian_sweep.py", "beta,beta_over_threshold,u_1,min_eig,bound,margin,verdict"),
    ],
)
def test_script_writes_csv(script, header, tmp_path):
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().splitlines()[0] == header
