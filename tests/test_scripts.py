import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["noise_sweep.py", "boost_sweep.py"])
def test_experiment_script_runs(script):
    result = subprocess.run([sys.executable, str(SCRIPTS / script)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
