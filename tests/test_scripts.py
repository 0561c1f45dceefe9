import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["noise_sweep.py", "boost_sweep.py"])
def test_experiment_script_runs(script):
    result = subprocess.run([sys.executable, str(SCRIPTS / script)], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout


@pytest.mark.parametrize("workload", ["lib_recover", "lib_simulate"])
def test_paired_timing_of_the_tree_against_itself(workload):
    # a smoke run: both trees answer every set of 20 blocks, and the same tree answers alike
    result = subprocess.run([sys.executable, str(SCRIPTS / "paired_timing.py"), SRC, SRC, "--workload", workload,
                             "--blocks", "20"], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "answers differing between the trees: 0" in result.stdout.splitlines()
