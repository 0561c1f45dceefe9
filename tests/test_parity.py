import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SRC

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "parity.py"


def run_parity(parent, change, sets):
    return subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), "--sets", str(sets)],
                          capture_output=True, text=True, timeout=300)


def test_parity_of_the_tree_against_itself():
    result = run_parity(SRC, SRC, 200)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "recovery sets: 200 (seed 0)"
    assert "forward sets: 100, simulate texts differing 0" in lines
    assert "cli processes: 17, differing 0" in lines  # python -m runs of each tree, compared byte for byte
    assert lines[-1] == "total differences: 0"


def test_parity_reports_a_changed_format(tmp_path):
    # a tree that prints 16 significant digits differs on reports and simulate texts
    shutil.copytree(Path(SRC) / "lorentzpol", tmp_path / "lorentzpol")
    jsonio = tmp_path / "lorentzpol" / "jsonio.py"
    jsonio.write_text(jsonio.read_text().replace("%.17g", "%.16g"))
    result = run_parity(SRC, tmp_path, 50)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] != "total differences: 0"
    assert "forward sets: 25, simulate texts differing 0" not in result.stdout
    assert "cli processes: 17, differing 0" not in result.stdout
