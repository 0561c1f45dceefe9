import shutil
import subprocess
import sys
from pathlib import Path

from conftest import SRC

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "parity.py"


def run_parity(parent, change, sets, *options):
    return subprocess.run([sys.executable, str(SCRIPT), str(parent), str(change), "--sets", str(sets), *options],
                          capture_output=True, text=True, timeout=300)


def edited_tree(tmp_path, module, old, new):
    """A copy of the package with one replacement made in one module."""
    shutil.copytree(Path(SRC) / "lorentzpol", tmp_path / "lorentzpol")
    path = tmp_path / "lorentzpol" / module
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    return tmp_path


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
    result = run_parity(SRC, edited_tree(tmp_path, "jsonio.py", "%.17g", "%.16g"), 50)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1] != "total differences: 0"
    assert "forward sets: 25, simulate texts differing 0" not in result.stdout
    assert "cli processes: 17, differing 0" not in result.stdout


def test_tolerance_mode_accepts_a_tree_that_moves_numbers_by_a_few_eps(tmp_path):
    # 16 significant digits move each number by at most 2.3 eps of itself
    change = edited_tree(tmp_path, "jsonio.py", "%.17g", "%.16g")
    strict = run_parity(SRC, change, 50)
    assert strict.returncode == 1, strict.stdout + strict.stderr
    tolerant = run_parity(SRC, change, 50, "--tolerance-eps", "8")
    assert tolerant.returncode == 0, tolerant.stdout + tolerant.stderr
    lines = tolerant.stdout.splitlines()
    assert "forward sets: 25, simulate texts differing 0" in lines
    assert "cli processes: 17, differing 0" in lines
    largest = next(line for line in lines if line.startswith("largest move of a number: "))
    assert 0.0 < float(largest.split()[-4]) <= 8.0
    assert lines[-1] == "total differences: 0"


def test_tolerance_mode_rejects_a_flipped_classification(tmp_path):
    # rotations classified as general Lorentz elements: no number moves, the outcome does
    change = edited_tree(tmp_path, "algebra.py", "return MuellerClass.ROTATION\n", "return MuellerClass.LORENTZ\n")
    for options in ((), ("--tolerance-eps", "8")):
        result = run_parity(SRC, change, 50, *options)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "  classifications differing 0" not in result.stdout.splitlines()
        assert result.stdout.splitlines()[-1] != "total differences: 0"
