"""Smoke tests of the scripts in tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
COLD_START = ROOT / "tools" / "cold_start.py"


def test_cold_start_of_a_tree_against_itself_reads_identical():
    proc = subprocess.run([sys.executable, str(COLD_START), "src", "src", "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = proc.stdout.splitlines()
    assert [row.split()[0] for row in rows[1:6]] == ["solve", "sweep", "figure1", "verify", "report"]
    assert rows[-1] == "identical: every output of 5 commands x 1 rounds x 2 trees"


def test_cold_start_exits_1_when_an_output_differs(tmp_path):
    # a stand-in package whose every command writes the same wrong byte
    fake = tmp_path / "harmonium"
    fake.mkdir()
    (fake / "__init__.py").write_text("")
    (fake / "__main__.py").write_text(
        "import sys\nopen(sys.argv[sys.argv.index('--out') + 1], 'w').write('x')\n")
    proc = subprocess.run([sys.executable, str(COLD_START), "src", str(tmp_path), "--rounds", "1"],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "5 outputs differ"
