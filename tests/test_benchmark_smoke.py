"""The benchmark's traced run finishes and checks every output it makes.

`benchmark/run.py --trace 1` times the import of each layer and traces every
workload; it exits with code 1 when a probe breaks, for example when
`import harmonium` stops loading a module whose import time it reports.  It
writes only under `benchmark/out/`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_traced_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "sweep_grid", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
