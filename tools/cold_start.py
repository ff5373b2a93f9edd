"""Time cold `python -m harmonium` processes of two source trees, and compare their outputs.

    python3 tools/cold_start.py OLD_SRC NEW_SRC [--rounds N]

OLD_SRC and NEW_SRC are directories that hold the `harmonium` package, such
as `src` of two checkouts.  Each round runs every command of COMMANDS once
per tree, each as a fresh process that writes its output through --out; the
tree that goes first alternates from round to round.  A process's wall time
covers the interpreter's start, the import, the command and the exit.  One
untimed process per tree first checks that the tree is where `harmonium` is
imported from, and fills the page cache.

The script prints, per command, each tree's median and quartiles and the
number of rounds in which NEW_SRC was faster.  It exits 1 when a command
fails or an output differs by one byte from that command's first output
(between the trees or between rounds), and 0 otherwise.  The processes get
the caller's environment with PYTHONPATH set to the tree, so a caller's
OPENBLAS_NUM_THREADS reaches both.  Stdlib only.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Fixed arguments of each subcommand; every one exits 0.
COMMANDS = {
    "solve": ["solve", "--lambda", "0.3", "--q", "0.4"],
    "sweep": ["sweep", "--lambda-grid=1.5e-9:0.49995:96:log", "--q", "0.5", "--q", "0.3512",
              "--q", "0.6123"],
    "figure1": ["figure1"],
    "verify": ["verify"],
    "report": ["report"],
}


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def _check_origin(src: Path, cwd: str) -> None:
    probe = [sys.executable, "-c", "import harmonium; print(harmonium.__file__)"]
    out = subprocess.run(probe, env=_env(src), cwd=cwd, check=True, capture_output=True,
                         text=True).stdout
    package = Path(out.strip()).resolve()
    if src not in package.parents:
        raise SystemExit(f"{src}: imported harmonium from {package}, not from this tree")


def _cold(src: Path, argv: list[str], out_path: Path, cwd: str) -> tuple[float, bytes]:
    """Run one command as a fresh process; return its wall time and the bytes it wrote."""
    out_path.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "harmonium", *argv, "--out", str(out_path)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=_env(src), cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not out_path.is_file():
        raise SystemExit(f"{src}: {' '.join(argv)} exited {proc.returncode}\n{proc.stderr}")
    return elapsed, out_path.read_bytes()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, metavar="OLD_SRC")
    parser.add_argument("new", type=Path, metavar="NEW_SRC")
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"old": args.old.resolve(), "new": args.new.resolve()}
    times = {(name, tree): [] for name in COMMANDS for tree in trees}
    first = {}
    differences = []
    # the processes run in an empty directory, so no `harmonium` in the cwd shadows the tree's
    with tempfile.TemporaryDirectory(prefix="cold-start-") as cwd:
        out_path = Path(cwd) / "out"
        for src in trees.values():
            _check_origin(src, cwd)
        for round_ in range(args.rounds):
            order = ("old", "new") if round_ % 2 == 0 else ("new", "old")
            for name, command in COMMANDS.items():
                for tree in order:
                    elapsed, output = _cold(trees[tree], command, out_path, cwd)
                    times[name, tree].append(elapsed)
                    if first.setdefault(name, output) != output:
                        differences.append(f"{name}: {tree} tree, round {round_ + 1}")
    print(f"cold `python -m harmonium` wall time, median [q1, q3] of {args.rounds} rounds")
    for name in COMMANDS:
        old, new = times[name, "old"], times[name, "new"]
        cells = []
        for tree, values in (("old", old), ("new", new)):
            q1, median, q3 = _quartiles(values)
            cells.append(f"{tree} {median:.3f} [{q1:.3f}, {q3:.3f}] s")
        wins = sum(b < a for a, b in zip(old, new))
        print(f"{name:8} {cells[0]}   {cells[1]}   new faster in {wins}/{args.rounds}")
    for line in differences:
        print("differs:", line)
    if differences:
        print(f"{len(differences)} outputs differ")
        return 1
    print(f"identical: every output of {len(COMMANDS)} commands x {args.rounds} rounds x 2 trees")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
