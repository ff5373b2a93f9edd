"""Benchmark of harmonium's sweep, report and verify subcommands, stdlib only.

Run from the repository root:

    python3 benchmark/run.py --workload sweep_grid --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics of one workload:

- setup_s: median wall time of COLD_RUNS fresh `python -m harmonium` processes,
  each running the workload's first op to a checked output file, spread
  evenly over the run (one more, untimed, process runs first);
- op_p50_s: median wall time of the ops run in this process through
  `harmonium.cli.main`, after one untimed warm-up op;
- work_per_s: units of work (sweep rows, reports or scoreboard checks)
  divided by the summed op times;
- peak_rss_mb: peak resident set of this process, which ran the warm ops.

The ops repeat the workload's seeded round (see workloads.py) in whole
rounds until --seconds have passed.  --trace 1 instead runs the traced pass
of every workload plus the fixed per-layer measurements of layers.py; it
does a fixed amount of work, so --seconds does not apply, and --workload
only names the trace file it writes to benchmark/out/.
Every op's output is checked against checks.py; the last line printed is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import layers
import tracing
from checks import CHECKERS
from workloads import WORKLOADS, make_ops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

COLD_RUNS = 5
#: Ops per workload in the traced run, run once untraced and once traced.
TRACE_OPS = 4
#: How many problems to print per run before going quiet.
MAX_REPORTED = 5


def program_env() -> dict:
    """The caller's environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def import_program():
    """Import harmonium from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import harmonium
    import harmonium.cli  # noqa: F401

    if Path(harmonium.__file__).resolve().parent != (SRC / "harmonium").resolve():
        raise SystemExit(f"error: imported harmonium from {harmonium.__file__}, not {SRC}")
    return harmonium


class Ledger:
    """Counts ops, runs each through its checker, and prints the first problems."""

    def __init__(self, out_path: Path):
        self.out_path = out_path
        self.attempted = 0
        self.failed = 0
        self.problems = 0

    def _checked(self, op, exit_code: int) -> None:
        found = CHECKERS[op.subcommand](op, self.out_path.read_text(encoding="utf-8"), exit_code)
        for problem in found[: max(0, MAX_REPORTED - self.problems)]:
            print(f"check failed [{' '.join(op.argv())}]: {problem}", file=sys.stderr)
        self.problems += len(found)

    def _failed(self, argv, detail: str) -> None:
        self.failed += 1
        print(f"op failed [{' '.join(argv)}]: {detail}", file=sys.stderr)

    def warm(self, cli, op) -> float | None:
        """Run one op in this process; return its wall time, or None if it failed."""
        self.attempted += 1
        self.out_path.unlink(missing_ok=True)
        argv = op.argv() + ["--out", str(self.out_path)]
        start = perf_counter()
        try:
            exit_code = cli.main(argv)
        except (Exception, SystemExit):
            return self._failed(argv, traceback.format_exc())
        elapsed = perf_counter() - start
        if not self.out_path.is_file():
            return self._failed(argv, f"exit {exit_code}, no output written")
        self._checked(op, exit_code)
        return elapsed

    def cold(self, op, env: dict) -> float | None:
        """Run one op as a fresh `python -m harmonium` process; return its wall time."""
        self.attempted += 1
        self.out_path.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "harmonium", *op.argv(), "--out", str(self.out_path)]
        start = perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        elapsed = perf_counter() - start
        if not self.out_path.is_file():
            return self._failed(cmd, f"exit {proc.returncode}, no output written\n{proc.stderr}")
        self._checked(op, proc.returncode)
        return elapsed


def measure(workload: str, seed: int, seconds: float, scratch: Path) -> tuple[Ledger, dict]:
    """Untraced run: whole rounds of warm ops for `seconds`, with the cold
    set-up processes spread evenly between rounds.

    The host's speed drifts over tens of seconds; spreading the cold starts
    over the whole run, rather than timing them back to back, keeps one slow
    stretch from setting every sample of `setup_s`.
    """
    ops = make_ops(workload, seed)
    ledger = Ledger(scratch / "op.out")
    env = program_env()
    ledger.cold(ops[0], env)  # untimed: fills the page cache (and bytecode cache, if written)
    cli = import_program().cli
    ledger.warm(cli, ops[0])  # untimed warm-up
    cold: list[float] = []
    cold_attempts = 0
    times: list[float] = []
    units = 0
    start = perf_counter()
    while perf_counter() - start < seconds or cold_attempts < COLD_RUNS:
        if cold_attempts < COLD_RUNS and perf_counter() - start >= cold_attempts * seconds / COLD_RUNS:
            cold_attempts += 1
            elapsed = ledger.cold(ops[0], env)
            if elapsed is not None:
                cold.append(elapsed)
        for op in ops:
            elapsed = ledger.warm(cli, op)
            if elapsed is not None:
                times.append(elapsed)
                units += op.units
    if not cold or not times:
        raise SystemExit("error: every op failed; nothing to report")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{workload}: {len(times)} warm ops, {len(cold)} cold processes, {units} units")
    return ledger, {
        "setup_s": {"value": statistics.median(cold), "unit": "s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "work_per_s": {"value": units / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
    }


def trace(workload: str, seed: int, scratch: Path) -> tuple[Ledger, dict]:
    """Traced run: per-layer self times of every workload, overheads, imports, p50s, counts."""
    values = layers.import_seconds(program_env(), ROOT)
    hm = import_program()
    values.update(layers.function_p50s(hm))
    counts = layers.solver_counts(hm)

    ledger = Ledger(scratch / "op.out")
    sections = {}
    for name in WORKLOADS:
        ops = make_ops(name, seed)[:TRACE_OPS]
        ledger.warm(hm.cli, ops[0])
        plain = [ledger.warm(hm.cli, op) for op in ops]
        tracer = tracing.Tracer()
        tracer.install(hm)
        try:
            traced = [ledger.warm(hm.cli, op) for op in ops]
        finally:
            tracer.uninstall()
        if None in plain or None in traced:
            raise SystemExit(f"error: an op of {name} failed in the traced run")
        for layer, seconds in tracer.layer_self_seconds().items():
            values[f"{layer}.self_s.{name}"] = seconds / len(ops)
        values[f"trace.overhead_s.{name}"] = statistics.median(traced) - statistics.median(plain)
        sections[name] = tracer
    tracing.write(OUT_DIR / f"trace-{workload}-{seed}.jsonl.gz", sections)
    metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
    metrics.update((name, {"value": value, "unit": "count"}) for name, value in counts.items())
    return ledger, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "harmonium" / "__init__.py").is_file():
        print(f"error: no harmonium sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=OUT_DIR) as scratch:
        if args.trace:
            ledger, metrics = trace(args.workload, args.seed, Path(scratch))
        else:
            ledger, metrics = measure(args.workload, args.seed, args.seconds, Path(scratch))
    result = {
        "correct": ledger.problems == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
