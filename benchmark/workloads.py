"""Seeded operation lists for the three workloads.

An op is one `harmonium` command line (without `--out`) plus what the
checks need to know about it.  `make_ops(workload, seed)` returns the same
list for the same seed; a run repeats that list in whole rounds.  Within a
workload every op does the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("sweep_grid", "report_crossings", "verify_scoreboard")

#: Ops in one round; a run repeats the round until its time is up.  Report
#: ops cost 0.8x to 1.2x the average depending on q, and sweep ops 0.9x to
#: 1.1x, so their rounds draw more inputs to keep the per-run median from
#: depending on the seed's mix; verify ops cost the same within 2 %.
ROUND_OPS = {"sweep_grid": 16, "report_crossings": 32, "verify_scoreboard": 8}

#: Couplings per sweep op; the last one lies past 0.4999 and must error.
SWEEP_COUPLINGS = 96
SWEEP_QS = 3

#: Checks per coupling in a verify op: 10 for the coupling plus 4 per q.
VERIFY_QS = 2
VERIFY_CHECKS = 10 + 4 * VERIFY_QS


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the inputs it was built from."""

    subcommand: str
    qs: tuple[float, ...]
    coupling: float | None = None
    grid: str | None = None
    units: int = 1

    def argv(self) -> list[str]:
        args = [self.subcommand]
        if self.grid is not None:
            args += ["--lambda-grid", self.grid]
        if self.coupling is not None:
            args += ["--lambda", repr(self.coupling)]
        for q in self.qs:
            args += ["--q", repr(q)]
        return args


def _distinct_qs(rng: random.Random, count: int, exclude=()) -> list[float]:
    qs: list[float] = []
    while len(qs) < count:
        q = round(rng.uniform(0.3, 0.7), 4)
        if q not in qs and q not in exclude:
            qs.append(q)
    return qs


def _sweep_op(rng: random.Random, log: bool) -> Op:
    # q = 1/2 rides along in every op so the exact-recovery rows are always checked.
    qs = (0.5, *_distinct_qs(rng, SWEEP_QS - 1, exclude=(0.5,)))
    # The stop lies in (0.4999, 0.5): one coupling per q past the computation
    # window, which the program must report as an error row.
    stop = round(rng.uniform(0.49991, 0.49999), 6)
    if log:
        # Starting near 1e-9 puts the first roots below the 1e-12 scan window.
        start = float(f"{rng.uniform(1e-9, 2e-9):.4g}")
        grid = f"{start!r}:{stop!r}:{SWEEP_COUPLINGS}:log"
    else:
        start = round(rng.uniform(0.001, 0.01), 5)
        grid = f"{start!r}:{stop!r}:{SWEEP_COUPLINGS}"
    return Op("sweep", qs, grid=grid, units=SWEEP_QS * SWEEP_COUPLINGS)


def _report_op(rng: random.Random) -> Op:
    # |q - 1/2| >= 0.1 keeps find_crossing's coupling error well under the
    # 1e-8 check; nearer to 1/2 its ratio-based stopping rule loosens.
    offset = round(rng.uniform(0.1, 0.2), 4)
    q = 0.5 + offset if rng.random() < 0.5 else 0.5 - offset
    return Op("report", (round(q, 4),))


def _verify_op(rng: random.Random) -> Op:
    lam = float(f"{0.45 * (1.0 - rng.random()):.6g}")
    return Op("verify", tuple(_distinct_qs(rng, VERIFY_QS)), coupling=lam, units=VERIFY_CHECKS)


def make_ops(workload: str, seed: int) -> list[Op]:
    """The fixed op list of one round for this workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    count = ROUND_OPS[workload]
    if workload == "sweep_grid":
        return [_sweep_op(rng, log=(i % 2 == 0)) for i in range(count)]
    if workload == "report_crossings":
        return [_report_op(rng) for _ in range(count)]
    return [_verify_op(rng) for _ in range(count)]
