"""Check that two source trees give the solver's arrays with the same bytes.

    python3 tools/compare_roots.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `harmonium` package, such
as `src` of two checkouts.  Each tree is imported in its own interpreter,
which runs

- `solve_batch` on 281 q of [0.3, 0.7] against 4 409 couplings: 4 000
  geometric from 1e-300 to 0.4999, 400 linear from 0 to 0.4999, and 9
  outside the stability window (0.5 and above, negative, infinite, NaN);
- `find_crossing` at each of those q but 1/2, where there is no crossing;
- `stationarity_lhs` on the 63 q = k/64 against a seeded draw of 45 000 xi
  in (0, 1), and on the first 100 of those xi as Python floats,

and prints one sha256 digest per q for each of `xi_p`, `residual`, `rhs`,
`iterations` (with its dtype), the error texts and the lhs values, and the
crossing as `float.hex`.  Together they cover both of the solver's Newton
loops: the array one of `solve_batch` and the scalar one of `find_crossing`.
The digests are compared, and the script exits 1 on any difference, naming the
arrays and q where the trees part, and 0 when every digest agrees.  Rows are
solved in blocks of q, which leaves each row's steps as they are.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

Q_GRID = np.round(np.linspace(0.3, 0.7, 281), 12)
COUPLINGS = [*np.geomspace(1e-300, 0.4999, 4000).tolist(), *np.linspace(0.0, 0.4999, 400).tolist(),
             0.5, 0.4999000000000001, 0.6, 1.0, -1e-300, -0.1, float("inf"), -float("inf"),
             float("nan")]
LHS_Q = [k / 64 for k in range(1, 64)]
_BLOCK = 16  # q per solve_batch call


def _lhs_draw() -> np.ndarray:
    """45 000 xi in (0, 1): log-uniform down to 1e-300, uniform, and next to the pole."""
    rng = np.random.default_rng(20261020)
    xi = np.concatenate([10.0 ** rng.uniform(-300.0, 0.0, 15000), rng.uniform(0.0, 1.0, 15000),
                         1.0 - 10.0 ** rng.uniform(-15.0, 0.0, 15000)])
    return np.clip(xi, 5e-324, np.nextafter(1.0, 0.0))


def _digest(array: np.ndarray) -> str:
    data = array.dtype.str.encode() + np.ascontiguousarray(array).tobytes()
    return hashlib.sha256(data).hexdigest()


def _text_digest(texts) -> str:
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def dump():
    """Print the digests of the `harmonium` on sys.path, one JSON object per line."""
    import harmonium
    from harmonium import ModelParams
    from harmonium.solver import find_crossing, solve_batch, stationarity_lhs

    print(json.dumps({"package": harmonium.__file__}))
    for start in range(0, Q_GRID.size, _BLOCK):
        qs = Q_GRID[start:start + _BLOCK]
        batch = solve_batch(qs[:, None], COUPLINGS)
        errors = np.array(["" if e is None else f"{type(e).__name__}: {e}" for e in batch.errors],
                          object).reshape(batch.xi_p.shape)
        for k, q in enumerate(qs.tolist()):
            record = {"at": f"q={q!r}", "xi_p": _digest(batch.xi_p[k]),
                      "residual": _digest(batch.residual[k]), "rhs": _digest(batch.rhs[k]),
                      "iterations": _digest(batch.iterations[k]), "errors": _text_digest(errors[k])}
            if q != 0.5:
                record["crossing"] = find_crossing(ModelParams(), q).hex()
            print(json.dumps(record))
    xi = _lhs_draw()
    scalars = xi[:100].tolist()
    for q in LHS_Q:
        lhs = stationarity_lhs(q, xi)
        one_by_one = np.array([stationarity_lhs(q, v) for v in scalars])
        print(json.dumps({"at": f"stationarity_lhs q={q!r}", "lhs": _digest(lhs),
                          "lhs_scalar": _digest(one_by_one)}))


def _run(src: str) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run([sys.executable, __file__, "--dump"], env=env, check=True,
                         capture_output=True, text=True).stdout
    lines = [json.loads(line) for line in out.splitlines()]
    package = Path(lines[0]["package"]).resolve()
    if Path(src).resolve() not in package.parents:
        raise SystemExit(f"{src}: imported harmonium from {package}, not from this tree")
    return lines[1:]


def main(argv: list[str]) -> int:
    if argv == ["--dump"]:
        dump()
        return 0
    if len(argv) != 2:
        print("usage: python3 tools/compare_roots.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = (_run(src) for src in argv)
    if len(old) != len(new):
        print(f"the trees printed {len(old)} and {len(new)} records")
        return 1
    differences = [f"{key} at {a['at']}" for a, b in zip(old, new)
                   for key in a if a[key] != b.get(key)]
    for line in differences[:20]:
        print("differs:", line)
    if differences:
        print(f"{len(differences)} digests differ")
        return 1
    print(f"identical: {Q_GRID.size} q x {len(COUPLINGS)} couplings of solve_batch "
          f"(xi_p, residual, rhs, iterations, errors); {Q_GRID.size - 1} q of find_crossing; "
          f"{len(LHS_Q)} q x {_lhs_draw().size} xi "
          f"of stationarity_lhs, and 100 scalar xi per q")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
