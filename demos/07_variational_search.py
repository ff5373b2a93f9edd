"""Search the kernel exponent q for the stationary energy that reaches E_ex.

At each q the stationary point xi_p(q) of the parametric energy gives
E*(q).  Over the 41 q of [0.3, 0.7] in steps of 0.01 the search lands on
q = 1/2, where E* is the exact ground-state energy E_ex; every other q
gives less.  Near 1/2 the gap opens like -c (q - 1/2)^2, with
c(coupling) = coupling omega0^2/(2 omega_s) (ln xi)^2 sqrt(xi)/(1 + xi),
which a Richardson-extrapolated second difference at q - 1/2 = +-2e-3 and
+-1e-3 reproduces.  Differences print to 4 significant digits and are
rounded to 1e-14 absolute, below which they are round-off.
"""

import math

import numpy as np

from harmonium import (
    KernelSpec,
    ModelParams,
    derive_frequencies,
    energy_parametric,
    exact_energy,
    solve_batch,
)

GRID = [round(0.3 + 0.01 * k, 2) for k in range(41)]
STEPS = (2e-3, 1e-3)
QS = GRID + [0.5 + h for h in STEPS] + [0.5 - h for h in STEPS]


def shown(diff):
    """diff to 4 significant digits, with round-off below 1e-14 as 0."""
    return f"{round(diff, 14) + 0.0:.4g}"


print("stationary energy E*(q) against the exact E_ex, q on the 0.01 grid of [0.3, 0.7]")
print(f"{'coupling':>9} {'q*':>5} {'E*(q*) - E_ex':>14} {'max E*(q != 1/2) - E_ex':>24}"
      f" {'c':>10} {'Richardson':>10}")
for lam in (0.01, 0.1, 0.3, 0.45):
    params = ModelParams(coupling=lam)
    f = derive_frequencies(params)
    e_ex = exact_energy(params).total
    roots = solve_batch(np.array(QS)[:, None], [lam]).xi_p.ravel().tolist()
    e_star = {q: energy_parametric(params, KernelSpec.sum_one(q), x).total
              for q, x in zip(QS, roots)}
    q_star = max(GRID, key=e_star.__getitem__)
    away = max(e_star[q] - e_ex for q in GRID if q != 0.5)
    second = [(e_star[0.5 + h] + e_star[0.5 - h] - 2.0 * e_star[0.5]) / (2.0 * h * h)
              for h in STEPS]
    c = lam * params.omega0 ** 2 / (2.0 * f.omega_s) * math.log(f.xi) ** 2 \
        * math.sqrt(f.xi) / (1.0 + f.xi)
    print(f"{lam:9.2f} {q_star:5.2f} {shown(e_star[q_star] - e_ex):>14} {shown(away):>24}"
          f" {c:10.4g} {-(4.0 * second[1] - second[0]) / 3.0:10.4g}")
print()
print("the search over q finds E_ex at q = 1/2 and nowhere else on the grid:")
print("the parametric one-matrix with the square-root kernel is exact")
