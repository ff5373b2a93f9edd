"""Regenerate tests/reference_values.py from 50-digit arithmetic.

Every closed form is re-derived here in mpmath, independently of the
package source, and rounded to double precision only at print time.  Run
from the repository root:

    python3 tools/freeze_reference_values.py > tests/reference_values.py
"""

import mpmath as mp

mp.mp.dps = 50


def freqs(lam, omega0=mp.mpf(1)):
    omega1 = omega0
    omega2 = omega0 * mp.sqrt(1 - 2 * lam)
    omega_s = 2 * omega1 * omega2 / (omega1 + omega2)
    omega_bar = mp.sqrt(omega1 * omega2)
    u = (1 - 2 * lam) ** mp.mpf("0.25")
    xi = ((1 - u) / (1 + u)) ** 2
    return omega1, omega2, omega_s, omega_bar, xi


def energy_terms(lam, omega0=mp.mpf(1)):
    omega1, omega2, omega_s, _, _ = freqs(lam, omega0)
    kin = (omega1 + omega2) / 4
    ext = omega0**2 / (2 * omega_s)
    inter = -lam * omega0**2 / (2 * omega_s) * (2 - omega_s / omega1)
    return kin, ext, inter


def stationarity_rhs(lam, omega0=mp.mpf(1)):
    _, _, omega_s, _, _ = freqs(lam, omega0)
    return lam * (omega0 / (2 * omega_s)) ** 2


def stationarity_lhs(q, xi):
    den = q * (xi ** (2 * q - 1) - xi) + (1 - q) * (1 - xi ** (2 * q))
    return xi**q / den * ((1 + xi) / (1 - xi)) ** 3


def solve_root(lam, q, guess):
    rhs = stationarity_rhs(lam)
    return mp.findroot(lambda x: stationarity_lhs(q, x) - rhs, mp.mpf(guess))


def bracket_sum_one(q, xi):
    return 2 - (1 - xi**q) * (1 - xi ** (1 - q)) / (1 + xi)


def bracket_equal(q, r, xi):
    s = q + r
    return 2 - (1 - xi**q) * (1 - xi**r) * (1 - xi) ** (s + 1) / (
        (1 + xi) * (1 - xi**s) ** 2
    )


def gamma_closed(lam, x, xp, omega0=mp.mpf(1)):
    """Contraction integral of the pair amplitude, done analytically."""
    omega1, omega2, _, _, _ = freqs(lam, omega0)
    a = (omega1 + omega2) / 2
    b = (omega1 - omega2) / 2
    n2 = mp.sqrt(omega1 * omega2) / mp.pi
    return n2 * mp.sqrt(mp.pi / a) * mp.exp(
        b**2 * (x + xp) ** 2 / (4 * a) - a * (x**2 + xp**2) / 2
    )


def emit(name, value):
    print(f"{name} = {mp.nstr(value, 17)}")


lam3 = mp.mpf("0.3")
omega1, omega2, omega_s, omega_bar, xi3 = freqs(lam3)
kin, ext, inter = energy_terms(lam3)

print('"""Frozen expected values, generated by tools/freeze_reference_values.py.')
print()
print('All numbers come from 50-digit arithmetic rounded to double precision;')
print('regenerate with  python3 tools/freeze_reference_values.py  after edits."""')
print()
print("# coupling = 0.3, omega0 = 1")
emit("OMEGA2_03", omega2)
emit("OMEGA_S_03", omega_s)
emit("OMEGA_BAR_03", omega_bar)
emit("XI_03", xi3)
emit("E_KINETIC_03", kin)
emit("E_EXTERNAL_03", ext)
emit("E_INTERACTION_03", inter)
emit("E_TOTAL_03", (omega1 + omega2) / 2)
emit("MU_03", (omega1 + omega2) ** 2 / (4 * omega2))
emit("V_OFFSET_03", (omega1 + omega2) ** 2 / (4 * omega2) - omega_s / 2)
emit("DENSITY0_03", mp.sqrt(omega_s / mp.pi))
emit("DENSITY_07_03", mp.sqrt(omega_s / mp.pi) * mp.exp(-omega_s * mp.mpf("0.49")))
emit("PSI_03_AT", (omega1 * omega2 / mp.pi**2) ** mp.mpf("0.25") * mp.exp(
    -(mp.mpf("0.09") + mp.mpf("0.04")) * (omega1 + omega2) / 4
    - mp.mpf("0.3") * mp.mpf("-0.2") * (omega1 - omega2) / 2))
emit("RHS_03", stationarity_rhs(lam3))
emit("BRACKET_Q05_03", bracket_sum_one(mp.mpf("0.5"), xi3))
emit("BRACKET_EQ_Q06_03", bracket_equal(mp.mpf("0.6"), mp.mpf("0.6"), xi3))
emit("KERNEL_NORM_EQ_Q06_03", (1 - xi3) ** mp.mpf("1.2") / (1 - xi3 ** mp.mpf("1.2")))
emit("PURITY_03", (1 - xi3) / (1 + xi3))
emit("LINEAR_ENTROPY_03", 2 * xi3 / (1 + xi3))
emit("QP_WEIGHT_03", (1 - xi3) ** 2)
emit("DUAL_COUPLING_03", -lam3 / (1 - 2 * lam3))
emit("GAMMA_07_M04_03", gamma_closed(lam3, mp.mpf("0.7"), mp.mpf("-0.4")))
emit("XI_P_Q04_03", solve_root(lam3, mp.mpf("0.4"), "0.02"))
emit("XI_P_Q03_03", solve_root(lam3, mp.mpf("0.3"), "0.03"))
print()
print("# coupling = 0.1, omega0 = 1")
_, _, omega_s1, _, xi1 = freqs(mp.mpf("0.1"))
emit("XI_01", xi1)
emit("RHS_01", stationarity_rhs(mp.mpf("0.1")))
emit("E_TOTAL_01", (1 + mp.sqrt(mp.mpf("0.8"))) / 2)
emit("XI_P_Q04_01", solve_root(mp.mpf("0.1"), mp.mpf("0.4"), "0.004"))
print()
print("# coupling = 0.45, omega0 = 1")
_, _, _, _, xi45 = freqs(mp.mpf("0.45"))
emit("XI_45", xi45)
emit("RHS_45", stationarity_rhs(mp.mpf("0.45")))
print()
print("# coupling = 0.01, omega0 = 1")
_, _, _, _, xi001 = freqs(mp.mpf("0.01"))
emit("XI_001", xi001)
print()
print("# couplings 1e-9 and 1e-5, where 1 - (1 - 2*coupling)^(1/4) cancels in doubles")
emit("XI_1EM9", freqs(mp.mpf("1e-9"))[4])
emit("XI_1EM5", freqs(mp.mpf("1e-5"))[4])
print()
print("# coupling = 0.3, omega0 = 2 (scale covariance anchor)")
om0 = mp.mpf(2)
_, _, omega_s_w2, _, xi_w2 = freqs(lam3, om0)
emit("XI_03_W2", xi_w2)
emit("E_TOTAL_03_W2", om0 * (1 + mp.sqrt(mp.mpf("0.4"))) / 2)
emit("RHS_03_W2", stationarity_rhs(lam3, om0))
print()
print("# mean field")
emit("HF_OMEGA_010", mp.sqrt(mp.mpf("0.9")))
emit("HF_OMEGA_036", mp.sqrt(mp.mpf("0.64")))
emit("HF_ENERGY_03", mp.sqrt(mp.mpf("0.7")))
