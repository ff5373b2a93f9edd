"""Compare variational and exact entanglement, and exercise the sign duality.

Because the linear entropy is monotone in xi, the ratio curves of the
previous demo reappear here as an ordering between the variational and
exact entropies that flips at the crossing coupling.  Independently,
the exact spectrum is blind to the interaction sign once couplings are
paired by the duality map.
"""

from harmonium import (
    ModelParams,
    derive_frequencies,
    dual_coupling,
    find_crossing,
    linear_entropy,
    solve_xi_p,
)


def compare(lam, q):
    """Variational and exact linear entropy, and the sign of their difference.

    Differences at or below 1e-12 count as ties and give ordering 0.
    """
    params = ModelParams(coupling=lam)
    l_par = linear_entropy(solve_xi_p(params, q).xi_p)
    l_ex = linear_entropy(derive_frequencies(params).xi)
    diff = l_par - l_ex
    return l_par, l_ex, 0 if abs(diff) <= 1e-12 else (1 if diff > 0.0 else -1)


print("variational vs exact linear entropy at q = 0.4")
print(f"{'coupling':>9} {'L_param':>12} {'L_exact':>12} {'ordering':>9}")
for lam in (0.05, 0.15, 0.25, 0.35, 0.45):
    l_par, l_ex, ordering = compare(lam, 0.4)
    print(f"{lam:9.2f} {l_par:12.8f} {l_ex:12.8f} {ordering:+9d}")
lam0 = find_crossing(ModelParams(), 0.4)
print(f"the ordering flips at the ratio crossing, coupling = {lam0:.6f}")
print()

print("entropy is even under the duality map coupling -> -coupling/(1-2*coupling)")
print(f"{'coupling':>9} {'dual':>12} {'L(coupling)':>14} {'L(dual)':>14}")
for lam in (0.1, 0.2, 0.3, 0.4):
    mu = dual_coupling(lam)
    l_rep = linear_entropy(derive_frequencies(ModelParams(coupling=lam)).xi)
    l_att = linear_entropy(derive_frequencies(ModelParams(coupling=mu)).xi)
    print(f"{lam:9.2f} {mu:12.6f} {l_rep:14.10f} {l_att:14.10f}")
print()
print("at q = 0.5 the comparison is degenerate: the variational state is the")
print("exact one, so both columns agree to rounding and the ordering is 0")
for lam in (0.1, 0.3):
    l_par, l_ex, ordering = compare(lam, 0.5)
    print(f"  coupling {lam}: L_param - L_exact = {l_par - l_ex:+.2e}, ordering {ordering}")
