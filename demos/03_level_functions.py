"""Per-action level functions, strictness, and the permutation-minimised
family that restores strictness when the plain construction loses it.

The five-action example here has a third action whose level collapses to
the constant one, so expansions along it cannot separate coefficients;
minimising over action orderings repairs that.
"""

from multispec import deformation, point, rank_and_normalize, run_pipeline
from multispec.levels import (build_levels, build_generalized_levels,
                              canonical, evaluate_level, effective_exponent)

d = deformation([[1, 0, 0], [0, 1, 0], [1, 1, 1], [1, 1, 0], [0, 1, 1]])
p = point()
pl = run_pipeline(d, None, p)
fam = build_levels(pl)

print("plain family (elimination order", pl.elim_order, ")")
for j in sorted(fam.rho_Lambda):
    print(f"  rho[{j}] = {canonical(fam.rho_Lambda[j])}"
          f"   strict: {fam.strict[j]}")

print("\nlimit exponents along each action's own contraction orbit")
for j in sorted(fam.rho_Lambda):
    scaling = {k: d.entry(j, k) for k in range(1, d.m + 1)}
    print(f"  action {j}: exponent {effective_exponent(fam.rho_Lambda[j], scaling)}")

print("\ngeneralized family (minimum over admissible orderings)")
ghat = build_generalized_levels(d, rank_and_normalize(d, p), p)
for j in sorted(ghat.rho_Lambda):
    print(f"  rho^[{j}] = {canonical(ghat.rho_Lambda[j])}"
          f"   strict: {ghat.strict[j]}")

print("\nnumeric sanity: levels reproduce the scales they solve")
taus = {1: 0.3, 2: 0.04, 3: 0.5}
lams = {j: evaluate_level(ghat.rho_Lambda[j], taus) for j in (1, 2, 3, 4, 5)}
print("  scales:", taus)
print("  levels:", {j: round(v, 6) for j, v in lams.items()})
