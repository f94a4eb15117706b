"""Induced maps between deformations and the two-manifold catalogue.

A polynomial map is admissible when every monomial's source weights
dominate the target column; the induced zero-section map keeps exactly the
grading-homogeneous terms.  The catalogue classifies all non-degenerate
two-action layouts with at most three blocks.
"""

from fractions import Fraction

from multispec import deformation
from multispec.asymptotics import (check_map, PolyMapSpec, structure_of,
                                   classify_two_manifolds)
from multispec.polynomials import poly_monomial

# Blow-down style map between a clean pair and a nested pair.
dM = deformation([[1, 1, 0], [0, 1, 1]])
dN = deformation([[1, 1], [0, 1]], block_dims=[1, 2])
sM = structure_of(dM)
x1 = poly_monomial(sM, (1, 0, 0))
x2 = poly_monomial(sM, (0, 1, 0))
x3 = poly_monomial(sM, (0, 0, 1))

res = check_map(PolyMapSpec(dM, dN, (x1, x1 * x3 + x2, x1 * x3)))
print("map (x1, x1*x3 + x2, x1*x3):", "ok" if res.ok else res.reason)
for i, comp in enumerate(res.induced, start=1):
    print(f"  y{i} = {comp}")

# Desingularisation of the cusp.
dM2 = deformation([[1, 0], [0, 1]])
dN2 = deformation([[3, 2], [1, 1]])
s2 = structure_of(dM2)
res = check_map(PolyMapSpec(dM2, dN2, (poly_monomial(s2, (3, 1)),
                                       poly_monomial(s2, (2, 1)))))
print("\ncusp desingularisation:", "ok" if res.ok else res.reason)
for i, comp in enumerate(res.induced, start=1):
    print(f"  y{i} = {comp}")

res = check_map(PolyMapSpec(dM2, dN2, (poly_monomial(s2, (1, 0)),
                                       poly_monomial(s2, (0, 1)))))
print("\nidentity into the cusp:", "ok" if res.ok else f"fails ({res.reason})")

print("\ntwo-manifold catalogue")
for rows in ([[1, 0], [0, 1]],
             [[1, 2], [0, 1]],
             [[1, Fraction(1, 2)], [Fraction(1, 3), 1]],
             [[1, 0, 2], [0, 1, 0]],
             [[1, 1, 2], [0, 1, 0]],
             [[1, 1, 0], [0, 1, 2]],
             [[1, 1, 3], [0, 1, 1]]):
    case = classify_two_manifolds(deformation(rows))
    print(f"  {rows} -> {case.label}, remainder {case.remainder_text()}")
