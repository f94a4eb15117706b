"""Multicone systems: rendering, numeric membership, projection, closure
with its extra boundary inequalities, contraction stability, and the
sampling oracle for normal-cone membership.
"""

import numpy as np

from multispec import deformation, point, run_pipeline
from multispec.multicone import (build_multicone, closure, project,
                                 contraction_stable_check, sample_members,
                                 normal_cone_probe)

# The cusp-type deformation: both manifolds at the origin of the plane.
d = deformation([[3, 2], [1, 1]])
pl = run_pipeline(d, None, point())
system = build_multicone(pl)
print("cusp-type multicone at eps:")
for line in system.text():
    print("  " + line)
print("  member (6.25e-6, 1.25e-4) at eps 0.1:",
      system.member({1: 6.25e-6, 2: 1.25e-4}, 0.1))

report = contraction_stable_check(system, 2000, rng_seed=1)
print(f"  contraction stability: {report.checked} checked, "
      f"{report.violations} violations, passed: {report.passed}")

# Projection: a staircase system loses its middle block.
dtak = deformation([[1, 1], [0, 1]])
stak = build_multicone(run_pipeline(dtak, None, point()))
print("\nstaircase system:", "; ".join(stak.text()[2:]))
proj = project(stak, 1, k_in_JZ=False)
print("after projecting out the first block:", "; ".join(
    i.text() for i in proj.inequalities))

# Closure: the naive <= system would be unbounded; the balanced products
# add the two flag bounds that cut the spurious directions off.
d3 = deformation([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
cl = closure(run_pipeline(d3, None, point()))
print("\nclosed system of the three-line configuration:")
for ineq in cl.system.inequalities:
    print("  " + ineq.text(strict=False))
print("  contains (0, 0.2, 0) at eps 0.1:",
      cl.system.member({1: 0, 2: 0.2, 3: 0}, 0.1))
print("  contains (0, 0.005, 0) at eps 0.1:",
      cl.system.member({1: 0, 2: 0.005, 3: 0}, 0.1))

# Normal-cone probe: the graph x3 = x1*x2 reaches the direction with all
# block norms comparable, the coordinate plane x3 = 0 does not.
dg = deformation([[1, 0, 1], [0, 1, 1]])
pall = point(norms={3: 1.0})
plg = run_pipeline(dg, None, pall)


class Graph:
    def sample(self, rng, scale):
        t = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        s = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        return {1: t, 2: s, 3: t * s}

    def contains(self, z):
        return abs(z[3] - z[1] * z[2]) < 1e-12


class Plane(Graph):
    def sample(self, rng, scale):
        z = super().sample(rng, scale)
        z[3] = 0.0
        return z

    def contains(self, z):
        return z[3] == 0.0


print("\nnormal-cone probes at the unit third direction")
print("  graph x3 = x1*x2:",
      normal_cone_probe(plg, pall, Graph(), samples=2000).outcome.value)
print("  plane x3 = 0:   ",
      normal_cone_probe(plg, pall, Plane(), samples=800).outcome.value)
