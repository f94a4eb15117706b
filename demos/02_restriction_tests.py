"""Decide when an extra submanifold is compatible with the existing cones.

Starting from the clean two-plane family in three coordinates, we add each
candidate plane or line, evaluate the pairing conditions over the final
stage, and confirm failing witnesses by exact membership probes in the
extended configuration.
"""

from multispec import deformation, point, run_pipeline
from multispec.restriction import check_restriction, extended_matrix
from multispec.semigroup import radical_member

d = deformation([[1, 1, 0], [0, 1, 1]])

candidates = {
    "x1 = 0": [1, 0, 0],
    "x2 = 0": [0, 1, 0],
    "x3 = 0": [0, 0, 1],
    "x1 = x3 = 0": [1, 0, 1],
    "the origin": [1, 1, 1],
}

for zeros in ({1}, {2}, {3}):
    print(f"\nbase point with block {sorted(zeros)} vanishing")
    p = point(zero_blocks=zeros)
    pl = run_pipeline(d, None, p)
    for label, beta in candidates.items():
        verdict = check_restriction(pl, beta)
        if verdict.holds:
            print(f"  adding {label}: compatible")
        else:
            w = verdict.witnesses[0]
            print(f"  adding {label}: fails, witness {w.pair} "
                  f"pairs to {w.log_value}")
            d_b = extended_matrix(d, beta)
            pl_b = run_pipeline(d_b, None, p)
            probe = radical_member(w.pair, pl_b.Fq)
            print(f"    confirmed by probe: {probe.verdict.value}")
