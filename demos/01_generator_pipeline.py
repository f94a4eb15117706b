"""Walk through the generator semigroup of a two-action deformation.

Three coordinate blocks, actions (l1*x1, l2*x2, l1*l2*x3), and a base point
whose first two directions vanish.  We build the initial generator set,
eliminate the vanishing blocks step by step, and query radical membership
and the radical property of the final stage.
"""

from multispec import (deformation, point, rank_and_normalize, run_pipeline,
                       eliminate, render_genset, pair, tau, radical_member,
                       equivalent, classify_action)

d = deformation([[1, 0, 1], [0, 1, 1]])
p = point(zero_blocks={1, 2})

print("action matrix rows:", [[str(x) for x in row] for row in d.A])
print("classification:", classify_action(d).value)

r = rank_and_normalize(d, p)
print(f"rank L = {r.L}, selected rows {r.sel_rows}, columns {r.sel_cols}")

pl = run_pipeline(d, r, p)
print("\ninitial fraction-closed generator set")
print("  G = F0 =", render_genset(pl.F0))

print("\neliminating the vanishing blocks")
stage = pl.F0
for k in pl.zero_cols_L:
    stage = eliminate(stage, tau(k))
    print(f"  after block {k}:", render_genset(stage))
assert stage == pl.Fq

print("\nqueries against the generated semigroup")
res = radical_member(pair("t3"), pl.Fq, zero_slack=pl.zero_cols_L)
print("  (t3, 0) in the final stage radical:", res.verdict.value,
      "via", [(str(q.f), a) for q, a in res.witness if a],
      "at power", res.power)

res = radical_member(pair("t1*t2/t3"), pl.Fq, zero_slack=pl.zero_cols_L)
print("  (t1*t2/t3, 0) radical power:", res.power)

print("  stage equivalent to its semigroup:",
      equivalent(pl.Fq, pl.G, zero_slack=pl.zero_cols_L).value)
