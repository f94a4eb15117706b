"""Output checks, computed apart from the program.

Cone questions go to scipy's linprog, level trees and inequality systems
are evaluated in the log domain by the functions below, decay along an
orbit is an exact tropical exponent, and templates are rebuilt by brute
force from the weights of the terms.  Each check returns a list of
problems; an empty list is a pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

LP_TOL = 1e-9


def exps_of(pair) -> dict[str, Fraction]:
    """Exponents of a pair's monomial, keyed like the JSON output."""
    return {v.json_key(): e for v, e in pair.f.exps}


def exps_of_json(item: dict) -> dict[str, Fraction]:
    return {k: Fraction(x) for k, x in item["exponents"].items()}


def _lp(columns, target, extra_row=None):
    from scipy.optimize import linprog
    keys = sorted(set(target).union(*columns))
    a = [[float(c.get(k, 0)) for c in columns] for k in keys]
    b = [float(target.get(k, 0)) for k in keys]
    if extra_row is not None:
        a.append(extra_row[0])
        b.append(extra_row[1])
    res = linprog([0.0] * len(columns), A_eq=a, b_eq=b, bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance":
                                           LP_TOL})
    if res.status not in (0, 2):
        raise RuntimeError(f"linprog failed: {res.message}")
    return res.status == 0


def in_cone(columns: list[dict], target: dict) -> bool:
    """Is target a non-negative real combination of the columns?"""
    if not columns:
        return all(x == 0 for x in target.values())
    return _lp(columns, target)


def has_lineality(columns: list[dict]) -> bool:
    """Does the cone of the columns contain a line (x >= 0, sum x = 1,
    sum x_i c_i = 0 is feasible)?"""
    return bool(columns) and _lp(columns, {},
                                 ([1.0] * len(columns), 1.0))


# --- decide -----------------------------------------------------------------

def semigroup_probes(free, zero_slack) -> list:
    """The probes `equivalent` poses for one side, rebuilt from its
    documented rule: pairs negative on a zero-pattern block are dropped,
    pairs positive on one have their value forced to zero."""
    from multispec.monomials import Pair, ZERO
    out = set()
    for p in free:
        e = exps_of(p)
        if any(e.get(f"tau:{k}", 0) < 0 for k in zero_slack):
            continue
        if not p.v.is_zero and any(e.get(f"tau:{k}", 0) > 0
                                   for k in zero_slack):
            p = Pair(p.f, ZERO)
        out.add(p)
    return sorted(out, key=lambda p: p.sort_key())


def check_equivalent_yes(a_free, b_free, zero_slack, verdict):
    """The paper's radical claim: YES, and every probe of each side lies in
    the rational cone of the other."""
    problems = [] if verdict.value == "yes" else [f"verdict {verdict.value}"]
    pa, pb = semigroup_probes(a_free, zero_slack), \
        semigroup_probes(b_free, zero_slack)
    for probes, other in ((pa, b_free), (pb, a_free)):
        cols = [exps_of(q) for q in other]
        for p in probes:
            if not in_cone(cols, exps_of(p)):
                problems.append(f"probe {p} is outside the other cone")
    return problems


def check_equivalent_no(a_free, b_free, extra, zero_slack, verdict):
    """A negative control: NO, and the added generator lies outside the
    other set's rational cone, and is one of the probes posed."""
    problems = [] if verdict.value == "no" else [f"verdict {verdict.value}"]
    if in_cone([exps_of(q) for q in b_free], exps_of(extra)):
        problems.append(f"control {extra} lies inside the other cone")
    if extra not in semigroup_probes(a_free, zero_slack):
        problems.append(f"control {extra} is not a probe")
    return problems


# --- eliminate ----------------------------------------------------------------

def check_no_lambda(final: list[dict]) -> list[str]:
    return [f"lambda survives in {e}" for e in final
            if any(k.startswith("lam:") for k in e)]


def check_stage_cones(stages: list[list[dict]], rng, per_stage: int = 3):
    """Every pair of a stage is a non-negative combination of the previous
    stage; an LP checks a seeded sample of pairs per stage."""
    problems = []
    for s, (prev, cur) in enumerate(zip(stages, stages[1:]), start=1):
        for target in rng.sample(cur, min(per_stage, len(cur))):
            if not in_cone(prev, target):
                problems.append(f"stage {s}: {target} is outside the cone "
                                "of the previous stage")
    return problems


def log_level(e, log_tau: dict[int, float]) -> float:
    """log of a level tree at scales exp(log_tau)."""
    if e.kind == "mono":
        return sum(float(x) * log_tau[v.index] for v, x in e.mono.exps)
    vals = [log_level(c, log_tau) for c in e.children]
    if e.kind == "max":
        return max(vals)
    if e.kind == "min":
        return min(vals)
    if e.kind == "prod":
        return sum(vals)
    return float(e.exp) * vals[0]


def check_level_roundtrip(rho: dict, a, sel_cols, rng, points: int = 3):
    """sum_j a_jk log rho_j(tau) = log tau_k for every selected column."""
    problems = []
    for _ in range(points):
        log_tau = {k: rng.uniform(-2.0, 2.0) for k in sel_cols}
        log_rho = {j: log_level(e, log_tau) for j, e in rho.items()}
        for k in sel_cols:
            got = sum(float(a[j - 1][k - 1]) * log_rho[j] for j in rho)
            if abs(got - log_tau[k]) > 1e-9 * (1.0 + abs(log_tau[k])):
                problems.append(f"round trip of column {k}: {got} vs "
                                f"{log_tau[k]}")
    return problems


def tropical_exponent(e, scaling: dict[int, Fraction]) -> Fraction:
    """Exact exponent of t in e after tau_k -> t^scaling[k], as t -> 0+."""
    if e.kind == "mono":
        return sum((scaling.get(v.index, 0) * x for v, x in e.mono.exps),
                   Fraction(0))
    vals = [tropical_exponent(c, scaling) for c in e.children]
    if e.kind == "max":
        return min(vals)
    if e.kind == "min":
        return max(vals)
    if e.kind == "prod":
        return sum(vals, Fraction(0))
    return e.exp * vals[0]


def check_orbit_decay(rho: dict, a) -> list[str]:
    """Each level decays along its own action's orbit."""
    problems = []
    for j, e in rho.items():
        scaling = {k: Fraction(x) for k, x in enumerate(a[j - 1], start=1)}
        if tropical_exponent(e, scaling) <= 0:
            problems.append(f"level {j} does not decay along its orbit")
    return problems


def check_closure_factors(entries) -> list[str]:
    """Each closure entry is the product of its recorded factors."""
    problems = []
    for entry in entries:
        f: dict[str, Fraction] = {}
        v: dict[str, Fraction] = {}
        zero = False
        for q, n in entry.factors:
            for key, x in exps_of(q).items():
                f[key] = f.get(key, 0) + n * x
            if q.v.is_zero:
                zero = True
            else:
                for var, x in q.v.mono.exps:
                    v[var.json_key()] = v.get(var.json_key(), 0) + n * x
        pv = entry.pair.v
        want_v = None if zero else {k: x for k, x in v.items() if x}
        got_v = None if pv.is_zero else {var.json_key(): x
                                         for var, x in pv.mono.exps}
        if {k: x for k, x in f.items() if x} != exps_of(entry.pair) or \
                want_v != got_v:
            problems.append(f"closure entry {entry.pair} is not the product "
                            "of its factors")
    return problems


def check_projection(system, k: int) -> list[str]:
    problems = [f"block {k} is still listed"] if k in system.blocks else []
    problems += [f"row {i.f} mentions the dropped block {k}"
                 for i in system.inequalities
                 if any(v.index == k for v, _ in i.f.exps)]
    return problems


# --- sample -------------------------------------------------------------------

def _log_value(value, xi_norms) -> float:
    return sum(float(x) * math.log(xi_norms.get(var.index, 1.0))
               for var, x in value.mono.exps)


def log_member(system, norms: dict[int, float], eps: float) -> bool:
    """Membership of an open system, evaluated in the log domain."""
    if any(norms.get(k, 0.0) <= 0.0 for k in system.blocks):
        return False
    log_n = {k: math.log(norms[k]) for k in system.blocks}
    for ineq in system.inequalities:
        lhs = sum(float(x) * log_n[v.index] for v, x in ineq.f.exps)
        hi = lo = 0.0
        for value, a in ineq.bound.factors:
            centre = 0.0 if value.is_zero else \
                math.exp(_log_value(value, system.norms))
            hi += float(a) * math.log(centre + eps)
            lo = -math.inf if centre - eps <= 0 else \
                lo + float(a) * math.log(centre - eps)
        if not lo < lhs < hi:
            return False
    return True


def check_members(system, points, requested: int, eps: float) -> list[str]:
    problems = [] if len(points) == requested else \
        [f"{len(points)} of {requested} points"]
    bad = sum(1 for q in points if not log_member(system, q, eps))
    if bad:
        problems.append(f"{bad} accepted points fail the system")
    return problems


def check_value_roundtrip(levels: list[dict], points, a, sel_cols):
    """prod_j rho_j^(a_jk) = tau_k at each sampled point, within 1e-10."""
    bad = 0
    for rho, q in zip(levels, points):
        for k in sel_cols:
            got = sum(float(a[j - 1][k - 1]) * math.log(r)
                      for j, r in rho.items())
            if abs(got - math.log(q[k])) > 1e-10:
                bad += 1
    return [f"{bad} round trips off by more than 1e-10"] if bad else []


def brute_template(terms, a, dims, sigma: Fraction, orders) -> dict:
    """Inclusion-exclusion of truncations: a term survives the truncation
    for an action subset J when each of its weights in J is below the
    order."""
    ell = len(a)
    block = [k for k, n in enumerate(dims) for _ in range(n)]
    out: dict[tuple, Fraction] = {}
    for idx, c in terms:
        length = [0] * len(dims)
        for coord, e in enumerate(idx):
            length[block[coord]] += e
        w = [sigma * sum(Fraction(a[j][k]) * length[k]
                         for k in range(len(dims))) for j in range(ell)]
        for size in range(1, ell + 1):
            for subset in combinations(range(ell), size):
                if all(w[j] < orders[j] for j in subset):
                    sign = 1 if size % 2 else -1
                    out[idx] = out.get(idx, 0) + sign * c
    return {i: c for i, c in out.items() if c != 0}


def check_template(got_terms, want: dict) -> list[str]:
    return [] if dict(got_terms) == want else \
        ["template differs from the brute-force inclusion-exclusion"]
