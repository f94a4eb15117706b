import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from multispec.deformation import deformation, point
from multispec.monomials import pair, sorted_pairs, tau
from multispec.multicone import (build_multicone, closure, project,
                                 contraction_stable_check, sample_members,
                                 normal_cone_probe, ProbeOutcome,
                                 CLOSURE_CAP, ClosureCapExceeded,
                                 ClosureEntry,
                                 ContractionReport, MulticoneSystem,
                                 SystemKind)
from multispec.semigroup import run_pipeline
from oracles import (balanced, pair_product, product_contraction_check,
                     product_sample_members)
from strategies import pipeline_of, scenarios


def system_for(rows, zeros=frozenset(), **kw):
    d = deformation(rows, **kw)
    p = point(zero_blocks=zeros)
    pl = run_pipeline(d, None, p)
    return pl, build_multicone(pl, p, check_equivalence=False)


def test_build_checks_equivalence():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(zero_blocks={1, 2})
    pl = run_pipeline(d, None, p)
    system = build_multicone(pl, p)  # must not raise
    assert len(system.inequalities) == 5
    assert system.one_sided


def test_member_examples():
    _, cusp = system_for([[3, 2], [1, 1]])
    # a contraction-generated interior point
    assert cusp.member({1: 6.25e-6, 2: 1.25e-4}, 0.1)
    assert not cusp.member({1: 0.5, 2: 0.5}, 0.1)
    # boundary points of strict systems stay outside
    _, tak = system_for([[1, 1], [0, 1]])
    assert not tak.member({1: 0.1, 2: 0.001}, 0.1)
    # vanishing norms are fine exactly on the zero pattern
    pl, s226 = system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2})
    assert s226.member({1: 0.0, 2: 0.0, 3: 0.05}, 0.1)
    assert not s226.member({1: 0.01, 2: 0.01, 3: 0.0}, 0.1)


def test_projection_examples():
    _, tak = system_for([[1, 1], [0, 1]])
    dropped = project(tak, 2, k_in_JZ=True)
    assert [str(i.f) for i in dropped.inequalities] == ["t1"]
    paired = project(tak, 1, k_in_JZ=False)
    assert [str(i.f) for i in paired.inequalities] == ["t2"]
    assert paired.member({2: 0.1 * 0.1 * 0.9}, 0.1)
    assert not paired.member({2: 0.1 * 0.1 * 1.1}, 0.1)
    # a block the system does not have cannot be dropped
    for system, k in ((dropped, 2), (tak, 3)):
        with pytest.raises(ValueError, match=f"block {k} is not a block"):
            project(system, k)


def test_projection_fiber_agreement():
    # a point lies in the projection iff some fiber value completes it:
    # the geometric mean of the two one-sided bounds is an exact witness
    rng = np.random.default_rng(3)
    pl, tak = system_for([[1, 1], [0, 1]])
    paired = project(tak, 1, k_in_JZ=False)
    eps = 0.1
    hits = 0
    for _ in range(200):
        t2 = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.5))))
        in_proj = paired.member({2: t2}, eps)
        witness = math.sqrt(t2)
        if in_proj:
            hits += 1
            assert tak.member({1: witness, 2: t2}, eps)
        else:
            # outside the projection no fiber value can work
            assert not tak.member({1: witness, 2: t2}, eps)
            for t1 in np.exp(rng.uniform(np.log(1e-8), np.log(1.0), 200)):
                assert not tak.member({1: float(t1), 2: t2}, eps)
    assert hits > 0


def test_closure_contains_open_system():
    pl, s226 = system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2})
    cl = closure(pl)
    rng = np.random.default_rng(5)
    for norms in sample_members(s226, 200, 0.1, rng):
        assert cl.system.member(norms, 0.1)


def test_closure_excludes_fake_boundary():
    d = deformation([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    pl = run_pipeline(d, None, point())
    cl = closure(pl)
    names = {str(e.pair.f) for e in cl.entries}
    assert {"t1", "t2"} <= names
    assert not cl.system.member({1: 0.0, 2: 0.2, 3: 0.0}, 0.1)
    assert cl.system.member({1: 0.0, 2: 0.005, 3: 0.0}, 0.1)
    assert cl.system.kind is SystemKind.CLOSED


def test_closure_cap():
    # opposite-sign cycles: the closure grows every round (3,306 entries
    # after 20) until it passes CLOSURE_CAP
    d = deformation([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    pl = run_pipeline(d, None, point())
    with pytest.raises(ClosureCapExceeded,
                       match=f"exceeded {CLOSURE_CAP} elements"):
        closure(pl, rounds=25)


def _closure_entries_oracle(pl, rounds):
    """The closure entries by the literal rule: each round balances every
    (new, base) and (base, new) couple of entries on every selected column
    where their exponents have opposite signs, looking each exponent up
    afresh; a product met again keeps its first factors."""
    base = [ClosureEntry(pr, ((pr, 1),)) for pr in sorted_pairs(pl.Fq)]
    entries = {e.pair: e for e in base}
    frontier = base
    for _ in range(rounds):
        fresh = []
        for pool_a, pool_b in ((frontier, base), (base, frontier)):
            for ea in pool_a:
                for eb in pool_b:
                    for k in pl.r.sel_cols:
                        ef = ea.pair.f.exponent(tau(k))
                        eg = eb.pair.f.exponent(tau(k))
                        if not (ef > 0 and eg < 0):
                            continue
                        a, b = balanced(ef, eg)
                        prod = pair_product(((ea.pair, a), (eb.pair, b)))
                        if prod in entries:
                            continue
                        fac = {}
                        for q, n in ea.factors:
                            fac[q] = fac.get(q, 0) + n * a
                        for q, n in eb.factors:
                            fac[q] = fac.get(q, 0) + n * b
                        entries[prod] = ClosureEntry(prod, tuple(sorted(
                            fac.items(), key=lambda t: t[0].sort_key())))
                        fresh.append(entries[prod])
        frontier = fresh
    return tuple(sorted(entries.values(), key=lambda e: e.pair.sort_key()))


@settings(max_examples=40, deadline=None)
@given(scenarios(max_rows=3, max_cols=3), st.sampled_from([1, 2]))
def test_closure_matches_literal_rule(sc, rounds):
    pl = pipeline_of(*sc)
    assert closure(pl, rounds=rounds).entries == \
        _closure_entries_oracle(pl, rounds)


def test_closure_matches_literal_rule_on_examples():
    for rows, zeros in (([[1, 0, 1], [0, 1, 1], [1, 1, 1]], ()),
                        ([[1, 0, 1], [0, 1, 1]], (1, 2)),
                        ([[1, 1, 0], [0, 1, 1], [1, 0, 1]], ())):
        pl = pipeline_of(rows, zeros)
        for rounds in (1, 2, 3):
            assert closure(pl, rounds=rounds).entries == \
                _closure_entries_oracle(pl, rounds)


def test_contraction_stability():
    for rows, zeros in (([[1, 0], [0, 1]], set()),
                        ([[3, 2], [1, 1]], set()),
                        ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1],
                          [1, 1, 1, 1]], set())):
        pl, system = system_for(rows, zeros=zeros)
        report = contraction_stable_check(system, 300, rng_seed=9)
        assert report.sampled > 0
        assert report.violations == 0
        assert report.passed


# Exponents in the hundreds underflow every inequality of its multicone to
# 0 < 0, so the sampler accepts no point.
UNDERFLOW_8X3 = [["1/2", "3", "3"], ["0", "2", "1/2"], ["2", "0", "3"],
                 ["1", "2", "1"], ["2", "3", "3/2"], ["3/2", "0", "1"],
                 ["1", "2", "2"], ["0", "3/2", "3"]]


def test_starved_contraction_check_fails():
    # a sampler that accepts no point must not read as a pass
    _, system = system_for(UNDERFLOW_8X3)
    report = contraction_stable_check(system, 5, rng_seed=1)
    assert (report.requested, report.sampled, report.violations) == (5, 0, 0)
    assert not report.passed


_BAD_EPS = pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf],
                                   ids=["zero", "negative", "nan", "inf"])


@_BAD_EPS
def test_sample_members_rejects_an_eps_it_cannot_sample(eps):
    # such an eps would spend all 200 * n tries on NaN candidates
    _, system = system_for([[3, 2], [1, 1]])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError,
                       match=f"^eps must be finite and positive, got {eps}$"):
        sample_members(system, 5, eps, rng)


@_BAD_EPS
def test_contraction_check_rejects_an_eps_it_cannot_sample(eps):
    _, system = system_for([[3, 2], [1, 1]])
    with pytest.raises(ValueError,
                       match=f"^eps must be finite and positive, got {eps}$"):
        contraction_stable_check(system, 5, rng_seed=0, eps=eps)


@pytest.mark.parametrize("samples", [0, -1])
def test_contraction_check_rejects_no_samples(samples):
    # with nothing requested, nothing sampled would read as a pass
    _, system = system_for([[3, 2], [1, 1]])
    with pytest.raises(ValueError,
                       match=f"^need at least one sample, got {samples}$"):
        contraction_stable_check(system, samples, rng_seed=0)


def test_projected_systems_contraction_stable():
    pl, tak = system_for([[1, 1], [0, 1]])
    paired = project(tak, 1, k_in_JZ=False)
    rng = np.random.default_rng(13)
    eps = 0.1
    for _ in range(200):
        t2 = float(np.exp(rng.uniform(np.log(1e-8), np.log(eps ** 2 * 0.99))))
        if not paired.member({2: t2}, eps):
            continue
        lam = rng.uniform(0.05, 1.0)
        # the induced action scales the surviving block by both parameters
        assert paired.member({2: t2 * lam}, eps)


class _Graph:
    def __init__(self):
        pass

    def sample(self, rng, scale):
        t = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        s = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        return {1: t, 2: s, 3: t * s}

    def contains(self, z):
        return abs(z[3] - z[1] * z[2]) < 1e-12


class _Plane:
    def sample(self, rng, scale):
        t = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        s = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        return {1: t, 2: s, 3: 0.0}

    def contains(self, z):
        return z[3] == 0.0


class _Empty:
    def sample(self, rng, scale):
        return None

    def contains(self, z):
        return False


def test_normal_cone_probe():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(norms={3: 1.0})
    pl = run_pipeline(d, None, p)
    assert normal_cone_probe(pl, p, _Graph(), samples=1500).outcome is \
        ProbeOutcome.IN_CONE
    assert normal_cone_probe(pl, p, _Plane(), samples=600).outcome is \
        ProbeOutcome.NOT_IN_CONE
    assert normal_cone_probe(pl, p, _Empty(), samples=50).outcome is \
        ProbeOutcome.NOT_IN_CONE
    # a verdict needs at least one sample per scale
    with pytest.raises(ValueError, match="at least one sample"):
        normal_cone_probe(pl, p, _Graph(), samples=0)


def test_probe_directions():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(norms={3: 1.0})
    pl = run_pipeline(d, None, p)
    res = normal_cone_probe(pl, p, _Graph(), samples=1500,
                            directions={3: [1.0]})
    assert res.outcome is ProbeOutcome.IN_CONE
    res = normal_cone_probe(pl, p, _Graph(), samples=400,
                            directions={3: [-1.0]})
    assert res.outcome is ProbeOutcome.NOT_IN_CONE


class _OnZeroPattern:
    """Points vanishing on blocks 1 and 2, with z3 a log-uniform multiple
    of the given 2-element array."""

    def __init__(self, z3):
        self.z3 = np.asarray(z3, dtype=float)

    def sample(self, rng, scale):
        t = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        return {1: 0.0, 2: np.zeros(2), 3: t * self.z3}

    def contains(self, z):
        return True


def test_probe_checks_directions_off_the_zero_pattern_only():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(zero_blocks={1, 2})
    pl = run_pipeline(d, None, p)
    plain = normal_cone_probe(pl, p, _OnZeroPattern([1.0, 0.5]), samples=50)
    assert plain.outcome is ProbeOutcome.IN_CONE
    # directions on zero-pattern blocks, even against zero samples or with
    # zero axes, never change the outcome
    for directions in ({1: [1.0]}, {1: [-1.0], 2: [0.0, 0.0]},
                       {2: [1.0, 1.0]}):
        assert normal_cone_probe(pl, p, _OnZeroPattern([1.0, 0.5]),
                                 samples=50, directions=directions) == plain
    # on a nonzero block the sample must lie within 0.5 rad of a nonzero axis
    for axis, want in (([2.0, 1.0], ProbeOutcome.IN_CONE),
                       ([1.0, -1.0], ProbeOutcome.NOT_IN_CONE),
                       ([0.0, 0.0], ProbeOutcome.NOT_IN_CONE)):
        res = normal_cone_probe(pl, p, _OnZeroPattern([1.0, 0.5]),
                                samples=50, directions={3: axis})
        assert res.outcome is want
    # and a zero sample on a nonzero block with a direction is never a member
    res = normal_cone_probe(pl, p, _OnZeroPattern([0.0, 0.0]), samples=50,
                            directions={3: [1.0, 0.5]})
    assert res.outcome is ProbeOutcome.NOT_IN_CONE
    assert set(res.hits.values()) == {0}


class _MixedGraph:
    """The graph |z3| = |z1|*|z2| with z1 a float of the given sign and z3
    a 2-element array; z3_scale = 0 puts z3 at the origin."""

    def __init__(self, z1_sign, z3_scale):
        self.z1_sign = z1_sign
        self.z3_scale = z3_scale

    def sample(self, rng, scale):
        t = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        s = float(np.exp(rng.uniform(np.log(scale * 1e-3), np.log(scale))))
        return {1: self.z1_sign * t, 2: s,
                3: self.z3_scale * t * s * np.array([-0.5, 1.0])}

    def contains(self, z):
        return True


class _AsArrays:
    """The points of another set, every block sample a numpy array."""

    def __init__(self, inner):
        self.inner = inner

    def sample(self, rng, scale):
        return {k: np.atleast_1d(np.asarray(v, dtype=float))
                for k, v in self.inner.sample(rng, scale).items()}

    def contains(self, z):
        return True


def test_probe_reads_float_and_array_samples_alike():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(norms={3: 1.0})
    pl = run_pipeline(d, None, p)
    for z1_sign, z3_scale, directions, want in (
            (-1.0, 1.0, None, ProbeOutcome.IN_CONE),
            (1.0, 0.0, None, ProbeOutcome.NOT_IN_CONE),
            (-1.0, 1.0, {1: [-1.0]}, ProbeOutcome.IN_CONE),
            (-1.0, 1.0, {1: [1.0]}, ProbeOutcome.NOT_IN_CONE)):
        for seed in (0, 1, 2):
            Z = _MixedGraph(z1_sign, z3_scale)
            got = normal_cone_probe(pl, p, Z, samples=300, seed=seed,
                                    directions=directions)
            assert got == normal_cone_probe(pl, p, _AsArrays(Z), samples=300,
                                            seed=seed, directions=directions)
            assert got.outcome is want


def test_system_text_mentions_key_inequality():
    pl, s226 = system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2},
                          complement_block={9})
    lines = s226.text()
    assert "|z1|*|z2| < eps*|z3|" in lines
    assert any(line.startswith("|z0|") for line in lines)


# The scalar evaluation, kept as the oracle of the compiled one: every call
# re-derives the floats from the exact inequalities.

def _eval_parts(ineq, norms):
    num, den = ineq.split()
    nv = dv = 1.0
    for v, e in num.exps:
        nv *= float(norms.get(v.index, 0.0)) ** float(e)
    for v, e in den.exps:
        dv *= float(norms.get(v.index, 0.0)) ** float(e)
    return nv, dv


def _upper(bound, eps, xi_norms):
    out = 1.0
    for v, a in bound.factors:
        out *= (v.evaluate(xi_norms) + eps) ** float(a)
    return out


def _lower(bound, eps, xi_norms, clamp):
    out = 1.0
    for v, a in bound.factors:
        base = v.evaluate(xi_norms) - eps
        if base <= 0:
            return 0.0 if clamp else -math.inf
        out *= base ** float(a)
    return out


def _scalar_member(system, norms, eps):
    open_kind = system.kind is SystemKind.OPEN
    for k in system.blocks:
        val = float(norms.get(k, 0.0))
        if val < 0 or (open_kind and val == 0.0
                       and k not in system.zero_blocks):
            return False
    for ineq in system.inequalities:
        nv, dv = _eval_parts(ineq, norms)
        hi = _upper(ineq.bound, float(eps), system.norms)
        lo = _lower(ineq.bound, float(eps), system.norms, clamp=not open_kind)
        if open_kind:
            if not (lo * dv < nv < hi * dv):
                return False
        elif not (lo * dv <= nv <= hi * dv):
            return False
    return True


def _scalar_log_norm(log_base, log_jitter, lam_logs, col):
    """exp(log base + log jitter + sum_j a_jk log lam_j), summed in action
    order; numpy's scalar exp and log round as its array lanes do."""
    acc = log_base + log_jitter
    for lam_log, a in zip(lam_logs, col):
        acc += float(a) * lam_log
    return float(np.exp(np.float64(acc)))


def _scalar_sample_members(system, n, eps, rng, margin=0.05):
    ell = len(system.action_rows)
    out = []
    tries = 0
    shrunk = eps * (1.0 - margin)
    while len(out) < n and tries < 200 * n:
        tries += 1
        lam_logs = rng.uniform(np.log(eps * 1e-3), np.log(eps * 0.9), ell)
        jitter = rng.uniform(0.9, 1.1, len(system.blocks))
        norms = {}
        for pos, k in enumerate(system.blocks):
            if k in system.zero_blocks:
                log_base = rng.uniform(np.log(1e-6), np.log(0.5))
            else:
                log_base = np.log(np.float64(system.norms.get(k, 1.0)))
            norms[k] = _scalar_log_norm(
                float(log_base), float(np.log(jitter[pos])),
                [float(x) for x in lam_logs],
                [row[k - 1] for row in system.action_rows])
        if _scalar_member(system, norms, shrunk):
            out.append(norms)
    return out


def _scalar_contraction_check(system, samples, rng_seed, eps=0.1):
    rng = np.random.default_rng(rng_seed)
    pts = _scalar_sample_members(system, samples, eps, rng)
    ell = len(system.action_rows)
    failures = []
    checked = 0
    for norms in pts:
        lam_vec = rng.uniform(0.05, 1.0, ell)
        lam_logs = [float(np.log(x)) for x in lam_vec]
        moved = {k: norms[k] * _scalar_log_norm(
                     0.0, 0.0, lam_logs,
                     [row[k - 1] for row in system.action_rows])
                 for k in system.blocks}
        checked += 1
        if not _scalar_member(system, moved, eps):
            failures.append((norms, tuple(lam_vec)))
    return ContractionReport(samples, len(pts), checked, len(failures),
                             failures)


def test_member_reads_a_missing_block_as_zero():
    _, s226 = system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2})
    assert s226.member({3: 0.05}, 0.1)
    assert s226.member({1: 0.0, 2: 0.0, 3: 0.05}, 0.1)
    d = deformation([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    closed = closure(run_pipeline(d, None, point())).system
    assert closed.member({2: 0.005}, 0.1)
    assert closed.member({1: 0.0, 2: 0.005, 3: 0.0}, 0.1)
    # off the zero pattern a missing block is a vanishing norm, not allowed
    _, s = system_for([[1, 0], [0, 1]])
    assert not s.member({1: 0.01}, 0.1)


_EPS = st.sampled_from([0.05, 0.1, 0.2])
_EPS_SIDE = st.floats(0.01, 0.3)


@st.composite
def _systems(draw):
    pl = pipeline_of(*draw(scenarios(max_rows=3, max_cols=3)))
    system = build_multicone(pl, check_equivalence=False)
    form = draw(st.sampled_from(["open", "closed", "project",
                                 "closed-project"]))
    if form.startswith("closed"):
        system = closure(pl).system
    if form.endswith("project"):
        k = draw(st.sampled_from(system.blocks))
        try:
            system = project(system, k)
        except ValueError:  # negative exponents on a vanishing block
            assume(False)
    if draw(st.booleans()):
        system = replace(system, has_x0=True)
    return system


@st.composite
def _norms(draw, system):
    """Block norms near the system: contractions of the base norms, with
    vanishing, missing and unrelated norms on and off the zero pattern."""
    lams = [draw(st.floats(1e-4, 0.2)) for _ in system.action_rows]
    norms = {}
    for k in system.blocks:
        how = draw(st.sampled_from(["contracted"] * 4
                                   + ["zero", "missing", "free"]))
        if how == "contracted":
            scale = 1.0
            for lam, row in zip(lams, system.action_rows):
                scale *= lam ** float(row[k - 1])
            norms[k] = (float(system.norms.get(k, 1.0)) * scale
                        * draw(st.floats(0.5, 2.0)))
        elif how == "zero":
            norms[k] = 0.0
        elif how == "free":
            norms[k] = draw(st.floats(1e-6, 1.0))
    return norms


@settings(max_examples=60, deadline=None)
@given(_systems(), st.data())
def test_member_matches_scalar_oracle(system, data):
    # member, and the compiled check on the norms as a list in blocks order
    for _ in range(20):
        norms = data.draw(_norms(system))
        eps = data.draw(_EPS | _EPS_SIDE)
        want = _scalar_member(system, norms, eps)
        assert system.member(norms, eps) is want
        vals = [float(norms.get(k, 0.0)) for k in system.blocks]
        assert system.check(eps)(vals) is want


def test_compiled_check_matches_scalar_oracle_on_examples():
    # closed and projected systems, zero norms and missing blocks
    d = deformation([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    closed = closure(run_pipeline(d, None, point())).system
    _, tak = system_for([[1, 1], [0, 1]])
    paired = project(tak, 1, k_in_JZ=False)
    _, s226 = system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2})
    cases = [(closed, {2: 0.005}), (closed, {1: 0.0, 2: 0.005, 3: 0.0}),
             (closed, {1: 0.0, 2: 0.2, 3: 0.0}), (closed, {2: -0.005}),
             (paired, {2: 0.1 * 0.1 * 0.9}), (paired, {2: 0.1 * 0.1 * 1.1}),
             (paired, {}), (paired, {2: 0.0}), (s226, {3: 0.05}),
             (s226, {1: 0.0, 2: 0.0, 3: 0.05}),
             (s226, {1: 0.01, 2: 0.01, 3: 0.0})]
    outcomes = set()
    for system, norms in cases:
        want = _scalar_member(system, norms, 0.1)
        check = system.check(0.1)
        assert check is system.check(0.1)  # compiled once per eps
        assert check([norms.get(k, 0.0) for k in system.blocks]) is want
        assert system.member(norms, 0.1) is want
        outcomes.add(want)
    assert outcomes == {True, False}


CRITERION_7_RIGS = ([[1, 0], [0, 1]], [[3, 2], [1, 1]],
                    [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1], [1, 1, 1, 1]],
                    [[1, 1], [0, 1]], [[1, 0, 1], [0, 1, 1], [0, 0, 1], [1, 1, 1]])


def test_sample_members_replays_scalar_sampler():
    systems = [system_for(rows)[1] for rows in CRITERION_7_RIGS]
    systems.append(system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2})[1])
    for seed, system in enumerate(systems, start=500):
        got = sample_members(system, 300, 0.1, np.random.default_rng(seed))
        want = _scalar_sample_members(system, 300, 0.1,
                                      np.random.default_rng(seed))
        assert len(got) == 300
        assert got == want


def test_contraction_check_replays_scalar_check():
    systems = [system_for(rows)[1] for rows in CRITERION_7_RIGS[:3]]
    for seed, system in enumerate(systems, start=100):
        got = contraction_stable_check(system, 300, rng_seed=seed)
        assert got == _scalar_contraction_check(system, 300, rng_seed=seed)
        assert got.sampled == 300
    # the staircase under separated actions, which move points out of it,
    # so that the failures are replayed too
    _, tak = system_for([[1, 1], [0, 1]])
    _, sep = system_for([[1, 0], [0, 1]])
    moved = replace(tak, action_rows=sep.action_rows)
    got = contraction_stable_check(moved, 50, rng_seed=7)
    assert got == _scalar_contraction_check(moved, 50, rng_seed=7)
    assert got.violations > 0


@settings(max_examples=40, deadline=None)
@given(_systems(), st.integers(0, 2 ** 32 - 1), st.integers(1, 40), _EPS_SIDE)
def test_batched_draws_leave_the_generator_where_scalar_draws_do(
        system, seed, n, eps):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    assert sample_members(system, n, eps, rng) == \
        _scalar_sample_members(system, n, eps, oracle)
    assert rng.random() == oracle.random()
    # contraction_stable_check seeds its own generator: record it
    made = []

    def recording(seed_):
        made.append(np.random.Generator(np.random.PCG64(seed_)))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", recording)
        got = contraction_stable_check(system, n, rng_seed=seed, eps=eps)
        want = _scalar_contraction_check(system, n, rng_seed=seed, eps=eps)
    assert got == want
    assert made[0].random() == made[1].random()


@pytest.fixture
def check_calls(monkeypatch):
    """One entry per candidate that a compiled `MulticoneSystem.check`
    tests."""
    calls = []
    compiled = MulticoneSystem.check

    def counting(self, eps):
        check = compiled(self, eps)

        def counted(vals):
            calls.append(None)
            return check(vals)
        return counted

    monkeypatch.setattr(MulticoneSystem, "check", counting)
    return calls


# The seeded underflow systems of the benchmark corpus, as
# perfbench/corpus.py rebuilds them: random_matrix(random.Random(name), 8, 3,
# HALF_STEPS) for the names underflow-8x3-0 and underflow-8x3-2.
UNDERFLOW_SEEDED = (
    [["3", "1/2", "2"], ["3/2", "3/2", "3/2"], ["1/2", "1/2", "3/2"],
     ["3", "2", "1"], ["1/2", "1", "3/2"], ["3", "2", "0"],
     ["1/2", "1", "1/2"], ["0", "3", "3"]],
    [["0", "2", "1/2"], ["0", "3/2", "3/2"], ["3/2", "0", "0"],
     ["3", "0", "1/2"], ["3", "3/2", "1"], ["2", "3", "0"], ["3", "2", "0"],
     ["2", "1", "2"]])


def _same_points(got, want):
    """The same points in the same order, each coordinate within 1e-12
    relative."""
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert p.keys() == q.keys()
        assert all(p[k] == pytest.approx(q[k], rel=1e-12, abs=0) for k in p)


def _matches_product_route(system, n, eps, seed):
    """The log-domain samplers against the float-product oracle: the same
    accepted candidates and generator position, and the same contraction
    report up to the rounding of the points."""
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    _same_points(sample_members(system, n, eps, rng),
                 product_sample_members(system, n, eps, oracle))
    assert rng.random() == oracle.random()
    got = contraction_stable_check(system, n, rng_seed=seed, eps=eps)
    want = product_contraction_check(system, n, rng_seed=seed, eps=eps)
    assert (got.requested, got.sampled, got.checked, got.violations) == \
        (want.requested, want.sampled, want.checked, want.violations)
    _same_points([norms for norms, _ in got.failures],
                 [norms for norms, _ in want.failures])
    assert [lams for _, lams in got.failures] == \
        [lams for _, lams in want.failures]
    return got


def test_log_domain_samplers_match_the_float_products_on_the_rigs():
    systems = [system_for(rows)[1] for rows in CRITERION_7_RIGS]
    systems.append(system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2})[1])
    for seed, system in enumerate(systems, start=500):
        assert _matches_product_route(system, 300, 0.1, seed).sampled == 300
    _, tak = system_for([[1, 1], [0, 1]])
    _, sep = system_for([[1, 0], [0, 1]])
    moved = replace(tak, action_rows=sep.action_rows)
    got = _matches_product_route(moved, 50, 0.1, 7)
    assert (got.sampled, got.violations) == (50, 8)


def test_underflow_systems_starve_on_both_routes(check_calls):
    for rows in (UNDERFLOW_8X3, *UNDERFLOW_SEEDED):
        _, system = system_for(rows)
        for sampler in (sample_members, product_sample_members):
            check_calls.clear()
            assert sampler(system, 20, 0.1, np.random.default_rng(1)) == []
            assert len(check_calls) == 4000
        report = _matches_product_route(system, 20, 0.1, 1)
        assert (report.sampled, report.violations) == (0, 0)


@settings(max_examples=40, deadline=None)
@given(_systems(), st.integers(0, 2 ** 32 - 1), st.integers(1, 40), _EPS_SIDE)
def test_log_domain_samplers_match_the_float_products(system, seed, n, eps):
    _matches_product_route(system, n, eps, seed)


def test_starved_sampler_stops_after_200_n_tries(check_calls):
    _, system = system_for(UNDERFLOW_8X3)
    rng = np.random.default_rng(1)
    assert sample_members(system, 20, 0.1, rng) == []
    assert len(check_calls) == 4000
    # 8 parameters and 3 jitters per candidate, no zero-pattern block
    skipped = np.random.default_rng(1)
    skipped.random(4000 * 11)
    oracle = np.random.default_rng(1)
    assert _scalar_sample_members(system, 20, 0.1, oracle) == []
    assert rng.random() == oracle.random() == skipped.random()
