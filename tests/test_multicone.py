import math

import numpy as np
import pytest

from multispec.deformation import deformation, point
from multispec.monomials import pair
from multispec.multicone import (build_multicone, closure, project,
                                 contraction_stable_check, sample_members,
                                 normal_cone_probe, ProbeOutcome,
                                 ClosureCapExceeded, SystemKind)
from multispec.semigroup import run_pipeline


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


def test_member_cone_flags():
    _, s = system_for([[1, 0], [0, 1]])
    good = {1: 0.01, 2: 0.01}
    assert s.member(good, 0.1)
    assert not s.member(good, 0.1, cone_ok={1: False})


def test_projection_examples():
    _, tak = system_for([[1, 1], [0, 1]])
    dropped = project(tak, 2, k_in_JZ=True)
    assert [str(i.f) for i in dropped.inequalities] == ["t1"]
    paired = project(tak, 1, k_in_JZ=False)
    assert [str(i.f) for i in paired.inequalities] == ["t2"]
    assert paired.member({2: 0.1 * 0.1 * 0.9}, 0.1)
    assert not paired.member({2: 0.1 * 0.1 * 1.1}, 0.1)
    # a system without the block is unchanged
    again = project(dropped, 2, k_in_JZ=True)
    assert again.inequalities == dropped.inequalities


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


def test_closure_fixpoint_cap():
    d = deformation([[1, 0, 1], [0, 1, 1], [1, 1, 1]])
    pl = run_pipeline(d, None, point())
    with pytest.raises(ClosureCapExceeded):
        closure(pl, rounds=None, cap=50)


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


def test_starved_contraction_check_fails():
    # exponents in the hundreds underflow every inequality to 0 < 0, so the
    # sampler accepts no point; that must not read as a pass
    _, system = system_for([["1/2", "3", "3"], ["0", "2", "1/2"],
                            ["2", "0", "3"], ["1", "2", "1"],
                            ["2", "3", "3/2"], ["3/2", "0", "1"],
                            ["1", "2", "2"], ["0", "3/2", "3"]])
    report = contraction_stable_check(system, 5, rng_seed=1)
    assert (report.requested, report.sampled, report.violations) == (5, 0, 0)
    assert not report.passed


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


def test_probe_directions():
    d = deformation([[1, 0, 1], [0, 1, 1]])
    p = point(norms={3: 1.0})
    pl = run_pipeline(d, None, p)
    res = normal_cone_probe(pl, p, _Graph(), samples=1500,
                            directions={3: [1.0]}, aperture=0.5)
    assert res.outcome is ProbeOutcome.IN_CONE
    res = normal_cone_probe(pl, p, _Graph(), samples=400,
                            directions={3: [-1.0]}, aperture=0.5)
    assert res.outcome is ProbeOutcome.NOT_IN_CONE


def test_system_text_mentions_key_inequality():
    pl, s226 = system_for([[1, 0, 1], [0, 1, 1]], zeros={1, 2},
                          complement_block={9})
    lines = s226.text()
    assert "|z1|*|z2| < eps*|z3|" in lines
    assert any(line.startswith("|z0|") for line in lines)


def test_member_per_pair_bounds():
    _, s = system_for([[1, 0], [0, 1]])
    good = {1: 0.05, 2: 0.15}
    assert not s.member(good, 0.1)
    per = {0: (0.1, 0.1), 1: (0.2, 0.2)}
    assert s.member(good, per)
