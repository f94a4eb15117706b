"""Negative controls for the corpus checkers: each shared checker of
`multispec.fixtures` passes on the documented expectation and fails on one
wrong expectation, so no fixture check can pass vacuously."""

from fractions import Fraction

from multispec import fixtures
from multispec.fixtures import (_class_check, _eq_sets, _level_checks,
                                _pipeline, _radical_check, _remainder_checks,
                                _running_example, _system_check, _cone,
                                _verdict_check, _t, gs)
from multispec.monomials import pair
from multispec.restriction import check_restriction
from multispec.semigroup import Verdict, radical_member


def test_eq_sets_needs_the_same_set():
    assert _eq_sets("F", gs("t1", "t2"), gs("t2", "t1")).ok
    assert not _eq_sets("F", gs("t1", "t2"), gs("t1")).ok
    assert not _eq_sets("F", gs("t1"), gs(("t1", "x1"))).ok


def test_verdict_check_needs_the_verdict_and_the_witnesses():
    planes = [[1, 0, 1], [0, 1, 1], [0, 0, 1]]
    fails = check_restriction(_pipeline(planes, set()), [1, 1, 1])
    assert _verdict_check("x", fails, False, ("t3/(t1*t2)",)).ok
    assert not _verdict_check("x", fails, True).ok
    assert not _verdict_check("x", fails, False, ("t1",)).ok
    holds = check_restriction(_pipeline(planes, {1}), [1, 1, 1])
    assert _verdict_check("x", holds, True).ok
    assert not _verdict_check("x", holds, False).ok


def test_system_check_needs_every_inequality():
    system = _cone(_running_example())
    want = ["t1", "t2", "t1*t2/t3", "t3", ("1", "1")]
    assert _system_check("x", system, want).ok
    assert not _system_check("x", system, want[:-1]).ok
    assert not _system_check("x", system, want[:-1] + [("1", "2")]).ok
    assert not _system_check("x", system, want + ["t1/t2"]).ok


def test_radical_check_needs_the_verdict():
    pl = _pipeline([[1, 1, 0, 1], [0, 1, 1, 0]], {3})
    excluded = pair("t1/t4", "x4^(-1)")
    assert _radical_check("x", pl, [0, 1, 0, 1], excluded).ok
    assert not _radical_check("x", pl, [0, 1, 0, 1], excluded, Verdict.YES).ok
    member = pair("t1/t4")
    assert _radical_check("x", pl, [1, 1, 1, 0], member, Verdict.YES).ok
    assert not _radical_check("x", pl, [1, 1, 1, 0], member).ok


def test_radical_check_of_an_inclusion_passes_the_zero_pattern(monkeypatch):
    # The four-block member lies in the extended stage itself, so its
    # verdict does not show the zero-pattern slack; the call does.
    calls = []

    def recording(probe, H, zero_slack=()):
        calls.append(zero_slack)
        return radical_member(probe, H, zero_slack)

    monkeypatch.setattr(fixtures, "radical_member", recording)
    pl = _pipeline([[1, 1, 0, 1], [0, 1, 1, 0]], {3})
    assert _radical_check("x", pl, [1, 1, 1, 0], pair("t1/t4"), Verdict.YES).ok
    assert _radical_check("x", pl, [0, 1, 0, 1], pair("t1/t4", "x4^(-1)")).ok
    assert calls == [(3,), ()]


def test_level_checks_need_every_tree():
    pl = _pipeline([[1, 0, 1], [0, 1, 1], [0, 0, 1]])
    want = {1: _t("t1"), 2: _t("t2"), 3: _t("t3/(t1*t2)")}
    fam, checks = _level_checks(pl, want)
    assert [c.label for c in checks] == ["rho1", "rho2", "rho3"]
    assert all(c.ok for c in checks) and all(fam.strict.values())
    _, checks = _level_checks(pl, {**want, 3: _t("t3")})
    assert [c.ok for c in checks] == [True, True, False]


def test_remainder_checks_need_the_monomial():
    def cusp(N):
        return f"t1^({N[0] - 2 * N[1]})*t2^({3 * N[1] - N[0]})"

    def staircase(N):
        return f"t1^({N[0] - N[1]})*t2^({N[1]})"

    orders = [(1, 1), (3, 2)]
    checks = _remainder_checks("cusp", [[3, 2], [1, 1]], orders, cusp)
    assert [c.label for c in checks] == ["cusp N=(1, 1)", "cusp N=(3, 2)"]
    assert all(c.ok for c in checks)
    assert not any(c.ok for c in _remainder_checks(
        "cusp", [[3, 2], [1, 1]], orders, staircase))
    # a rational matrix: the expected exponents carry sigma_A = 6
    b, c = Fraction(1, 2), Fraction(1, 3)
    rows = [[1, b], [c, 1]]
    assert _remainder_checks("general", rows, [(2, 5)], lambda N: (
        f"t1^({(N[0] - b * N[1]) / (1 - b * c) / 6})"
        f"*t2^({(N[1] - c * N[0]) / (1 - b * c) / 6})"))[0].ok
    assert not _remainder_checks("general", rows, [(2, 5)], lambda N: (
        f"t1^({(N[0] - b * N[1]) / (1 - b * c)})"
        f"*t2^({(N[1] - c * N[0]) / (1 - b * c)})"))[0].ok


def test_class_check_needs_the_label():
    check = _class_check("m=2,N=3", [[1, 2], [0, 1]])
    assert check.ok and check.label == "m=2 N=3"
    assert not _class_check("m=2,N=2", [[1, 2], [0, 1]]).ok
    assert not _class_check("m=3,N=4b", [[1, 1, 2], [0, 1, 0]]).ok
