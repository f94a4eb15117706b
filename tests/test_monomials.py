import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from multispec.monomials import (Monomial, ONE, Pair, Var, ZERO, UNIT_VALUE,
                                 tau, lam, xi, mono, pair, xival,
                                 fraction_closure, sorted_pairs)


def test_parser_roundtrip():
    m = mono("t3/(t1*t2)")
    assert m.exponent(tau(3)) == 1
    assert m.exponent(tau(1)) == -1
    assert mono("t1^(3/2)*t3^(-1)") == Monomial.from_dict(
        {tau(1): Fraction(3, 2), tau(3): -1})
    assert mono("1") == ONE
    assert mono("(t1/t2)^(2/3)") == Monomial.from_dict(
        {tau(1): Fraction(2, 3), tau(2): Fraction(-2, 3)})
    assert mono("l4") == Monomial.from_dict({lam(4): 1})


def test_mul_examples():
    assert mono("t1") * mono("t1^(-1)") == ONE
    assert mono("t3/(t1*t2)") * mono("t1") == mono("t3/t2")
    scaled = mono("t1/t2") ** Fraction(2, 3)
    assert scaled == mono("t1^(2/3)*t2^(-2/3)")
    lhs = scaled.evaluate({tau(1): 4.0, tau(2): 8.0})
    rhs = (4.0 / 8.0) ** (2.0 / 3.0)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


def test_pair_pow_examples():
    assert pair("t1") ** 3 == pair("t1^3")
    p = pair("t3/(t1*t2)", "x3")
    assert p ** 2 == pair("t3^2/(t1^2*t2^2)", "x3^2")
    assert p ** 0 == Pair(ONE, UNIT_VALUE)
    assert pair("t1") ** 0 == Pair(ONE, UNIT_VALUE)
    with pytest.raises(ValueError):
        p ** -1


def test_exponent_of_examples():
    assert pair("t3/(t1*t2)", "x3").f.exponent(tau(1)) == -1
    assert pair("t1").f.exponent(tau(2)) == 0
    assert pair("t1/l4").f.exponent(lam(4)) == -1


def test_fraction_closure():
    a = {pair("t1")}
    assert fraction_closure(a) == frozenset(a)
    b = {pair("t3/(t1*t2)", "x3")}
    q = fraction_closure(b)
    assert q == {pair("t3/(t1*t2)", "x3"), pair("t1*t2/t3", "x3^(-1)")}
    assert fraction_closure(q) == q  # idempotent


def test_evaluate_examples():
    p = pair("t1*t2/t3")
    assert math.isclose(p.f.evaluate({tau(1): 2, tau(2): 3, tau(3): 6}), 1.0)
    assert p.v.evaluate({}) == 0.0
    p = pair("t3/(t1*t2)", "x3")
    f = p.f.evaluate({tau(1): 1, tau(2): 1, tau(3): 5})
    v = p.v.evaluate({3: 5})
    assert math.isclose(f, 5.0) and math.isclose(v, 5.0)
    assert ONE.evaluate({tau(1): 7}) == 1.0 and UNIT_VALUE.evaluate({}) == 1.0
    with pytest.raises(ValueError):
        pair("t1").f.evaluate({tau(1): 0.0})


def test_value_algebra():
    assert ZERO * xival("x3") == ZERO
    assert (ZERO ** 0) == UNIT_VALUE
    assert xival("x3") * xival("x3^(-1)") == UNIT_VALUE
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ValueError):
        xival("t1")


def test_rendering_and_json():
    p = pair("t1^(3/2)*t3^(-1)", "x3")
    assert str(p.f) == "t1^(3/2)*t3^(-1)"
    js = p.json()
    assert js["exponents"] == {"tau:1": "3/2", "tau:3": "-1"}
    assert js["value"] == {"xi:3": "1"}
    assert pair("t1").json()["value"] == "0"


def test_sorted_pairs_deterministic():
    items = [pair("t2"), pair("t1"), pair("t1", "x1")]
    assert [str(p.f) for p in sorted_pairs(items)] == ["t1", "t1", "t2"]


_small = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def _monos():
    return st.dictionaries(st.integers(1, 4), _small, max_size=4).map(
        lambda d: Monomial.from_dict({tau(k): v for k, v in d.items()}))


@given(_monos(), _monos(), _monos())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(_monos(), _monos())
def test_evaluate_multiplicative(a, b):
    assign = {tau(k): 1.5 + 0.25 * k for k in range(1, 5)}
    lhs = (a * b).evaluate(assign)
    rhs = a.evaluate(assign) * b.evaluate(assign)
    assert math.isclose(lhs, rhs, rel_tol=1e-12)


@given(_monos(), st.fractions(min_value=0, max_value=5, max_denominator=4))
def test_pow_scales_exponents(m, n):
    p = Pair(m, ZERO)
    q = p ** n
    for v, _ in m.exps:
        assert q.f.exponent(v) == n * m.exponent(v)


@given(st.sets(st.tuples(_monos(), st.booleans()), max_size=5))
def test_closure_never_inverts_zero(items):
    gens = {Pair(m, xival("x1") if nz else ZERO) for m, nz in items}
    q = fraction_closure(gens)
    for p in gens:
        if p.v.is_zero and not p.f.is_one:
            assert Pair(p.f.inv(), p.v) not in q or p.f.inv() == p.f


def _dict_mul(a, b):
    """Oracle: the product through an exponent dict and a re-sort."""
    d = dict(a.exps)
    for v, e in b.exps:
        d[v] = d.get(v, Fraction(0)) + e
    return Monomial.from_dict(d)


def _dict_pow(m, r):
    """Oracle: the power through an exponent dict and a re-sort."""
    r = Fraction(r)
    if r == 0:
        return ONE
    return Monomial.from_dict({v: e * r for v, e in m.exps})


_VAR_MAKERS = (tau, lam, xi)


def _mixed_monos():
    # every variable family, so the merge crosses kinds as well as indices
    return st.dictionaries(st.tuples(st.sampled_from(_VAR_MAKERS),
                                     st.integers(1, 3)),
                           _small, max_size=5).map(
        lambda d: Monomial.from_dict({mk(i): v for (mk, i), v in d.items()}))


def _same_exps(got, want):
    assert got.exps == want.exps
    assert all(type(e) is Fraction and e != 0 for _, e in got.exps)
    assert [v.key() for v, _ in got.exps] == sorted(v.key() for v, _ in got.exps)


@given(_mixed_monos(), _mixed_monos(), st.sampled_from(("free", "cancel")))
@example(mono("t1*l2"), mono("x1/t2"), "free")          # disjoint supports
@example(mono("t1*l2"), mono("t1^(1/2)*l1"), "free")    # overlapping
@example(mono("t1*l2*x3"), mono("1"), "cancel")         # down to ONE
@example(mono("1"), mono("1"), "free")
def test_merge_mul_matches_dict_oracle(a, b, mode):
    if mode == "cancel":
        # b cancels part of a (all of it when b was the unit)
        b = _dict_mul(b, _dict_pow(a, -1))
    _same_exps(a * b, _dict_mul(a, b))
    _same_exps(b * a, _dict_mul(b, a))
    _same_exps(a * _dict_pow(a, -1), ONE)


@given(_mixed_monos(), st.one_of(_small, st.integers(-3, 3)))
@example(mono("t1*l2^(-1/2)"), 1)
@example(mono("t1*l2^(-1/2)"), Fraction(1))
@example(mono("t1*l2^(-1/2)"), 0)
@example(mono("t1*l2^(-1/2)"), -1)
@example(mono("t1*l2^(-1/2)"), Fraction(-2, 3))
@example(ONE, Fraction(5, 2))
def test_scaled_pow_matches_dict_oracle(m, r):
    _same_exps(m ** r, _dict_pow(m, r))
    if r == 1:
        assert m ** r is m


def test_equal_monomials_hash_alike():
    routes = [mono("t1*t2^(1/2)/l3"),
              mono("l3^(-1)*t2^(1/2)*t1"),
              Monomial.from_dict({lam(3): -1, tau(2): Fraction(1, 2),
                                  tau(1): 1}),
              mono("t1*t2*l3") * mono("t2^(-1/2)*l3^(-2)"),
              (mono("t1^2*t2/l3^2")) ** Fraction(1, 2)]
    assert len(set(routes)) == 1
    assert len({hash(m) for m in routes}) == 1
    assert hash(Var("tau", 2)) == hash(tau(2))


def test_kernel_objects_survive_pickle_and_deepcopy():
    m = mono("t1^(3/2)*l2/x3")
    p = pair("t3/(t1*t2)", "x3")
    for obj in (tau(1), m, ONE, p, Pair(m, ZERO)):
        hash(obj)  # fill the caches before copying
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert back == obj
            assert hash(back) == hash(obj)
            assert str(back) == str(obj)
    assert {pickle.loads(pickle.dumps(m)): 1}[m] == 1


def test_kernel_objects_have_no_instance_dict():
    # Var and Monomial keep their caches in slots.  Cached values set with
    # object.__setattr__ on instances that have a __dict__ break CPython's
    # key-sharing instance dicts, which cost about 15% more peak memory on
    # the benchmark's elimination workload.
    m = mono("t1/l2")
    hash(m)
    m.sort_key()
    for obj in (tau(1), m):
        assert not hasattr(obj, "__dict__")
