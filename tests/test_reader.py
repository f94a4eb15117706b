"""The expression reader against the hand-written parsers it replaced.

`_tokenised_mono` and `_split_block_polynomial` are the former `mono` and
`parse_block_polynomial`, kept as oracles: wherever they accept a string
(and, for polynomials, every coordinate is in range) the reader must
build the same object."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multispec.cli import parse_block_polynomial
from multispec.monomials import (LAM, ONE, TAU, XI, Monomial, Var, mono,
                                 read_expr)
from multispec.polynomials import BlockPolynomial, BlockStructure, poly_const

_LETTER_KIND = {"t": TAU, "l": LAM, "x": XI}
_TOKEN = re.compile(r"\s*([tlx]\d+|\d+|[()*/^]|\S)")


def _tokenised_mono(text: str) -> Monomial:
    """Parse a compact monomial string, e.g. "t3/(t1*t2)" or "t1^(3/2)".

    Grammar: product of factors separated by "*" (or juxtaposition), with
    "/" inverting the factor or parenthesised group that follows.  A bare
    "1" is the unit.  Exponents follow "^"; fractional exponents need
    parentheses: "t1^(2/3)".
    """
    tokens = _TOKEN.findall(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        t = tokens[pos]
        pos += 1
        return t

    def parse_exponent() -> Fraction:
        t = take()
        if t == "(":
            sign = 1
            t = take()
            if t == "-":
                sign = -1
                t = take()
            num = int(t)
            if peek() == "/":
                take()
                den = int(take())
            else:
                den = 1
            if take() != ")":
                raise ValueError(f"bad exponent in {text!r}")
            return Fraction(sign * num, den)
        if t == "-":
            return -Fraction(int(take()))
        return Fraction(int(t))

    def parse_factor() -> Monomial:
        t = take()
        if t == "(":
            m = parse_product()
            if take() != ")":
                raise ValueError(f"unbalanced parens in {text!r}")
        elif t == "1":
            m = ONE
        elif re.fullmatch(r"[tlx]\d+", t):
            m = Monomial.from_dict({Var(_LETTER_KIND[t[0]], int(t[1:])): Fraction(1)})
        else:
            raise ValueError(f"unexpected token {t!r} in {text!r}")
        if peek() == "^":
            take()
            m = m ** parse_exponent()
        return m

    def parse_product() -> Monomial:
        m = parse_factor()
        while True:
            t = peek()
            if t == "*":
                take()
                m = m * parse_factor()
            elif t == "/":
                take()
                m = m * parse_factor().inv()
            elif t is not None and t not in ")":
                m = m * parse_factor()
            else:
                return m

    result = parse_product()
    if pos != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    return result


def _split_block_polynomial(text: str, struct: BlockStructure) -> BlockPolynomial:
    """Sums of monomials over block coordinates, e.g. "z1*z2 - 2/3*z1^3"."""

    text = text.replace("-", "+-").replace("++-", "+-")
    total = poly_const(struct, 0)
    for raw in text.split("+"):
        raw = raw.strip()
        if not raw:
            continue
        coeff = Fraction(1)
        if raw.startswith("-"):
            coeff = -coeff
            raw = raw[1:].strip()
        idx = [0] * struct.n
        for factor in re.split(r"\*", raw):
            factor = factor.strip()
            if not factor:
                continue
            m = re.fullmatch(r"z(\d+)(?:_(\d+))?(?:\^(\d+))?", factor)
            if m:
                block = int(m.group(1))
                offs = int(m.group(2) or 1) - 1
                power = int(m.group(3) or 1)
                coord = struct.coords_of(block).start + offs
                idx[coord] += power
            else:
                coeff *= Fraction(factor)
        total = total + BlockPolynomial.from_dict(struct, {tuple(idx): coeff})
    return total


# Monomial strings in the grammar both parsers read: explicit "*" and "/",
# "^" with an integer or a parenthesised rational exponent.
_VARS = st.builds(lambda c, k: f"{c}{k}", st.sampled_from("tlx"),
                  st.integers(1, 4))
_EXPONENTS = st.one_of(
    st.integers(0, 3).map(str), st.integers(1, 3).map(lambda n: f"-{n}"),
    st.builds(lambda s, n, d: f"({s}{n}/{d})", st.sampled_from(["", "-"]),
              st.integers(0, 5), st.integers(1, 4)))
_SPACE = st.sampled_from(["", " "])


def _monomial_texts():
    def factor(inner):
        base = st.one_of(_VARS, st.just("1"), inner.map(lambda t: f"({t})"))
        return st.builds(lambda b, e: b + e, base, st.one_of(
            st.just(""), _EXPONENTS.map(lambda e: "^" + e)))

    def product(inner):
        return st.builds(
            lambda first, rest: first + "".join(rest), factor(inner),
            st.lists(st.builds(lambda s1, op, s2, f: s1 + op + s2 + f, _SPACE,
                               st.sampled_from("*/"), _SPACE, factor(inner)),
                     max_size=3))

    return st.recursive(product(_VARS), product, max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(_monomial_texts())
def test_mono_agrees_with_the_tokenised_parser(text):
    assert mono(text) == _tokenised_mono(text)


def _source_strings() -> set[str]:
    root = Path(__file__).resolve().parents[1]
    out = set()
    for folder in ("src", "tests", "demos"):
        for path in (root / folder).rglob("*.py"):
            if path.name == Path(__file__).name:
                continue  # the rejected forms below
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str):
                    out.add(node.value)
    return out


def _monomial_strings() -> list[str]:
    """The string constants with a variable that the old parser reads."""
    found = []
    for text in _source_strings():
        if not re.search(r"[tlx]\d", text):
            continue
        try:
            _tokenised_mono(text)
        except (ValueError, IndexError, ZeroDivisionError):
            continue
        found.append(text)
    return sorted(found)


def test_every_monomial_string_of_the_sources_reads_the_same():
    found = _monomial_strings()
    assert len(found) > 70 and "t3/(t1*t2)" in found
    for text in found:
        assert mono(text) == _tokenised_mono(text), text


@pytest.mark.parametrize("text", [
    "t1 t2",        # side by side is no longer a product
    "t1+t2", "-t1", "2*t1", "t1^t2", "t1^2^3", "t1^(1/0)", "t0", "y1",
    "t1*", "t1(2)", "t1[1]", "'t1'", "t1 if t2 else t3", "t1^(1j)",
])
def test_mono_rejects(text):
    with pytest.raises(ValueError):
        mono(text)


def test_read_expr_constants_and_exponents():
    assert mono("t1^0.5/x2**2") == Monomial.from_dict(
        {Var(TAU, 1): Fraction(1, 2), Var(XI, 2): -2})
    assert mono("+(t1^-1)^-1") == mono("t1")
    assert read_expr("2/3 - 0.25*(1 + -2)^2", lambda name: None,
                     lambda c: c) == Fraction(5, 12)
    assert read_expr("1", lambda name: None, lambda c: c) == 1
    assert mono("1/1") == ONE


# Block polynomials in the grammar of the split parser: signed terms of
# "*"-separated factors, each a coordinate with a natural power or a
# rational constant.
@st.composite
def _polynomial_texts(draw):
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=3)))
    in_range = True

    def coordinate():
        nonlocal in_range
        k = draw(st.integers(1, len(dims) + 1))
        name = f"z{k}"
        if draw(st.booleans()):
            i = draw(st.integers(1, 3))
            name += f"_{i}"
            in_range = in_range and k <= len(dims) and i <= dims[k - 1]
        in_range = in_range and k <= len(dims)
        return name + draw(st.sampled_from(["", "^0", "^1", "^2", "^3"]))

    def constant():
        n = draw(st.integers(0, 9))
        return draw(st.sampled_from([str(n), f"{n}/{draw(st.integers(1, 4))}",
                                     f"{n}.5"]))

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        factors = [draw(st.sampled_from([coordinate, constant]))()
                   for _ in range(draw(st.integers(1, 3)))]
        sign = draw(st.sampled_from(["", "-"])) if not terms else \
            draw(st.sampled_from([" + ", " - ", "+", "-"]))
        terms.append(sign + "*".join(factors))
    return "".join(terms), BlockStructure(dims), in_range


@settings(max_examples=300, deadline=None)
@given(_polynomial_texts())
def test_block_polynomial_agrees_with_the_split_parser(drawn):
    text, struct, in_range = drawn
    if in_range:
        assert parse_block_polynomial(text, struct) == \
            _split_block_polynomial(text, struct)
    else:
        with pytest.raises(ValueError, match="no coordinate"):
            parse_block_polynomial(text, struct)


@st.composite
def _polynomials(draw):
    struct = BlockStructure(tuple(draw(st.lists(st.integers(1, 2), min_size=1,
                                                max_size=2))))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * struct.n),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=3))
    return BlockPolynomial.from_dict(struct, terms)


@settings(max_examples=100, deadline=None)
@given(_polynomials(), st.integers(0, 12))
def test_power_by_squaring_equals_repeated_multiplication(f, n):
    want = poly_const(f.struct, 1)
    for _ in range(n):
        want = want * f
    assert f ** Fraction(n) == want


def test_block_polynomial_examples():
    struct = BlockStructure((1, 2))
    f = parse_block_polynomial("z1*z2 - 2/3*z1^3 + (z2_2 - 1)^2/4", struct)
    assert str(f) == "1/4*1 + -1/2*z2_2 + 1/4*z2_2^2 + z1*z2_1 + -2/3*z1^3"
    assert parse_block_polynomial("z2", struct) == \
        parse_block_polynomial("z2_1", struct)
    for bad in ("z3", "z1_2", "z2_3", "z0", "y1", "z1^-1", "z1^(1/2)",
                "z1/z2", "z1/(1 - 1)", "z1 z2"):
        with pytest.raises(ValueError):
            parse_block_polynomial(bad, struct)
