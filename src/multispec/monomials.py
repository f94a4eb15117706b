"""Exact algebra of monomials with rational exponents and their value tags.

Variables come in three families: deformation scales t1..tm (one per
coordinate block), action parameters l1..l_ell, and block norms x1..xm
(the norm of the k-th block direction, treated as a formal symbol).
A monomial is a finite map variable -> rational exponent; a value tag is
either the formal zero or a monomial in the norm symbols only.  All
arithmetic is exact; floats appear only in `evaluate`.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .linear import fr

TAU = "tau"
LAM = "lam"
XI = "xi"

_KIND_ORDER = {TAU: 0, LAM: 1, XI: 2}
_KIND_LETTER = {TAU: "t", LAM: "l", XI: "x"}
_LETTER_KIND = {v: k for k, v in _KIND_LETTER.items()}


@dataclass(frozen=True, slots=True)
class Var:
    """A single variable: kind in {tau, lam, xi} plus a 1-based index."""

    kind: str
    index: int
    # The sort key and the hash, fixed at construction.
    _key: tuple[int, int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.index < 1:
            raise ValueError("variable indices are 1-based")
        object.__setattr__(self, "_key", (_KIND_ORDER[self.kind], self.index))
        object.__setattr__(self, "_hash", hash((self.kind, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # the hash depends on the process's string hashing, so it is rebuilt
        return Var, (self.kind, self.index)

    def key(self) -> tuple[int, int]:
        return self._key

    def __lt__(self, other: "Var") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        return f"{_KIND_LETTER[self.kind]}{self.index}"

    def json_key(self) -> str:
        return f"{self.kind}:{self.index}"


def tau(k: int) -> Var:
    return Var(TAU, k)


def lam(j: int) -> Var:
    return Var(LAM, j)


def xi(k: int) -> Var:
    return Var(XI, k)


_NO_EXPONENT = Fraction(0)


@dataclass(frozen=True, slots=True)
class Monomial:
    """Product of rational powers of variables; the empty product is 1.

    exps lists (variable, nonzero exponent) in increasing variable order.
    """

    exps: tuple[tuple[Var, Fraction], ...]
    # The hash and the sort key, computed on first use.
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False)
    _sort_key: tuple | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.exps,))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return Monomial, (self.exps,)

    @staticmethod
    def from_dict(d: Mapping[Var, Fraction | int]) -> "Monomial":
        items = tuple(
            sorted(((v, fr(e)) for v, e in d.items() if e != 0), key=lambda p: p[0].key())
        )
        return Monomial(items)

    def exponent(self, var: Var) -> Fraction:
        key = var._key
        for v, e in self.exps:
            if v._key == key:
                return e
        return _NO_EXPONENT

    @property
    def is_one(self) -> bool:
        return not self.exps

    def __mul__(self, other: "Monomial") -> "Monomial":
        # merge the two sorted exponent lists, dropping cancelled variables
        a, b = self.exps, other.exps
        if not b:
            return self
        if not a:
            return other
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            (va, ea), (vb, eb) = a[i], b[j]
            if va._key < vb._key:
                out.append(a[i])
                i += 1
            elif vb._key < va._key:
                out.append(b[j])
                j += 1
            else:
                e = ea + eb
                if e:
                    out.append((va, e))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return Monomial(tuple(out))

    def __pow__(self, r) -> "Monomial":
        # a nonzero power keeps the support and the variable order
        r = fr(r)
        if r == 1:
            return self
        if r == 0:
            return ONE
        return Monomial(tuple((v, e * r) for v, e in self.exps))

    def inv(self) -> "Monomial":
        return self ** Fraction(-1)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return self * other.inv()

    def has_kind(self, kind: str) -> bool:
        return any(v.kind == kind for v, _ in self.exps)

    def evaluate(self, assign: Mapping[Var, float]) -> float:
        out = 1.0
        for v, e in self.exps:
            base = assign[v]
            if base <= 0:
                raise ValueError(f"nonpositive value for {v}")
            out *= float(base) ** float(e)
        return out

    def sort_key(self):
        k = self._sort_key
        if k is None:
            k = tuple(x for v, e in self.exps
                      for x in (*v._key, e.numerator, e.denominator))
            object.__setattr__(self, "_sort_key", k)
        return k

    def __str__(self) -> str:
        if self.is_one:
            return "1"
        parts = []
        for v, e in self.exps:
            if e == 1:
                parts.append(str(v))
            elif e.denominator == 1:
                parts.append(f"{v}^{e}" if e > 0 else f"{v}^({e})")
            else:
                parts.append(f"{v}^({e})")
        return "*".join(parts)

    def json(self) -> dict:
        return {v.json_key(): str(e) for v, e in self.exps}


ONE = Monomial(())


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def read_expr(text: str, leaf, const):
    """Read an arithmetic expression, e.g. "t3/(t1*t2)" or "z1 - 2/3*z1^3".

    The text is a Python expression with "^" for "**".  A name becomes
    leaf(name) and an int or float constant const(Fraction); "+ - * /" act
    on those values, unary minus is a product with const(-1), and an
    exponent must be a rational constant: "t1^2", "t1^-1", "t1^(3/2)".  Any
    other syntax, and any operation the values do not support, raises
    ValueError.
    """
    try:
        return _read(ast.parse(text.replace("^", "**"), mode="eval").body,
                     leaf, const)
    except (SyntaxError, TypeError, ValueError, ZeroDivisionError,
            RecursionError) as exc:
        raise ValueError(f"cannot read {text!r}: {exc}") from exc


def _read(node, leaf, const, powers: bool = True):
    if isinstance(node, ast.Name):
        return leaf(node.id)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return const(Fraction(repr(node.value)))
    if isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        v = _read(node.operand, leaf, const, powers)
        return const(Fraction(-1)) * v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_read(node.left, leaf, const, powers),
                                      _read(node.right, leaf, const, powers))
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow) and powers:
        return _read(node.left, leaf, const) ** \
            _read(node.right, _not_constant, Fraction, powers=False)
    raise ValueError("unsupported syntax" if powers else
                     "an exponent must be a rational constant")


def _not_constant(name: str):
    raise ValueError(f"the exponent {name} is not a rational constant")


def _mono_leaf(name: str) -> Monomial:
    m = re.fullmatch(r"([tlx])(\d+)", name, re.ASCII)
    if not m:
        raise ValueError(f"unknown variable {name}")
    return Monomial(((Var(_LETTER_KIND[m[1]], int(m[2])), Fraction(1)),))


def _mono_const(c: Fraction) -> Monomial:
    if c != 1:
        raise ValueError(f"the only constant of a monomial is 1, not {c}")
    return ONE


def mono(text: str) -> Monomial:
    """Parse a monomial string, e.g. "t3/(t1*t2)", "x4^(-1)" or
    "(t1/t2)^(2/3)": `read_expr` over the variables t<k>, l<j> and x<k>,
    with 1 as the only constant.  Factors need an explicit "*"; writing
    them side by side ("t1 t2") is not a product.
    """
    return read_expr(text, _mono_leaf, _mono_const)


@dataclass(frozen=True)
class Value:
    """The non-negative limit value of a generator pair.

    Either the formal zero (mono is None) or a monomial in norm symbols.
    Zero is absorbing under multiplication; the empty monomial is the unit.
    """

    mono: Monomial | None

    @property
    def is_zero(self) -> bool:
        return self.mono is None

    def __mul__(self, other: "Value") -> "Value":
        if self.is_zero or other.is_zero:
            return ZERO
        return Value(self.mono * other.mono)

    def __pow__(self, r) -> "Value":
        r = fr(r)
        if r == 0:
            return UNIT_VALUE
        if self.is_zero:
            if r < 0:
                raise ZeroDivisionError("negative power of the zero value")
            return ZERO
        return Value(self.mono ** r)

    def inv(self) -> "Value":
        return self ** Fraction(-1)

    def evaluate(self, xi_norms: Mapping[int, float]) -> float:
        if self.is_zero:
            return 0.0
        assign = {Var(XI, k): v for k, v in xi_norms.items()}
        for v, _ in self.mono.exps:
            assign.setdefault(v, 1.0)
        return self.mono.evaluate(assign)

    def sort_key(self):
        if self.is_zero:
            return (0,)
        return (1,) + self.mono.sort_key()

    def __str__(self) -> str:
        return "0" if self.is_zero else str(self.mono)

    def json(self):
        return "0" if self.is_zero else self.mono.json()


ZERO = Value(None)
UNIT_VALUE = Value(ONE)


def xival(text_or_mono) -> Value:
    """Value from a norm monomial; accepts "x3", "1/x3" style strings."""
    m = text_or_mono if isinstance(text_or_mono, Monomial) else mono(text_or_mono)
    if any(v.kind != XI for v, _ in m.exps):
        raise ValueError("value monomials may only use norm symbols")
    return Value(m)


@dataclass(frozen=True)
class Pair:
    """A generator pair (f, v): monomial plus its limit value."""

    f: Monomial
    v: Value

    def __mul__(self, other: "Pair") -> "Pair":
        return Pair(self.f * other.f, self.v * other.v)

    def __pow__(self, n) -> "Pair":
        n = fr(n)
        if n < 0:
            raise ValueError("pair powers must be non-negative")
        return Pair(self.f ** n, self.v ** n)

    def inv(self) -> "Pair":
        if self.v.is_zero:
            raise ZeroDivisionError("cannot invert a zero-valued pair")
        return Pair(self.f.inv(), self.v.inv())

    def sort_key(self):
        return (self.f.sort_key(), self.v.sort_key())

    def __str__(self) -> str:
        return f"({self.f}, {self.v})"

    def json(self) -> dict:
        return {"exponents": self.f.json(), "value": self.v.json()}


def pair(f, v=ZERO) -> Pair:
    if isinstance(f, str):
        f = mono(f)
    if isinstance(v, str):
        v = ZERO if v == "0" else xival(v)
    return Pair(f, v)


def sorted_pairs(gs: Iterable[Pair]) -> list[Pair]:
    return sorted(gs, key=lambda p: p.sort_key())


def fraction_closure(gs: Iterable[Pair]) -> frozenset[Pair]:
    """A together with inverses of exactly its nonzero-valued pairs."""
    out = set(gs)
    for p in list(out):
        if not p.v.is_zero:
            out.add(p.inv())
    return frozenset(out)


def render_genset(gs: Iterable[Pair]) -> str:
    return "{" + ", ".join(str(p) for p in sorted_pairs(gs)) + "}"
