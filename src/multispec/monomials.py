"""Exact algebra of monomials with rational exponents and their value tags.

Variables come in three families: deformation scales t1..tm (one per
coordinate block), action parameters l1..l_ell, and block norms x1..xm
(the norm of the k-th block direction, treated as a formal symbol).
A monomial is a finite map variable -> rational exponent, held as one flat
integer key (see `Monomial`); a value tag is either the formal zero or a
monomial in the norm symbols only.  All arithmetic is exact; floats appear
only in `evaluate`.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import gcd
from typing import Iterable, Mapping

from .linear import fr

TAU = "tau"
LAM = "lam"
XI = "xi"

# A variable's key (`Var.key`) is its kind's position here and its index.
KINDS = (TAU, LAM, XI)
_KIND_ORDER = {kind: i for i, kind in enumerate(KINDS)}
_KIND_LETTER = {TAU: "t", LAM: "l", XI: "x"}
_LETTER_KIND = {v: k for k, v in _KIND_LETTER.items()}
_LETTERS = tuple(_KIND_LETTER[kind] for kind in KINDS)


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


@cache
def tau(k: int) -> Var:
    """The scale t_k; one shared Var per index."""
    return Var(TAU, k)


@cache
def lam(j: int) -> Var:
    """The action parameter l_j; one shared Var per index."""
    return Var(LAM, j)


@cache
def xi(k: int) -> Var:
    """The norm symbol x_k; one shared Var per index."""
    return Var(XI, k)


def key_var(kind: int, index: int) -> Var:
    """The shared Var of the variable key (kind, index)."""
    return (tau, lam, xi)[kind](index)


def times(a: tuple, b: tuple, p: int, q: int) -> tuple:
    """The key of the monomial a * b^(p/q), q > 0, from the keys a and b: a
    merge of two sorted sparse integer vectors, each exponent it changes
    reduced by one gcd."""
    out = []
    i, la = 0, len(a)
    for j in range(0, len(b), 4):
        kind, index = b[j], b[j + 1]
        while i < la and (a[i] < kind or a[i] == kind and a[i + 1] < index):
            out += a[i:i + 4]
            i += 4
        n, d = b[j + 2], b[j + 3]
        if p != q:
            n, d = n * p, d * q
        if i < la and a[i] == kind and a[i + 1] == index:
            n, d = a[i + 2] * d + n * a[i + 3], a[i + 3] * d
            i += 4
        elif p == q:
            out += b[j:j + 4]  # reduced already
            continue
        if n:
            g = gcd(n, d)
            out += (kind, index, n // g, d // g)
    out += a[i:]
    return tuple(out)


def vector_key(vec: tuple[tuple[int, ...], int], variables) -> tuple:
    """The key of the monomial whose exponent of variables[i], a variable
    key, is nums[i] / den, for vec = (nums, den) with den > 0; variables
    are in key order, and zip stops at the shorter of the two."""
    nums, den = vec
    out = []
    for (kind, index), n in zip(variables, nums):
        if n:
            g = gcd(n, den)
            out += (kind, index, n // g, den // g)
    return tuple(out)


def key_text(key: tuple) -> str:
    """The monomial of a key as text, e.g. "t1^(3/2)*t3^(-1)", or "1"."""
    parts = []
    for i in range(0, len(key), 4):
        v = f"{_LETTERS[key[i]]}{key[i + 1]}"
        n, d = key[i + 2], key[i + 3]
        if n == d:
            parts.append(v)
        elif d == 1:
            parts.append(f"{v}^{n}" if n > 0 else f"{v}^({n})")
        else:
            parts.append(f"{v}^({n}/{d})")
    return "*".join(parts) or "1"


_NO_EXPONENT = Fraction(0)


@dataclass(frozen=True, slots=True, eq=False)
class Monomial:
    """Product of rational powers of variables; the empty product is 1.

    A monomial is its key: the flat integer tuple (kind, index, numerator,
    denominator) for each variable with a nonzero exponent, in increasing
    variable order (`Var.key`), each exponent in lowest terms over a
    positive denominator.  It compares and hashes on the key, and sorts by
    it (`Pair.sort_key`); a product is one merge of keys and a power scales
    the key (`times`).  `exps` and `exponent` build Fractions only when
    read.
    """

    key: tuple[int, ...]

    def __eq__(self, other) -> bool:
        if type(other) is not Monomial:
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    @staticmethod
    def from_dict(d: Mapping[Var, Fraction | int]) -> "Monomial":
        key = []
        for v, e in sorted(d.items(), key=lambda p: p[0].key()):
            if e != 0:
                e = fr(e)
                key += (*v.key(), e.numerator, e.denominator)
        return Monomial(tuple(key))

    @property
    def exps(self) -> tuple[tuple[Var, Fraction], ...]:
        """(variable, nonzero exponent) in increasing variable order."""
        k = self.key
        return tuple((key_var(k[i], k[i + 1]), Fraction(k[i + 2], k[i + 3]))
                     for i in range(0, len(k), 4))

    def exponent(self, var: Var) -> Fraction:
        kind, index = var.key()
        k = self.key
        for i in range(0, len(k), 4):
            if k[i] == kind and k[i + 1] == index:
                return Fraction(k[i + 2], k[i + 3])
        return _NO_EXPONENT

    @property
    def is_one(self) -> bool:
        return not self.key

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other.key:
            return self
        if not self.key:
            return other
        return Monomial(times(self.key, other.key, 1, 1))

    def __pow__(self, r) -> "Monomial":
        # a nonzero power keeps the support and the variable order
        if type(r) is not int:
            r = fr(r)
        if r == 1:
            return self
        if r == 0:
            return ONE
        return Monomial(times((), self.key, r.numerator, r.denominator))

    def inv(self) -> "Monomial":
        key = list(self.key)
        key[2::4] = [-n for n in key[2::4]]
        return Monomial(tuple(key))

    def __truediv__(self, other: "Monomial") -> "Monomial":
        return Monomial(times(self.key, other.key, -1, 1))

    def has_kind(self, kind: str) -> bool:
        return _KIND_ORDER[kind] in self.key[::4]

    def evaluate(self, assign: Mapping[Var, float]) -> float:
        out = 1.0
        for v, e in self.exps:
            base = assign[v]
            if base <= 0:
                raise ValueError(f"nonpositive value for {v}")
            out *= float(base) ** float(e)
        return out

    def __str__(self) -> str:
        return key_text(self.key)

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
    return Monomial((*Var(_LETTER_KIND[m[1]], int(m[2])).key(), 1, 1))


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

    Either the formal zero (mono is None) or a monomial in norm symbols;
    the empty monomial is the unit.
    """

    mono: Monomial | None

    @property
    def is_zero(self) -> bool:
        return self.mono is None

    def inv(self) -> "Value":
        if self.is_zero:
            raise ZeroDivisionError("negative power of the zero value")
        return Value(self.mono.inv())

    def evaluate(self, xi_norms: Mapping[int, float]) -> float:
        if self.is_zero:
            return 0.0
        return self.mono.evaluate({xi(k): xi_norms.get(k, 1.0)
                                   for k in self.mono.key[1::4]})

    def sort_key(self):
        if self.is_zero:
            return (0,)
        return (1,) + self.mono.key

    def __str__(self) -> str:
        return "0" if self.is_zero else str(self.mono)

    def json(self):
        return "0" if self.is_zero else self.mono.json()


ZERO = Value(None)
UNIT_VALUE = Value(ONE)


def xival(text_or_mono) -> Value:
    """Value from a norm monomial; accepts "x3", "1/x3" style strings."""
    m = text_or_mono if isinstance(text_or_mono, Monomial) else mono(text_or_mono)
    if m.has_kind(TAU) or m.has_kind(LAM):
        raise ValueError("value monomials may only use norm symbols")
    return Value(m)


@dataclass(frozen=True)
class Pair:
    """A generator pair (f, v): monomial plus its limit value."""

    f: Monomial
    v: Value

    def inv(self) -> "Pair":
        if self.v.is_zero:
            raise ZeroDivisionError("cannot invert a zero-valued pair")
        return Pair(self.f.inv(), self.v.inv())

    def sort_key(self):
        return (self.f.key, self.v.sort_key())

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
