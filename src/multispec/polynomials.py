"""Block-structured polynomials with exact rational coefficients."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product

from .linear import fr


@dataclass(frozen=True)
class BlockStructure:
    """Coordinates grouped into blocks; multi-indices are flat tuples."""

    dims: tuple[int, ...]
    # the 1-based block of each 0-based coordinate, and the first
    # coordinate of each block (one more entry: the end of the last)
    coord_blocks: tuple[int, ...] = field(init=False, compare=False,
                                          repr=False)
    starts: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coord_blocks", tuple(
            k for k, d in enumerate(self.dims, start=1) for _ in range(d)))
        object.__setattr__(self, "starts",
                           tuple(accumulate(self.dims, initial=0)))

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return len(self.coord_blocks)

    def block_of(self, coord: int) -> int:
        """1-based block index of a 0-based coordinate."""
        return self.coord_blocks[coord]

    def coords_of(self, block: int) -> range:
        return range(self.starts[block - 1], self.starts[block])

    def block_lengths(self, idx: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(sum(idx[a:b]) for a, b in zip(self.starts,
                                                   self.starts[1:]))

    def coord_name(self, coord: int) -> str:
        k = self.block_of(coord)
        offs = coord - self.starts[k - 1]
        return f"z{k}" if self.dims[k - 1] == 1 else f"z{k}_{offs + 1}"

    def zero_index(self) -> tuple[int, ...]:
        return (0,) * self.n


def _iadd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


@dataclass(frozen=True)
class BlockPolynomial:
    """Finite map multi-index -> rational coefficient."""

    struct: BlockStructure
    terms: tuple[tuple[tuple[int, ...], Fraction], ...]

    @staticmethod
    def from_dict(struct: BlockStructure, d) -> "BlockPolynomial":
        items = tuple(sorted(((tuple(i), fr(c)) for i, c in d.items() if c != 0)))
        return BlockPolynomial(struct, items)

    def as_dict(self) -> dict[tuple[int, ...], Fraction]:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "BlockPolynomial") -> "BlockPolynomial":
        d = self.as_dict()
        for i, c in other.terms:
            d[i] = d.get(i, Fraction(0)) + c
        return BlockPolynomial.from_dict(self.struct, d)

    def __sub__(self, other: "BlockPolynomial") -> "BlockPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "BlockPolynomial":
        c = fr(c)
        return BlockPolynomial.from_dict(
            self.struct, {i: c * x for i, x in self.terms})

    def __mul__(self, other: "BlockPolynomial") -> "BlockPolynomial":
        d: dict[tuple[int, ...], Fraction] = {}
        for i, c in self.terms:
            for j, e in other.terms:
                k = _iadd(i, j)
                d[k] = d.get(k, Fraction(0)) + c * e
        return BlockPolynomial.from_dict(self.struct, d)

    def __truediv__(self, other: "BlockPolynomial") -> "BlockPolynomial":
        """Division by a nonzero constant."""
        if [i for i, _ in other.terms] != [self.struct.zero_index()]:
            raise ValueError("a polynomial divides only by a nonzero constant")
        return self.scale(1 / other.terms[0][1])

    def __pow__(self, n) -> "BlockPolynomial":
        if n.denominator != 1 or n < 0:
            raise ValueError(f"a polynomial power must be natural, not {n}")
        out, base, n = poly_const(self.struct, 1), self, n.numerator
        while n:  # repeated squaring
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def restrict_zero(self, blocks) -> "BlockPolynomial":
        """Set all coordinates of the listed blocks to zero."""
        dead = set()
        for k in blocks:
            dead.update(self.struct.coords_of(k))
        d = {i: c for i, c in self.terms if all(i[cc] == 0 for cc in dead)}
        return BlockPolynomial.from_dict(self.struct, d)

    def evaluate(self, values) -> float:
        out = 0.0
        for c, factors in self._float_terms:
            term = c
            for coord, e in factors:
                term *= values[coord] ** e
            out += term
        return out

    @cached_property
    def _float_terms(self) -> tuple:
        """Each term as its float coefficient and its (coordinate, exponent)
        factors, converted on first evaluation."""
        return tuple((float(c), tuple((coord, e) for coord, e in enumerate(i)
                                      if e))
                     for i, c in self.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in self.terms:
            factors = []
            for coord, e in enumerate(i):
                if e:
                    name = self.struct.coord_name(coord)
                    factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors) if factors else "1"
            parts.append(f"{c}*{body}" if c != 1 or not factors else body)
        return " + ".join(parts)


def poly_const(struct: BlockStructure, c) -> BlockPolynomial:
    return BlockPolynomial.from_dict(struct, {struct.zero_index(): fr(c)})


def poly_monomial(struct: BlockStructure, idx) -> BlockPolynomial:
    return BlockPolynomial.from_dict(struct, {tuple(idx): 1})


def factorial_multi(idx) -> int:
    out = 1
    for e in idx:
        out *= math.factorial(e)
    return out


def exp_truncation(struct: BlockStructure, max_total_degree: int) -> BlockPolynomial:
    """Taylor truncation of exp(z_1 + ... + z_n) up to a total degree."""
    d = {}
    rngs = [range(max_total_degree + 1)] * struct.n
    for idx in product(*rngs):
        if sum(idx) <= max_total_degree:
            d[idx] = Fraction(1, factorial_multi(idx))
    return BlockPolynomial.from_dict(struct, d)
