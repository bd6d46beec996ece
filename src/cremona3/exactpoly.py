"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries its ambient dimension ``n`` and a canonical sparse
term map: exponent tuples of length ``n`` mapped to nonzero ``Fraction``
coefficients.  Two polynomials are equal exactly when dimension and term
map agree, so equality of values is decidable and exact throughout.
A constant polynomial also equals, and hashes like, its ``Fraction``
value.  The arithmetic runs on the term-map kernels of ``_termops``.

The coefficient field is ``fractions.Fraction`` (exported here as
``ExactRational``): always reduced, positive denominator, zero stored as
0/1.  Values are immutable; every operation is a pure function, so
polynomials can be shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from ._termops import (
    add_terms,
    iadd_scaled_terms,
    mul_terms,
    neg_terms,
    scale_terms,
    sub_terms,
)
from .errors import ArityMismatch, DimensionMismatch, IndexOutOfRange

ExactRational = Fraction
Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.
MINUS_INFINITY = float("-inf")


def rational(numerator, denominator=None) -> Fraction:
    """Coerce to an exact rational; accepts ints, Fractions and strings."""
    if denominator is None:
        return Fraction(numerator)
    return Fraction(numerator, denominator)


def default_variable_names(dimension: int) -> tuple[str, ...]:
    """x, y, z in dimension 3; x1..xn otherwise."""
    if dimension == 3:
        return ("x", "y", "z")
    return tuple(f"x{i + 1}" for i in range(dimension))


class Polynomial:
    """Immutable sparse polynomial in ``dimension`` variables."""

    __slots__ = ("_dimension", "_terms", "_hash")

    def __init__(self, dimension: int, terms=()):
        if not isinstance(dimension, int) or dimension < 1:
            raise DimensionMismatch(f"dimension must be a positive integer, got {dimension!r}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        canonical: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != dimension:
                raise DimensionMismatch(
                    f"exponent vector {exps} has length {len(exps)}, expected {dimension}"
                )
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise DimensionMismatch(f"exponents must be non-negative integers: {exps}")
            coeff = Fraction(coeff)
            cur = canonical.get(exps)
            coeff = coeff if cur is None else cur + coeff
            if coeff:
                canonical[exps] = coeff
            elif cur is not None:
                del canonical[exps]
        self._dimension = dimension
        self._terms = canonical
        self._hash = None

    @classmethod
    def _make(cls, dimension: int, terms: dict) -> "Polynomial":
        # Trusted fast path: terms must already be canonical.
        obj = object.__new__(cls)
        obj._dimension = dimension
        obj._terms = terms
        obj._hash = None
        return obj

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls._make(dimension, {})

    @classmethod
    def one(cls, dimension: int) -> "Polynomial":
        return cls.constant(dimension, 1)

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        value = Fraction(value)
        if not value:
            return cls.zero(dimension)
        return cls._make(dimension, {(0,) * dimension: value})

    @classmethod
    def variable(cls, index: int, dimension: int) -> "Polynomial":
        if not 0 <= index < dimension:
            raise IndexOutOfRange(f"variable index {index} not in 0..{dimension - 1}")
        return _cached_variable(index, dimension)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def terms(self):
        """Read-only view of the canonical term map."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and (0,) * self._dimension in self._terms)

    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * self._dimension, Fraction(0))

    # -- ring operations ------------------------------------------------

    def _check_same_ring(self, other: "Polynomial"):
        if self._dimension != other._dimension:
            raise DimensionMismatch(
                f"polynomials live in dimensions {self._dimension} and {other._dimension}"
            )

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_same_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self._dimension, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._make(self._dimension, add_terms(self._terms, other._terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._make(self._dimension, sub_terms(self._terms, other._terms))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._make(self._dimension, sub_terms(other._terms, self._terms))

    def __neg__(self):
        return Polynomial._make(self._dimension, neg_terms(self._terms))

    def __pos__(self):
        return self

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_same_ring(other)
            return Polynomial._make(self._dimension, mul_terms(self._terms, other._terms))
        if isinstance(other, Fraction):
            return Polynomial._make(self._dimension, scale_terms(self._terms, other))
        if isinstance(other, int):
            return Polynomial._make(self._dimension, scale_terms(self._terms, Fraction(other)))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        result = Polynomial.one(self._dimension)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._dimension == other._dimension and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self._dimension, other)
        return NotImplemented

    def __hash__(self):
        # A constant equals its Fraction value, so it must hash like it too.
        if self._hash is None:
            if self.is_constant():
                self._hash = hash(self.constant_term())
            else:
                self._hash = hash((self._dimension, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self._terms)

    # -- calculus and structure ------------------------------------------

    def total_degree(self):
        """Max exponent sum, or ``MINUS_INFINITY`` for the zero polynomial."""
        if not self._terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self._terms)

    def degree_in(self, index: int):
        if not 0 <= index < self._dimension:
            raise IndexOutOfRange(f"variable index {index} not in 0..{self._dimension - 1}")
        if not self._terms:
            return MINUS_INFINITY
        return max(e[index] for e in self._terms)

    def partial_derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < self._dimension:
            raise IndexOutOfRange(f"variable index {index} not in 0..{self._dimension - 1}")
        out = {}
        for exps, coeff in self._terms.items():
            e = exps[index]
            if e:
                new = exps[:index] + (e - 1,) + exps[index + 1 :]
                cur = out.get(new)
                val = coeff * e if cur is None else cur + coeff * e
                if val:
                    out[new] = val
                elif cur is not None:
                    del out[new]
        return Polynomial._make(self._dimension, out)

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace variable i by images[i]; a ring homomorphism in self."""
        if len(images) != self._dimension:
            raise ArityMismatch(
                f"need {self._dimension} images, got {len(images)}"
            )
        target_dims = {im.dimension for im in images}
        if len(target_dims) != 1:
            raise DimensionMismatch(f"images live in different dimensions: {sorted(target_dims)}")
        m = target_dims.pop()
        powers: list[list] = [[None, im._terms] for im in images]  # im**0 unused
        acc: dict = {}
        one_exps = (0,) * m
        for exps, coeff in self._terms.items():
            prod = None
            for i, e in enumerate(exps):
                if not e:
                    continue
                cache = powers[i]
                while len(cache) <= e:
                    cache.append(mul_terms(cache[-1], cache[1]))
                prod = cache[e] if prod is None else mul_terms(prod, cache[e])
            if prod is None:
                prod = {one_exps: Fraction(1)}
            iadd_scaled_terms(acc, prod, coeff)
        return Polynomial._make(m, acc)

    def coefficient_of_power(self, index: int, power: int) -> "Polynomial":
        """Coefficient of x_index^power, as a polynomial with that slot zeroed."""
        if not 0 <= index < self._dimension:
            raise IndexOutOfRange(f"variable index {index} not in 0..{self._dimension - 1}")
        out = {}
        for exps, coeff in self._terms.items():
            if exps[index] == power:
                out[exps[:index] + (0,) + exps[index + 1 :]] = coeff
        return Polynomial._make(self._dimension, out)

    def divided_by_power(self, index: int, power: int):
        """Exact quotient by x_index^power, or None when not divisible."""
        if not 0 <= index < self._dimension:
            raise IndexOutOfRange(f"variable index {index} not in 0..{self._dimension - 1}")
        out = {}
        for exps, coeff in self._terms.items():
            if exps[index] < power:
                return None
            out[exps[:index] + (exps[index] - power,) + exps[index + 1 :]] = coeff
        return Polynomial._make(self._dimension, out)

    def used_variables(self) -> frozenset[int]:
        used = set()
        for exps in self._terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return frozenset(used)

    def depends_only_on(self, indices: Iterable[int]) -> bool:
        allowed = set(indices)
        return all(
            all(e == 0 or i in allowed for i, e in enumerate(exps)) for exps in self._terms
        )

    def extend(self, extra: int) -> "Polynomial":
        """Same polynomial viewed in ``dimension + extra`` variables."""
        if extra == 0:
            return self
        pad = (0,) * extra
        return Polynomial._make(
            self._dimension + extra, {exps + pad: c for exps, c in self._terms.items()}
        )

    def __str__(self):
        from .grammar import format_polynomial

        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self._dimension}, {str(self)!r})"


@lru_cache(maxsize=None)
def _cached_variable(index: int, dimension: int) -> Polynomial:
    exps = tuple(1 if i == index else 0 for i in range(dimension))
    return Polynomial._make(dimension, {exps: Fraction(1)})


def variables(dimension: int) -> tuple[Polynomial, ...]:
    """The coordinate functions x_1, ..., x_n as polynomials."""
    return tuple(Polynomial.variable(i, dimension) for i in range(dimension))

