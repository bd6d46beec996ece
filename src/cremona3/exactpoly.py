"""Exact sparse multivariate polynomials over the rationals.

A polynomial carries its ambient dimension ``n`` and the canonical pair
``(den, terms)``: a positive int ``den`` and a dict from packed
monomials (see ``_termops``) to nonzero ints, with ``gcd(den, every
coefficient) == 1``; its value is ``terms / den``.  So two polynomials
are equal exactly when dimension and pair agree.  A constant polynomial
also equals, and hashes like, its ``Fraction`` value.

``terms`` is the public read-only view with exponent tuples and
``fractions.Fraction`` coefficients, built when accessed.  Values are
immutable; every operation is a pure function, so polynomials can be
shared freely between threads.

``substitute`` and ``PolyMap.compose`` share one routine: a memo local to
the call holds each monomial image once, as a pair ``(den, terms)``, for
all the polynomials it substitutes into.  Each result is one ``_sum``, the
routine that adds term maps over the lcm of their denominators (the
parser, the shear assembler in ``nagata`` and ``Derivation.exp_map`` use
it too).  ``partial_derivative`` is one ``derive_terms`` call for d/dx_i,
whose one nonzero image is the constant 1, as ``Derivation.apply`` is for D.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import or_
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

from ._termops import (
    EXPONENT_BITS,
    FIELD_MASK,
    derive_terms,
    iadd_scaled_terms,
    mul_terms,
    normalize,
    pack,
    pow_terms,
    scale_terms,
    unpack,
)
from .errors import ArityMismatch, DimensionMismatch, DomainError, IndexOutOfRange

Scalar = Union[int, Fraction]

#: Degree of the zero polynomial.
MINUS_INFINITY = float("-inf")

#: Dimension budget: a larger dimension raises DomainError.  Formatting a map
#: costs about n^3 (n components, n fields per monomial, keys of EXPONENT_BITS*n bits).
MAX_DIMENSION = 1000


def default_variable_names(dimension: int) -> tuple[str, ...]:
    """x, y, z in dimension 3; x1..xn otherwise."""
    if dimension == 3:
        return ("x", "y", "z")
    return tuple(f"x{i + 1}" for i in range(dimension))


class Polynomial:
    """Immutable sparse polynomial in ``dimension`` variables."""

    __slots__ = ("_dimension", "_den", "_terms")

    def __init__(self, dimension: int, terms=()):
        _check_dimension(dimension)
        items = terms.items() if isinstance(terms, Mapping) else terms
        merged: dict[int, Scalar] = {}
        for exps, coeff in items:
            key = _pack_checked(dimension, exps)
            coeff = coeff if isinstance(coeff, int) else Fraction(coeff)
            merged[key] = merged[key] + coeff if key in merged else coeff
        # Ints and reduced Fractions: over their lcm the pair is canonical.
        den = lcm(*[c.denominator for c in merged.values() if c.denominator != 1])
        self._dimension = dimension
        self._den = den
        self._terms = {key: c.numerator * (den // c.denominator) for key, c in merged.items() if c}

    @classmethod
    def _make(cls, dimension: int, den: int, terms: dict) -> "Polynomial":
        # Trusted fast path: (den, terms) must already be canonical.
        obj = object.__new__(cls)
        obj._dimension = dimension
        obj._den = den
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        _check_dimension(dimension)
        return cls._make(dimension, 1, {})

    @classmethod
    def one(cls, dimension: int) -> "Polynomial":
        return cls.constant(dimension, 1)

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        _check_dimension(dimension)
        value = Fraction(value)
        return cls._make(dimension, value.denominator, {0: value.numerator} if value else {})

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
        """Read-only map from exponent tuples to ``Fraction``s, built per access."""
        n, den = self._dimension, self._den
        return MappingProxyType({unpack(key, n): Fraction(c, den) for key, c in self._terms.items()})

    def integer_terms(self) -> tuple[int, dict]:
        """The canonical pair ``(den, {exponent tuple: int})`` of this value."""
        n = self._dimension
        return self._den, {unpack(key, n): c for key, c in self._terms.items()}

    def exponents(self) -> tuple[tuple[int, ...], ...]:
        """The exponent tuples of the nonzero terms."""
        n = self._dimension
        return tuple(unpack(key, n) for key in self._terms)

    def coefficient(self, exps) -> Fraction:
        """The coefficient of the monomial with exponent tuple ``exps``."""
        c = self._terms.get(_pack_checked(self._dimension, exps))
        return Fraction(0) if c is None else Fraction(c, self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_term(self) -> Fraction:
        c = self._terms.get(0)
        return Fraction(0) if c is None else Fraction(c, self._den)

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

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        # self + sign * other over the lcm of the two denominators.
        if not other._terms:
            return self
        parts = [(1, (self._den, self._terms)), (sign, (other._den, other._terms))]
        return Polynomial._make(self._dimension, *_sum(parts))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other._plus(self, -1)

    def __neg__(self):
        return Polynomial._make(self._dimension, self._den, scale_terms(self._terms, -1))

    def __pos__(self):
        return self

    def _scaled(self, num: int, den: int) -> "Polynomial":
        return Polynomial._make(
            self._dimension, *normalize(self._den * den, scale_terms(self._terms, num))
        )

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_same_ring(other)
            return Polynomial._make(
                self._dimension,
                *normalize(self._den * other._den, mul_terms(self._terms, other._terms)),
            )
        if isinstance(other, Fraction):
            return self._scaled(other.numerator, other.denominator)
        if isinstance(other, int):
            return self._scaled(other, 1)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("polynomial division by zero")
            # self * (den / num), with the sign on the numerator so the denominator stays positive.
            num, den = other.numerator, other.denominator
            return self._scaled(-den, -num) if num < 0 else self._scaled(den, num)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {exponent!r}")
        # The terms first: they raise DomainError on an exponent overflow
        # before the denominator's power is computed.
        terms = pow_terms(self._terms, exponent)
        return Polynomial._make(self._dimension, self._den**exponent, terms)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (
                self._dimension == other._dimension
                and self._den == other._den
                and self._terms == other._terms
            )
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self._dimension, other)
        return NotImplemented

    def __hash__(self):
        # A constant equals its Fraction value, so it must hash like it too.
        if self.is_constant():
            return hash(self.constant_term())
        return hash((self._dimension, self._den, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- calculus and structure ------------------------------------------

    def _check_index(self, index: int) -> int:
        if not 0 <= index < self._dimension:
            raise IndexOutOfRange(f"variable index {index} not in 0..{self._dimension - 1}")
        return EXPONENT_BITS * index

    def total_degree(self):
        """Max exponent sum, or ``MINUS_INFINITY`` for the zero polynomial."""
        if not self._terms:
            return MINUS_INFINITY
        n = self._dimension
        return max(sum(unpack(key, n)) for key in self._terms)

    def degree_in(self, index: int):
        shift = self._check_index(index)
        if not self._terms:
            return MINUS_INFINITY
        return max((key >> shift) & FIELD_MASK for key in self._terms)

    def partial_derivative(self, index: int) -> "Polynomial":
        # The derivation d/dx_index: its one nonzero image is the constant 1.
        terms = derive_terms(self._terms, ((self._check_index(index), {0: 1}, 1),))
        return Polynomial._make(self._dimension, *normalize(self._den, terms))

    def substitute(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Replace variable i by images[i]; a ring homomorphism in self.

        Each monomial image is computed once, and the terms go over the
        lcm of the denominators of the images they use, then normalize.
        """
        return _substitute_all((self,), images)[0]

    def used_variables(self) -> frozenset[int]:
        bits = reduce(or_, self._terms, 0)
        return frozenset(
            i for i in range(self._dimension) if (bits >> (EXPONENT_BITS * i)) & FIELD_MASK
        )

    def depends_only_on(self, indices: Iterable[int]) -> bool:
        return self.used_variables() <= set(indices)

    def extend(self, extra: int) -> "Polynomial":
        """Same polynomial viewed in ``dimension + extra`` variables."""
        if extra == 0:
            return self
        # New variables take the high fields, so the packed keys are unchanged.
        return Polynomial._make(self._dimension + extra, self._den, self._terms)

    def __str__(self):
        from .grammar import format_polynomial

        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self._dimension}, {str(self)!r})"


def _substitute_all(polys: Sequence[Polynomial], images: Sequence[Polynomial]) -> list:
    """``polys`` (all in dimension n) with variable i replaced by images[i].

    ``memo`` maps a packed monomial to its image as a (den, term map)
    pair, and ``powers[i][e]`` is images[i] ** e as one; both serve all of
    ``polys``, so each distinct monomial costs one ``mul_terms`` in total.
    """
    n = polys[0]._dimension
    if len(images) != n:
        raise ArityMismatch(f"need {n} images, got {len(images)}")
    target_dims = {im._dimension for im in images}
    if len(target_dims) != 1:
        raise DimensionMismatch(f"images live in different dimensions: {sorted(target_dims)}")
    m = target_dims.pop()
    memo, powers = {0: (1, {0: 1})}, {}
    out = []
    for p in polys:
        pairs = [memo.get(key) or _monomial_image(key, memo, powers, images) for key in p._terms]
        out.append(Polynomial._make(m, *_sum(list(zip(p._terms.values(), pairs)), p._den)))
    return out


def _monomial_image(key: int, memo: dict, powers: dict, images) -> tuple:
    # Not yet in memo: the image of key without its last variable, times that variable's power.
    shift = (key.bit_length() - 1) // EXPONENT_BITS * EXPONENT_BITS
    i, e, prefix = shift // EXPONENT_BITS, key >> shift, key & ((1 << shift) - 1)
    cache = powers.get(i) or powers.setdefault(i, [None, (images[i]._den, images[i]._terms)])
    while len(cache) <= e:
        (den, terms), (base_den, base) = cache[-1], cache[1]
        cache.append((den * base_den, mul_terms(terms, base)))
    image = cache[e]
    if prefix:
        den, terms = memo.get(prefix) or _monomial_image(prefix, memo, powers, images)
        image = (den * image[0], mul_terms(terms, image[1]))
    memo[key] = image
    return image


def _sum(parts, den: int = 1) -> tuple[int, dict]:
    """The canonical pair of (sum_j c_j * terms_j / den_j) / den for ``parts`` =
    [(c_j, (den_j, terms_j))]: one accumulator over the lcm of the den_j takes
    each term once, and the pair is normalized once."""
    common = lcm(*{d for _, (d, _) in parts})
    acc: dict = {}
    for c, (d, terms) in parts:
        iadd_scaled_terms(acc, terms, c * (common // d))
    return normalize(den * common, acc)


def _check_dimension(dimension) -> None:
    if not isinstance(dimension, int) or dimension < 1:
        raise DimensionMismatch(f"dimension must be a positive integer, got {dimension!r}")
    if dimension > MAX_DIMENSION:
        raise DomainError(f"dimension {dimension} exceeds the limit {MAX_DIMENSION}")


def _pack_checked(dimension: int, exps) -> int:
    exps = tuple(exps)
    if len(exps) != dimension:
        raise DimensionMismatch(
            f"exponent vector {exps} has length {len(exps)}, expected {dimension}"
        )
    if any(not isinstance(e, int) or e < 0 for e in exps):
        raise DimensionMismatch(f"exponents must be non-negative integers: {exps}")
    return pack(exps)


@lru_cache(maxsize=None)
def _cached_variable(index: int, dimension: int) -> Polynomial:
    _check_dimension(dimension)
    return Polynomial._make(dimension, 1, {1 << (EXPONENT_BITS * index): 1})


def variables(dimension: int) -> tuple[Polynomial, ...]:
    """The coordinate functions x_1, ..., x_n as polynomials."""
    return tuple(Polynomial.variable(i, dimension) for i in range(dimension))
