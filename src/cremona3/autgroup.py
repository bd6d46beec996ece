"""Automorphisms of affine n-space as validated generator words, and their word files.

A word is a list of generators in functional order (leftmost applied
last); ``AutWord.evaluate`` multiplies the word out to an explicit polynomial
map via substitution.  Composition follows (f o g)(a) = f(g(a)), i.e.
``compose(f, g)`` substitutes g's components into f, all of f's
components in one pass that computes each monomial image once.

Evaluation (``AutWord.evaluate``) multiplies each run of affine factors
out on integer forms, so a word of affine factors alone substitutes
nothing, and folds the runs from the right, so an affine run only
recombines the components of the product to its right; folded in from
the left it would substitute its dense linear forms into the whole
product.  A run of other factors folds from its left end: from the right
it would substitute the growing product into each generator, raised to
the generator's degree, and a product that ends in a translation is
dense (two degree-13 kernel exponentials after a translation took
seconds that way, against milliseconds from the left).

Validity is enforced when a generator is constructed, never re-derived
from a raw map: affine parts must be invertible, triangular components
must have the shape c_i*x_i + h_i(x_{i+1}..x_n) with c_i != 0, exponents
must lie in the kernel of a locally nilpotent derivation, scalars must
be nonzero.  Inversion is defined on words (each generator has a
closed-form inverse); raw maps are never inverted.  Affine, triangular
and exponential inverses are built from the validated parts of the
generator and are never validated again.

Generators compute on integer pairs like ``Polynomial`` does.  An affine
generator holds the canonical integer form ``(den, M, t)`` of x -> A x + b
and its inverse's form; both come from one fraction-free elimination
(``_matrix_inverse``) at validation, so ``inverse()`` swaps the two forms
and ``to_map()`` normalizes one pair per row.  A triangular generator
reads its diagonal, as canonical integer pairs ``(numerator,
denominator)``, and its tails off the packed term maps of its
components; its inverse swaps each pair and substitutes only the
non-constant tails.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import chain, groupby
from math import gcd, lcm
from operator import or_
from typing import Iterable, Optional, Sequence

from . import grammar
from ._termops import EXPONENT_BITS, normalize, scale_terms
from .derivation import DEFAULT_BOUND, Derivation, Nilpotency, nagata_derivation
from .errors import Cremona3Error, DimensionMismatch, DomainError, InvalidGenerator, ParseError
from .exactpoly import Polynomial, _check_dimension, _substitute_all


class PolyMap:
    """An explicit polynomial self-map of affine n-space.

    Carries no invertibility promise; invertible maps arrive as words.
    """

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise DimensionMismatch("a map needs at least one component")
        n = len(components)
        for c in components:
            if c.dimension != n:
                raise DimensionMismatch(
                    f"component dimension {c.dimension} != map dimension {n}"
                )
        self._components = components

    @classmethod
    def identity(cls, dimension: int) -> "PolyMap":
        return cls(tuple(Polynomial.variable(i, dimension) for i in range(dimension)))

    @property
    def dimension(self) -> int:
        return len(self._components)

    @property
    def components(self) -> tuple[Polynomial, ...]:
        return self._components

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self o other: apply other first."""
        if self.dimension != other.dimension:
            raise DimensionMismatch(
                f"cannot compose maps of dimensions {self.dimension} and {other.dimension}"
            )
        return PolyMap(_substitute_all(self._components, other._components))

    def is_identity(self) -> bool:
        return self == PolyMap.identity(self.dimension)

    def __eq__(self, other):
        if isinstance(other, PolyMap):
            return self._components == other._components
        return NotImplemented

    def __hash__(self):
        return hash(self._components)

    def __str__(self):
        return grammar.format_map(self._components)

    def __repr__(self):
        return f"PolyMap({str(self)!r})"


def compose(f: PolyMap, g: PolyMap) -> PolyMap:
    return f.compose(g)


def commutes(f: PolyMap, g: PolyMap) -> bool:
    """True iff f o g equals g o f exactly."""
    if f.dimension != g.dimension:
        raise DimensionMismatch(
            f"cannot compare maps of dimensions {f.dimension} and {g.dimension}"
        )
    return f.compose(g) == g.compose(f)


def parse_poly_map(text: str, dimension: Optional[int] = None) -> PolyMap:
    """Parse a "(e1, ..., en)" literal into a PolyMap."""
    return PolyMap(grammar.parse_map(text, dimension))


# -- exact linear algebra over the integers ---------------------------


def _matrix_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(d, N)`` with ``N / d`` the inverse of the integer matrix ``rows``.

    Fraction-free Gauss-Jordan elimination (Bareiss, "Sylvester's identity
    and multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    1968) on ``[rows | I]``: each step replaces every other row r by
    ``(p * r - f * pivot_row) / p_prev``, a division that is exact because
    every entry is a minor of the augmented matrix.  It ends at
    ``[d*I | N]`` with ``d = +-det``.  Raises InvalidGenerator if singular.
    """
    n = len(rows)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise InvalidGenerator("affine matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        top = m[col]
        p = top[col]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
    return prev, tuple(tuple(row[n:]) for row in m)


def _affine_form(den: int, matrix, shift) -> tuple:
    """The canonical ``(den, M, t)`` of the map x -> (M x + t) / den, den != 0."""
    g = gcd(den, *chain.from_iterable(matrix), *shift)
    if den < 0:
        g = -g
    return den // g, tuple(tuple(v // g for v in row) for row in matrix), tuple(v // g for v in shift)


def _compose_forms(outer, inner) -> tuple:
    """The canonical form of ``outer o inner`` for affine forms ``(den, M, t)``.

    x -> (M1 (M2 x + t2) / d2 + t1) / d1 = (M1 M2 x + M1 t2 + d2 t1) / (d1 d2).
    """
    d1, m1, t1 = outer
    d2, m2, t2 = inner
    columns = tuple(zip(*m2))
    return _affine_form(
        d1 * d2,
        [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in m1],
        [sum(a * b for a, b in zip(row, t2)) + d2 * b for row, b in zip(m1, t1)],
    )


def _affine_map(form) -> PolyMap:
    """The map x -> (M x + t) / den of a canonical form, one pair per row."""
    den, m, t = form
    keys = (0, *(1 << (EXPONENT_BITS * j) for j in range(len(m))))
    return PolyMap(
        [
            Polynomial._make(len(m), *normalize(den, {k: c for k, c in zip(keys, (b, *row)) if c}))
            for row, b in zip(m, t)
        ]
    )


# -- generators ---------------------------------------------------------


class AffineGenerator:
    """x -> A x + b with A invertible.

    Held as the canonical integer form ``(den, M, t)``: ``A = M / den``,
    ``b = t / den``, ``den > 0`` and ``gcd(den, every entry) == 1``, so two
    generators are equal exactly when their forms are.  The inverse's form
    is computed beside it at validation.  ``matrix`` and ``translation``
    are the read-only ``Fraction`` views, built when accessed.
    """

    __slots__ = ("_form", "_inverse_form")

    def __init__(self, matrix: Sequence[Sequence], translation: Sequence):
        rows = [[Fraction(v) for v in row] for row in matrix]
        shift = [Fraction(v) for v in translation]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows) or len(shift) != n:
            raise InvalidGenerator("affine generator needs a square matrix and a matching vector")
        # Ints and reduced Fractions: over their lcm the form is canonical.
        den = lcm(*(v.denominator for v in chain(*rows, shift)))
        m = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in rows)
        t = tuple(v.numerator * (den // v.denominator) for v in shift)
        # M^-1 = adj / d, so A^-1 = den * adj / d and -A^-1 b = -adj t / d.
        d, adj = _matrix_inverse(m)
        self._form = (den, m, t)
        self._inverse_form = _affine_form(
            d,
            [[den * v for v in row] for row in adj],
            [-sum(a * b for a, b in zip(row, t)) for row in adj],
        )

    @property
    def dimension(self) -> int:
        return len(self._form[1])

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        den, m, _ = self._form
        return tuple(tuple(Fraction(v, den) for v in row) for row in m)

    @property
    def translation(self) -> tuple[Fraction, ...]:
        den, _, t = self._form
        return tuple(Fraction(v, den) for v in t)

    def to_map(self) -> PolyMap:
        return _affine_map(self._form)

    def inverse(self) -> "AffineGenerator":
        # x -> A^-1 (x - b): its form was computed at validation, and its
        # own inverse is this form, so nothing is eliminated here.
        inv = AffineGenerator.__new__(AffineGenerator)
        inv._form, inv._inverse_form = self._inverse_form, self._form
        return inv

    def __eq__(self, other):
        if isinstance(other, AffineGenerator):
            return self._form == other._form
        return NotImplemented

    def __repr__(self):
        return f"AffineGenerator({self.matrix!r}, {self.translation!r})"


class TriangularGenerator:
    """Components c_i * x_i + h_i where h_i involves only later variables.

    The diagonal is held as canonical integer pairs: c_i = num / den with
    den > 0 and gcd(num, den) == 1.
    """

    __slots__ = ("components", "_diagonal", "_tails")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        n = len(components)
        diagonal = []
        tails = []
        for i, comp in enumerate(components):
            if comp.dimension != n:
                raise DimensionMismatch(
                    f"component dimension {comp.dimension} != generator dimension {n}"
                )
            unit = 1 << (EXPONENT_BITS * i)
            ci = comp._terms.get(unit)
            if not ci:
                raise InvalidGenerator(f"component {i} has no x_{i + 1} term")
            tail = {k: c for k, c in comp._terms.items() if k != unit}
            # No field of x_1..x_i may be set in the tail's monomials.
            if reduce(or_, tail, 0) & ((unit << EXPONENT_BITS) - 1):
                raise InvalidGenerator(
                    f"component {i} must depend on x_{i + 1} linearly and otherwise only on later variables"
                )
            g = gcd(ci, comp._den)
            diagonal.append((ci // g, comp._den // g))
            tails.append(Polynomial._make(n, *normalize(comp._den, tail)))
        self.components = components
        self._diagonal = tuple(diagonal)
        self._tails = tuple(tails)

    @property
    def dimension(self) -> int:
        return len(self.components)

    def to_map(self) -> PolyMap:
        return PolyMap(self.components)

    def inverse(self) -> "TriangularGenerator":
        # Back-substitution from the last component upward; the inverse has
        # diagonal 1/c_i and tails -h_i(later inverse components)/c_i.
        n = self.dimension
        xs = [Polynomial.variable(i, n) for i in range(n)]
        inv = TriangularGenerator.__new__(TriangularGenerator)
        # 1 / (num / den) is the swapped pair, its sign moved to the numerator.
        inv._diagonal = tuple((den, num) if num > 0 else (-den, -num) for num, den in self._diagonal)
        components, tails = list(xs), list(xs)
        for i in range(n - 1, -1, -1):
            tail, (num, d) = self._tails[i], inv._diagonal[i]
            if not tail.is_constant():
                tail = _substitute_all((tail,), xs[: i + 1] + components[i + 1 :])[0]
            den, terms = normalize(tail._den * d, scale_terms(tail._terms, -num))
            tails[i] = Polynomial._make(n, den, terms)
            # The tail has no x_i term: adding (num/d)*x_i is one key, and over
            # the lcm the pair stays canonical (as for Polynomial's constructor).
            common = lcm(den, d)
            terms = scale_terms(terms, common // den)
            terms[1 << (EXPONENT_BITS * i)] = num * (common // d)
            components[i] = Polynomial._make(n, common, terms)
        inv.components, inv._tails = tuple(components), tuple(tails)
        return inv

    def __eq__(self, other):
        if isinstance(other, TriangularGenerator):
            return self.components == other.components
        return NotImplemented

    def __repr__(self):
        return f"TriangularGenerator({grammar.format_map(self.components)!r})"


class ExponentialGenerator:
    """exp(scale * q * D) for q in ker D, D locally nilpotent.

    ``bound`` is the iteration budget the generator was validated at;
    ``to_map`` is the fold of ``Derivation.exp_kernel`` within the same
    budget, without its kernel check: the exponent was checked here.
    """

    __slots__ = ("q", "derivation", "scale", "bound")

    def __init__(self, q: Polynomial, derivation: Derivation, scale=1, bound: int = DEFAULT_BOUND):
        if q.dimension != derivation.dimension:
            raise DimensionMismatch(
                f"exponent dimension {q.dimension} != derivation dimension {derivation.dimension}"
            )
        if not derivation.apply(q).is_zero():
            raise InvalidGenerator("exponent must lie in the kernel of the derivation")
        report = derivation.is_locally_nilpotent(bound)
        if report.verdict is not Nilpotency.LOCALLY_NILPOTENT_UP_TO_BOUND:
            raise InvalidGenerator(
                f"derivation is not verifiably locally nilpotent within bound {bound}"
            )
        self.q = q
        self.derivation = derivation
        self.scale = Fraction(scale)
        self.bound = bound

    @property
    def dimension(self) -> int:
        return self.q.dimension

    def to_map(self) -> PolyMap:
        return PolyMap(self.derivation._exp_fold(self.q * self.scale, self.bound))

    def inverse(self) -> "ExponentialGenerator":
        # Same q and D as this validated generator: kernel membership and
        # nilpotency (proved at its bound) carry over.
        inv = ExponentialGenerator.__new__(ExponentialGenerator)
        inv.q, inv.derivation, inv.scale = self.q, self.derivation, -self.scale
        inv.bound = self.bound
        return inv

    def __eq__(self, other):
        if isinstance(other, ExponentialGenerator):
            return (
                self.q == other.q
                and self.derivation == other.derivation
                and self.scale == other.scale
            )
        return NotImplemented

    def __repr__(self):
        return f"ExponentialGenerator({self.q!r}, scale={self.scale})"


class ScalarGenerator:
    """x -> (a*x_1, ..., a*x_n) with a != 0."""

    __slots__ = ("alpha", "_dimension")

    def __init__(self, alpha, dimension: int = 3):
        alpha = Fraction(alpha)
        if not alpha:
            raise InvalidGenerator("scalar generator needs a nonzero ratio")
        _check_dimension(dimension)
        self.alpha = alpha
        self._dimension = dimension

    @property
    def dimension(self) -> int:
        return self._dimension

    def to_map(self) -> PolyMap:
        n = self._dimension
        return PolyMap(tuple(Polynomial.variable(i, n) * self.alpha for i in range(n)))

    def inverse(self) -> "ScalarGenerator":
        return ScalarGenerator(Fraction(1) / self.alpha, self._dimension)

    def __eq__(self, other):
        if isinstance(other, ScalarGenerator):
            return self.alpha == other.alpha and self._dimension == other._dimension
        return NotImplemented

    def __repr__(self):
        return f"ScalarGenerator({self.alpha}, dimension={self._dimension})"


Generator = (AffineGenerator, TriangularGenerator, ExponentialGenerator, ScalarGenerator)


class AutWord:
    """An automorphism as an ordered list of generators.

    Factors are written left to right in functional order:
    ``AutWord(n, [g1, g2, g3])`` evaluates to g1 o g2 o g3.
    """

    __slots__ = ("dimension", "factors")

    def __init__(self, dimension: int, factors: Iterable = ()):
        factors = tuple(factors)
        for g in factors:
            if not isinstance(g, Generator):
                raise InvalidGenerator(f"not a generator: {g!r}")
            if g.dimension != dimension:
                raise DimensionMismatch(
                    f"generator dimension {g.dimension} != word dimension {dimension}"
                )
        self.dimension = dimension
        self.factors = factors

    def evaluate(self) -> PolyMap:
        """The map g1 o g2 o ... o gk; the identity for the empty word.

        The word is cut into maximal runs of affine factors and of other
        factors.  An affine run is multiplied out on its integer forms
        (``_compose_forms``).  Another run is multiplied out from its left
        end, ((g1 o g2) o g3) ..., so the images of each substitution are
        one generator's components.  The runs then fold from the right: acc
        starts as the last run's map and becomes r o acc for each earlier
        run r, so an affine run only recombines the components of acc.
        """
        runs = groupby(self.factors, lambda g: isinstance(g, AffineGenerator))
        acc = None
        for affine, run in reversed([(affine, list(run)) for affine, run in runs]):
            if affine:
                m = _affine_map(reduce(_compose_forms, (g._form for g in run)))
            else:
                m = reduce(PolyMap.compose, (g.to_map() for g in run))
            acc = m if acc is None else m.compose(acc)
        return PolyMap.identity(self.dimension) if acc is None else acc

    def inverse(self) -> "AutWord":
        return AutWord(self.dimension, tuple(g.inverse() for g in reversed(self.factors)))

    def __mul__(self, other):
        if not isinstance(other, AutWord):
            return NotImplemented
        if self.dimension != other.dimension:
            raise DimensionMismatch("cannot concatenate words of different dimensions")
        return AutWord(self.dimension, self.factors + other.factors)

    def __eq__(self, other):
        if isinstance(other, AutWord):
            return self.dimension == other.dimension and self.factors == other.factors
        return NotImplemented

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __repr__(self):
        return f"AutWord({self.dimension}, {list(self.factors)!r})"



# -- word files ----------------------------------------------------------


def parse_word(text: str, dimension: int = 3) -> AutWord:
    """Read a word file: one generator a line, in functional order.

    The line kinds are ``affine`` (n^2 matrix entries, then n shifts),
    ``triangular`` (a map literal), ``exp`` (a scale, then an exponent in the
    kernel of ``nagata_derivation()``; dimension 3 only) and ``scalar``.
    Fields are separated by any run of whitespace, blank and ``#`` lines are
    skipped, and only "\\n", "\\r\\n" and "\\r" end a line.  An error of a line
    names the line, and column 1 when it has no column of its own.
    """
    if dimension > 0:  # a dimension below 1 keeps the error the empty word gives it
        _check_dimension(dimension)
    factors = []
    nagata = nagata_derivation()
    # Not splitlines(): it also ends a line at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        try:
            # surrogateescape decodes each byte that is not UTF-8 to U+DC80..U+DCFF.
            bad = re.search("[\udc80-\udcff]", raw)
            if bad:
                raise ParseError("word file is not valid UTF-8", None, bad.start() + 1)
            body = raw.rstrip()
            line = body.lstrip()
            if not line or line.startswith("#"):
                continue
            kind, *rest = line.split(None, 1)
            rest = "".join(rest)
            if kind == "affine":
                numbers = [grammar._parse_rational_token(tok) for tok in rest.split()]
                if len(numbers) != dimension * dimension + dimension:
                    raise ParseError(
                        f"affine generator needs {dimension * dimension + dimension} rationals, "
                        f"got {len(numbers)}"
                    )
                matrix = [numbers[i * dimension : (i + 1) * dimension] for i in range(dimension)]
                factors.append(AffineGenerator(matrix, numbers[dimension * dimension :]))
            elif kind == "triangular":
                # Padded to where it stands in the line, so the grammar's columns are the file's.
                factors.append(TriangularGenerator(grammar.parse_map(rest.rjust(len(body)), dimension)))
            elif kind == "exp":
                scale_text, *q_text = rest.split(None, 1) or [""]
                if dimension != 3:
                    raise DomainError("exp generators use the fixed shear derivation in dimension 3")
                q = grammar.parse_polynomial("".join(q_text).rjust(len(body)), 3)
                factors.append(ExponentialGenerator(q, nagata, grammar._parse_rational_token(scale_text)))
            elif kind == "scalar":
                factors.append(ScalarGenerator(grammar._parse_rational_token(rest), dimension))
            else:
                raise ParseError(f"unknown generator kind {kind!r}")
        except Cremona3Error as exc:
            raise type(exc)(exc._message, lineno, exc.column or 1) from None
    return AutWord(dimension, factors)


def format_word(word: AutWord) -> str:
    """The word as ``parse_word`` reads it back: one generator a line.

    Raises DomainError for an ``ExponentialGenerator`` whose derivation is
    not ``nagata_derivation()``, which no line of the format can hold.
    """
    nagata = nagata_derivation()
    lines = []
    for index, g in enumerate(word.factors):
        if isinstance(g, AffineGenerator):
            den, m, t = g._form
            lines.append("affine " + " ".join(grammar._format_ratio(v, den) for v in chain(*m, t)))
        elif isinstance(g, TriangularGenerator):
            lines.append("triangular " + grammar.format_map(g.components))
        elif isinstance(g, ExponentialGenerator):
            if g.derivation != nagata:
                raise DomainError(f"factor {index}: word files hold exp over the shear derivation only")
            lines.append(f"exp {grammar.format_rational(g.scale)} {grammar.format_polynomial(g.q)}")
        else:
            lines.append(f"scalar {grammar.format_rational(g.alpha)}")
    return "\n".join(lines) + "\n"
