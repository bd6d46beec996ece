"""Differential tests of exact polynomial arithmetic against sympy.

sympy's sparse rings over QQ (``sympy.polys.rings.ring``) share no code
with this package, so each operation is computed along two independent
paths and the results are compared term by term as ``Fraction`` maps.
Coefficients include large coprime denominators, and some results have
content that cancels down to denominator 1.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona3 import (
    AffineGenerator,
    Derivation,
    DomainError,
    InvalidGenerator,
    PolyMap,
    Polynomial,
    kernel_coordinates,
    nagata_derivation,
)
from cremona3._termops import MAX_EXPONENT

sympy_rings = pytest.importorskip("sympy.polys.rings")
from sympy import Matrix, Rational  # noqa: E402
from sympy.polys.domains import QQ  # noqa: E402

R, SX, SY, SZ = sympy_rings.ring("x,y,z", QQ)
SYMPY_GENS = (SX, SY, SZ)
#: The kernel coordinates (Z, P) = (z, xz - y^2/2), in sympy.
SYMPY_KERNEL = (SZ, SX * SZ - SY ** 2 / 2)

#: Small denominators, their products, and large primes (coprime to all).
DENOMINATORS = (1, 1, 2, 3, 6, 7, 10**9 + 7, 2**61 - 1, 998244353)
DIFFERENTIAL = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def coefficients(draw):
    numerator = draw(st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12)))
    return Fraction(numerator, draw(st.sampled_from(DENOMINATORS)))


@st.composite
def polynomials(draw, max_degree=3, max_terms=4, free=(0, 1, 2), dimension=3):
    """Polynomials in the variables ``free`` (the others have exponent 0)."""
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_degree)) if i in free else 0 for i in range(dimension)
        )
        terms[exps] = terms.get(exps, Fraction(0)) + draw(coefficients())
    return Polynomial(dimension, terms)


def to_sympy(p):
    return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in p.terms.items()})


def from_sympy(s):
    return {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in dict(s).items()}


def agree(p, s):
    return dict(p.terms) == from_sympy(s)


@DIFFERENTIAL
@given(polynomials(), polynomials())
def test_ring_operations_match_sympy(f, g):
    sf, sg = to_sympy(f), to_sympy(g)
    assert agree(f + g, sf + sg)
    assert agree(f - g, sf - sg)
    assert agree(f * g, sf * sg)
    assert agree(-f, -sf)


@DIFFERENTIAL
@given(polynomials(max_degree=2, max_terms=3), st.integers(1, 4))
def test_powers_match_sympy(f, k):
    # sympy leaves 0**0 undefined; here every f ** 0 is 1.
    assert f ** 0 == 1
    assert agree(f ** k, to_sympy(f) ** k)


@DIFFERENTIAL
@given(
    polynomials(max_degree=2, max_terms=3),
    st.tuples(*(polynomials(max_degree=2, max_terms=3) for _ in range(3))),
)
def test_substitute_matches_sympy(f, images):
    expected = to_sympy(f).compose(list(zip(SYMPY_GENS, map(to_sympy, images))))
    assert agree(f.substitute(images), expected)


@DIFFERENTIAL
@given(
    st.tuples(*(polynomials(max_degree=2, max_terms=3) for _ in range(3))),
    st.tuples(*(polynomials(max_degree=2, max_terms=3) for _ in range(3))),
)
def test_compose_matches_sympy(f, g):
    # All of f's components go through one shared substitution pass.
    substitution = list(zip(SYMPY_GENS, map(to_sympy, g)))
    composed = PolyMap(f).compose(PolyMap(g)).components
    for got, component in zip(composed, f):
        assert agree(got, to_sympy(component).compose(substitution))


@DIFFERENTIAL
@given(polynomials(), st.integers(0, 2))
def test_partial_derivative_matches_sympy(f, index):
    assert agree(f.partial_derivative(index), to_sympy(f).diff(SYMPY_GENS[index]))


@DIFFERENTIAL
@given(polynomials(max_terms=3), polynomials(max_terms=3), coefficients())
def test_equality_and_hash_match_sympy(f, g, c):
    assert (f == g) == (to_sympy(f) == to_sympy(g))
    # Equal values built along different routes are equal and hash alike.
    h = (f + g) - g
    assert h == f and hash(h) == hash(f)
    const = f - f + c
    assert const == c and hash(const) == hash(c)
    assert (const == f) == (to_sympy(f) == R(QQ(c.numerator, c.denominator)))


@DIFFERENTIAL
@given(polynomials())
def test_content_that_cancels_leaves_denominator_one(f):
    den, _ = f.integer_terms()
    cleared = f * den
    assert cleared.integer_terms()[0] == 1
    assert agree(cleared, to_sympy(f) * den)
    assert cleared / den == f


def sympy_derivation(images):
    return lambda g: sum((img * g.diff(v) for img, v in zip(images, SYMPY_GENS)), R.zero)


def from_kernel_sympy(c):
    """c(z, xz - y^2/2) as a package polynomial, substituted in sympy."""
    value = sum(
        (QQ(k.numerator, k.denominator) * SYMPY_KERNEL[0] ** a * SYMPY_KERNEL[1] ** b
         for (a, b), k in c.terms.items()),
        R.zero,
    )
    return Polynomial(3, from_sympy(value))


@DIFFERENTIAL
@given(
    st.tuples(*(polynomials(max_degree=2, max_terms=3) for _ in range(3))),
    polynomials(max_degree=4, max_terms=6),
)
def test_derivation_apply_matches_sympy(images, f):
    # One fused pass in the package; diff, products and a sum in sympy.
    expected = sympy_derivation([to_sympy(img) for img in images])(to_sympy(f))
    assert agree(Derivation(images).apply(f), expected)


@st.composite
def kernel_shears(draw):
    """(D, q) with q in ker D: the shear (y, z, 0) with q = c(z, p), or a
    triangular D = (a(y, z), b(z), 0) with q = q(z)."""
    if draw(st.booleans()):
        c = draw(polynomials(max_degree=2, max_terms=3, free=(0, 1), dimension=2))
        return nagata_derivation(), from_kernel_sympy(c)
    a = draw(polynomials(max_degree=2, max_terms=3, free=(1, 2)))
    b, q = (draw(polynomials(max_degree=2, max_terms=3, free=(2,))) for _ in range(2))
    return Derivation((a, b, Polynomial.zero(3))), q


@DIFFERENTIAL
@given(kernel_shears())
def test_exp_map_matches_the_sympy_series(shear):
    D, q = shear
    assert sympy_derivation([to_sympy(img) for img in D.images])(to_sympy(q)) == R.zero
    step = sympy_derivation([to_sympy(q) * to_sympy(img) for img in D.images])
    for got, gen in zip(D.scaled_by(q).exp_map(), SYMPY_GENS):
        # sum_k (qD)^k(x_i) / k!, truncated where the iterate vanishes.
        term, total, k = gen, gen, 0
        while term != R.zero:
            k += 1
            term = step(term) / k
            total += term
        assert agree(got, total)


@DIFFERENTIAL
@given(polynomials(max_degree=3, max_terms=5, free=(0, 1), dimension=2))
def test_kernel_coordinates_inverts_the_sympy_substitution(c):
    assert kernel_coordinates(from_kernel_sympy(c)) == c


def test_kernel_and_image_of_the_shear_meet_in_z_times_the_kernel():
    # The lemma behind decompose's unchecked division of f2 - alpha*y by z:
    # z^a p^b is D of a polynomial iff a >= 1.  D keeps the degree, so in
    # degree d = a + 2b the image is the column space of D on the degree-d
    # monomials, and membership is an exact rank test.
    D = sympy_derivation((SY, SZ, R.zero))
    for d in range(7):
        monomials = [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]

        def column(g):
            coefficients = from_sympy(g)
            return [Rational(coefficients.get(m, 0)) for m in monomials]

        image = Matrix([column(D(R.from_dict({m: QQ(1)}))) for m in monomials]).T
        rank = image.rank()
        for a in range(d % 2, d + 1, 2):
            target = SYMPY_KERNEL[0] ** a * SYMPY_KERNEL[1] ** ((d - a) // 2)
            assert D(target) == R.zero
            assert (image.row_join(Matrix(column(target))).rank() == rank) == (a >= 1), (a, d)


@DIFFERENTIAL
@given(
    st.integers(0, 2),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    coefficients().filter(bool),
    st.tuples(*(polynomials(max_degree=2, max_terms=3) for _ in range(3))),
)
def test_derivation_apply_raises_on_exponent_overflow(index, exps, c, others):
    # x_i^MAX * m is valid, but D(x_i) = x_i^2 lifts the x_i-exponent past the
    # limit; the other images are free of x_i, so no term cancels it.
    exps = exps[:index] + (MAX_EXPONENT,) + exps[index + 1 :]
    f = Polynomial(3, {exps: c})
    images = [img.substitute(_without(index)) for img in others]
    images[index] = Polynomial.variable(index, 3) ** 2
    with pytest.raises(DomainError):
        Derivation(tuple(images)).apply(f)


def _without(index):
    gens = [Polynomial.variable(i, 3) for i in range(3)]
    gens[index] = Polynomial.zero(3)
    return gens


# -- affine generators: the integer elimination against sympy's Matrix.inv -----


def _seeded_rational_matrices():
    """Dense and sparse rational matrices, n = 1..4, with and without
    large denominators; rank-deficient ones by a repeated or combined row."""
    rng = random.Random(1968)
    for n in range(1, 5):
        for density in (1.0, 0.5):
            for trial in range(25):
                dens = (1, 2, 3, 7) if trial % 3 else (1, 10**9 + 7, 2**61 - 1)
                rows = [
                    [
                        Fraction(rng.randint(-6, 6), rng.choice(dens)) if rng.random() < density else Fraction(0)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                if n > 1 and trial % 5 == 0:
                    i, j = rng.sample(range(n), 2)
                    c = Fraction(rng.randint(-3, 3), rng.choice(dens))
                    rows[i] = [c * v for v in rows[j]]
                shift = [Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(n)]
                yield rows, shift


def _sympy_matrix(rows):
    return Matrix([[Rational(v.numerator, v.denominator) for v in row] for row in rows])


def _fractions(m):
    return tuple(tuple(Fraction(int(v.p), int(v.q)) for v in m.row(i)) for i in range(m.rows))


def test_affine_inverse_matches_sympy():
    singular = regular = 0
    for rows, shift in _seeded_rational_matrices():
        a = _sympy_matrix(rows)
        if a.det() == 0:
            singular += 1
            with pytest.raises(InvalidGenerator, match="affine matrix is singular"):
                AffineGenerator(rows, shift)
            continue
        regular += 1
        inv = AffineGenerator(rows, shift).inverse()
        a_inv = a.inv()
        b = Matrix([Rational(v.numerator, v.denominator) for v in shift])
        assert inv.matrix == _fractions(a_inv)
        assert inv.translation == tuple(row[0] for row in _fractions(-a_inv * b))
        assert all(type(v) is Fraction for v in (*sum(inv.matrix, ()), *inv.translation))
    assert singular >= 20 and regular >= 100


def test_affine_entries_of_equal_value_give_equal_generators():
    for rows, shift in _seeded_rational_matrices():
        if _sympy_matrix(rows).det() == 0:
            continue
        # The same entries as Fractions, as strings, and unreduced.
        as_fractions = AffineGenerator(rows, shift)
        as_strings = AffineGenerator([[str(v) for v in row] for row in rows], [str(v) for v in shift])
        unreduced = [[Fraction(3 * v.numerator, 3 * v.denominator) for v in row] for row in rows]
        assert as_strings == as_fractions == AffineGenerator(unreduced, shift)
        assert as_strings.inverse() == as_fractions.inverse()
        # Integer entries: the matrix scaled to clear its denominators.
        den = lcm(*(v.denominator for v in (*sum(rows, []), *shift)))
        int_rows = [[int(v * den) for v in row] for row in rows]
        int_shift = [int(v * den) for v in shift]
        as_ints = AffineGenerator(int_rows, int_shift)
        as_int_fractions = AffineGenerator([[Fraction(v) for v in row] for row in int_rows], int_shift)
        as_int_strings = AffineGenerator([[str(v) for v in row] for row in int_rows], [str(v) for v in int_shift])
        assert as_ints == as_int_fractions == as_int_strings
        assert as_ints.inverse() == as_int_fractions.inverse()
