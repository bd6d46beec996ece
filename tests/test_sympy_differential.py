"""Differential tests of exact polynomial arithmetic against sympy.

sympy's sparse rings over QQ (``sympy.polys.rings.ring``) share no code
with this package, so each operation is computed along two independent
paths and the results are compared term by term as ``Fraction`` maps.
Coefficients include large coprime denominators, and some results have
content that cancels down to denominator 1.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona3 import PolyMap, Polynomial

sympy_rings = pytest.importorskip("sympy.polys.rings")
from sympy.polys.domains import QQ  # noqa: E402

R, SX, SY, SZ = sympy_rings.ring("x,y,z", QQ)
SYMPY_GENS = (SX, SY, SZ)

#: Small denominators, their products, and large primes (coprime to all).
DENOMINATORS = (1, 1, 2, 3, 6, 7, 10**9 + 7, 2**61 - 1, 998244353)
DIFFERENTIAL = settings(max_examples=30, derandomize=True, deadline=None)


@st.composite
def coefficients(draw):
    numerator = draw(st.one_of(st.integers(-9, 9), st.integers(-(10**12), 10**12)))
    return Fraction(numerator, draw(st.sampled_from(DENOMINATORS)))


@st.composite
def polynomials(draw, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(3))
        terms[exps] = terms.get(exps, Fraction(0)) + draw(coefficients())
    return Polynomial(3, terms)


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
