"""Exact polynomial arithmetic: examples, errors, and algebraic laws."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona3 import (
    ArityMismatch,
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    MINUS_INFINITY,
    Polynomial,
    variables,
)
from cremona3 import exactpoly
from cremona3._termops import MAX_EXPONENT, derive_terms, pack
from cremona3.exactpoly import _sum
from cremona3.verify import random_polynomial
from oracle import (
    as_dict,
    from_poly,
    normalize,
    o_add,
    o_mul,
    o_partial,
    o_substitute,
    o_total_degree,
)

X, Y, Z = variables(3)
HALF = Fraction(1, 2)
P = X * Z - HALF * Y ** 2
SHEAR = (X + Y + HALF * Z, Y + Z, Z)  # exp of the x->y->z->0 derivation


def rationals(max_num=9, max_den=4):
    return st.builds(
        Fraction, st.integers(-max_num, max_num), st.integers(1, max_den)
    )


@st.composite
def polynomials(draw, dimension=3, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(
            draw(st.integers(0, max_degree)) for _ in range(dimension)
        )
        terms[exps] = terms.get(exps, Fraction(0)) + draw(rationals())
    return Polynomial(dimension, terms)


# -- construction and canonical form ------------------------------------


def test_construction_merges_and_drops_zeros():
    p = Polynomial(2, [((1, 0), 2), ((1, 0), -2), ((0, 1), 3)])
    assert dict(p.terms) == {(0, 1): Fraction(3)}


def test_construction_rejects_wrong_exponent_length():
    with pytest.raises(DimensionMismatch):
        Polynomial(3, {(1, 0): 1})


def test_construction_rejects_negative_exponents():
    with pytest.raises(DimensionMismatch):
        Polynomial(2, {(-1, 0): 1})


def _built_by_arithmetic(dimension, pairs):
    xs = variables(dimension)
    total = Polynomial.zero(dimension)
    for exps, coeff in pairs:
        monomial = Polynomial.one(dimension)
        for x, e in zip(xs, exps):
            monomial = monomial * x ** e
        total = total + monomial * Fraction(coeff)
    return total


def test_constructor_is_canonical_on_mixed_coefficients():
    rng = random.Random(71)
    kinds = (
        lambda: rng.randint(-9, 9),
        lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        lambda: f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}",
    )
    for dimension in (1, 2, 3, 4):
        for _ in range(60):
            keys = [tuple(rng.randint(0, 3) for _ in range(dimension)) for _ in range(rng.randint(1, 4))]
            pairs = [(rng.choice(keys), rng.choice(kinds)()) for _ in range(rng.randint(0, 8))]
            # Duplicates that cancel, merge to an integer, merge to a reduced fraction.
            cancel, whole, reduced = (rng.choice(keys) for _ in range(3))
            pairs += [(cancel, Fraction(3, 4)), (cancel, "-3/4"), (whole, "1/2")]
            pairs += [(whole, Fraction(1, 2)), (reduced, Fraction(1, 6)), (reduced, "1/6")]
            rng.shuffle(pairs)
            p = Polynomial(dimension, pairs)
            den, numerators = p.integer_terms()
            assert den > 0 and all(numerators.values())
            assert gcd(den, *numerators.values()) == 1
            assert as_dict(p) == normalize([(c, e) for e, c in pairs])
            q = _built_by_arithmetic(dimension, pairs)
            assert p == q and hash(p) == hash(q)
            assert p.integer_terms() == q.integer_terms()
    half = Polynomial(2, [((1, 0), "1/2"), ((1, 0), Fraction(1, 2)), ((0, 1), 3)])
    assert half.integer_terms() == (1, {(1, 0): 1, (0, 1): 3})
    assert Polynomial(1, [((2,), Fraction(1, 3)), ((2,), "-1/3")]).integer_terms() == (1, {})
    assert Polynomial(1, [((0,), Fraction(1, 6)), ((0,), "1/6")]).integer_terms() == (3, {(0,): 1})


@pytest.mark.parametrize("coeff", [1, Fraction(1, 2), "3/4"])
def test_constructor_errors_keep_their_types(coeff):
    with pytest.raises(DimensionMismatch):
        Polynomial(3, {(1, 0): coeff})
    with pytest.raises(DimensionMismatch):
        Polynomial(2, [((0, -1), coeff)])
    with pytest.raises(DomainError, match="exceeds the limit"):
        Polynomial(2, [((0, 0), coeff), ((MAX_EXPONENT + 1, 0), coeff)])


def test_exponents_past_the_packed_field_raise_domain_error():
    top = Polynomial(3, {(0, MAX_EXPONENT, 0): 1})
    assert X ** MAX_EXPONENT == Polynomial(3, {(MAX_EXPONENT, 0, 0): 1})
    assert (X ** MAX_EXPONENT * top).degree_in(1) == MAX_EXPONENT
    with pytest.raises(DomainError):
        X ** (MAX_EXPONENT + 1)
    with pytest.raises(DomainError):
        X ** 2**40
    with pytest.raises(DomainError):
        top * Y
    with pytest.raises(DomainError):
        Polynomial(3, {(0, 0, MAX_EXPONENT + 1): 1})


def test_zero_is_canonical_and_tagged_with_dimension():
    zero = Polynomial.zero(3)
    assert zero.is_zero()
    assert zero.dimension == 3
    assert zero == X - X
    with pytest.raises(DimensionMismatch):
        Polynomial.zero(2) + zero


@pytest.mark.parametrize("dimension", [0, -4, 2.0, "3"])
def test_factories_check_the_dimension_like_the_constructor(dimension):
    for build in (
        lambda: Polynomial(dimension),
        lambda: Polynomial.zero(dimension),
        lambda: Polynomial.one(dimension),
        lambda: Polynomial.constant(dimension, Fraction(2, 3)),
        lambda: Polynomial.constant(dimension, 0),
    ):
        with pytest.raises(DimensionMismatch, match="dimension must be a positive integer"):
            build()


def test_every_factory_refuses_a_dimension_past_the_budget():
    limit = exactpoly.MAX_DIMENSION
    assert limit == 1000
    for dimension in (limit + 1, 10**9):
        for build in (
            lambda: Polynomial(dimension),
            lambda: Polynomial.zero(dimension),
            lambda: Polynomial.constant(dimension, 2),
            lambda: Polynomial.variable(0, dimension),
        ):
            with pytest.raises(DomainError, match=f"dimension {dimension} exceeds the limit {limit}"):
                build()
    assert Polynomial.variable(limit - 1, limit).degree_in(limit - 1) == 1


def test_equality_is_term_map_equality():
    assert X * Z - HALF * Y * Y == P
    assert X + Y != X - Y
    assert Polynomial.constant(3, Fraction(5)) == 5
    assert hash(X * Z - HALF * Y * Y) == hash(P)
    # A constant equals its value, so it must hash like it (zero included).
    for value in (0, 1, Fraction(1, 2), -3):
        constant = Polynomial.constant(3, value)
        assert constant == value
        assert hash(constant) == hash(Fraction(value))
        assert len({constant, value}) == 1
    # Floats and strings are not coefficients: no operand is converted from them.
    for other in (1.5, "1/2"):
        assert Polynomial.constant(3, Fraction(3, 2)) != other
        for f in (P, X):  # over 2 and over 1
            for operation in (
                lambda: f + other, lambda: other + f, lambda: f - other, lambda: other - f,
                lambda: f * other, lambda: other * f, lambda: f / other,
            ):
                with pytest.raises(TypeError):
                    operation()


def test_coefficients_are_reduced_rationals():
    # The coefficient field keeps the invariants: reduced, positive
    # denominator, zero unique as 0/1.
    p = Polynomial(1, {(1,): Fraction(2, 4), (0,): Fraction(-1, -2)})
    assert dict(p.terms) == {(1,): Fraction(1, 2), (0,): Fraction(1, 2)}
    assert Fraction(0, 7) == Fraction(0, 1)
    # Stored as one denominator over integers that share no factor with it.
    assert p.integer_terms() == (2, {(1,): 1, (0,): 1})
    q = X / 6 + Fraction(2, 3) * Y - 1
    assert q.integer_terms() == (6, {(1, 0, 0): 1, (0, 1, 0): 4, (0, 0, 0): -6})
    assert (q * 3).integer_terms() == (2, {(1, 0, 0): 1, (0, 1, 0): 4, (0, 0, 0): -6})
    assert sorted(q.exponents()) == [(0, 0, 0), (0, 1, 0), (1, 0, 0)]
    assert (q.coefficient((0, 1, 0)), q.coefficient((0, 0, 5))) == (Fraction(2, 3), 0)


# -- add -----------------------------------------------------------------


def test_add_cancellation():
    assert (X + Y) + (X - Y) == 2 * X


def test_add_identity():
    for f in (P, X ** 3, Polynomial.zero(3)):
        assert f + Polynomial.zero(3) == f


def test_add_recovers_xz():
    assert P + HALF * Y ** 2 == X * Z
    expected = normalize(o_add(from_poly(P), from_poly(HALF * Y ** 2)))
    assert as_dict(P + HALF * Y ** 2) == expected


def test_add_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        X + Polynomial.variable(0, 2)


# -- mul -----------------------------------------------------------------


def test_mul_difference_of_squares():
    assert (X + Y) * (X - Y) == X ** 2 - Y ** 2


def test_mul_identity():
    one = Polynomial.one(3)
    for f in (P, X + 1, Polynomial.zero(3)):
        assert f * one == f


def test_mul_square_of_p():
    expected = X ** 2 * Z ** 2 - X * Y ** 2 * Z + Fraction(1, 4) * Y ** 4
    assert P * P == expected
    assert as_dict(P * P) == normalize(o_mul(from_poly(P), from_poly(P)))


def test_mul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        X * Polynomial.variable(1, 2)


def test_scalar_arithmetic():
    assert 2 * P == P + P
    assert P / 2 == HALF * P
    assert P - 1 == P + Polynomial.constant(3, -1)
    assert -P == -1 * P
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1


@pytest.mark.parametrize("exponent", [-1, 1.5, Fraction(2)], ids=["-1", "1.5", "Fraction(2)"])
def test_power_needs_a_non_negative_integer_exponent(exponent):
    with pytest.raises(ValueError, match="non-negative integer"):
        P ** exponent



def test_division_by_a_scalar_matches_multiplying_by_its_inverse():
    rng = random.Random(97)
    divisors = [1, 7, -1, -12, Fraction(3, 4), Fraction(-5, 6), Fraction(-1, 10**12 + 39)]
    for _ in range(30):
        p = random_polynomial(rng, max_degree=4, max_terms=6)
        for d in divisors + [Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))]:
            q = p / d
            assert q == p * (Fraction(1) / Fraction(d))
            den, _ = q.integer_terms()
            assert den > 0


def test_division_by_zero_raises():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            P / zero
        with pytest.raises(ZeroDivisionError):
            Polynomial.zero(3) / zero


# -- substitute ----------------------------------------------------------


def test_substitute_shear_invariance():
    # p is invariant under the degree-one shear.
    assert P.substitute(list(SHEAR)) == P
    oracle_result = normalize(
        o_substitute(from_poly(P), [from_poly(s) for s in SHEAR], 3)
    )
    assert oracle_result == as_dict(P)


def test_substitute_identity():
    for f in (P, X ** 2 * Y, Polynomial.zero(3)):
        assert f.substitute([X, Y, Z]) == f


def test_substitute_swap():
    assert (X ** 2).substitute([Y, X, Z]) == Y ** 2


def test_substitute_arity_mismatch():
    with pytest.raises(ArityMismatch):
        P.substitute([X, Y])


def test_substitute_mixed_image_dimensions():
    with pytest.raises(DimensionMismatch):
        P.substitute([X, Y, Polynomial.variable(0, 2)])


def test_substitute_changes_dimension():
    u, v = variables(2)
    f = (X + Z).substitute([u, v, u * v])
    assert f == u + u * v


_SUM_DENOMINATORS = (1, 2, 3, 10**9 + 7, 2**61 - 1)


def _fraction_sum(parts, den):
    # The canonical pair of (sum_j c_j * terms_j / den_j) / den, in Fractions.
    total = {}
    for c, (d, terms) in parts:
        for key, v in terms.items():
            total[key] = total.get(key, 0) + Fraction(c * v, d)
    total = {key: v / den for key, v in total.items() if v}
    common = lcm(*(v.denominator for v in total.values()))
    return common, {key: v.numerator * (common // v.denominator) for key, v in total.items()}


def test_sum_matches_fraction_arithmetic():
    rng = random.Random("exactpoly:_sum")
    keys = [pack(e) for e in itertools.product(range(3), repeat=3)]
    for _ in range(300):
        parts = []
        for _ in range(rng.randint(0, 5)):
            terms = {
                key: rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 20))
                for key in rng.sample(keys, rng.randint(0, 6))
            }
            c = rng.choice((0, -1, 1, rng.randint(-(10**6), 10**6)))
            parts.append((c, (rng.choice(_SUM_DENOMINATORS), terms)))
        if parts and rng.random() < 0.2:
            # Every part again with the opposite sign: the sum cancels fully.
            parts += [(-c, pair) for c, pair in parts]
        den = rng.choice(_SUM_DENOMINATORS)
        for got, want in ((_sum(parts, den), _fraction_sum(parts, den)),
                          (_sum(parts), _fraction_sum(parts, 1))):
            assert got == want
            assert all(type(c) is int for c in got[1].values())
    assert _sum([]) == (1, {}) and _sum([], 7) == (1, {})
    assert _sum([(1, (2, {0: 1})), (-1, (4, {0: 2}))], 3) == (1, {})


# -- partial derivative ----------------------------------------------------


def test_partial_derivative_of_p():
    assert P.partial_derivative(0) == Z
    assert P.partial_derivative(1) == -Y
    assert as_dict(P.partial_derivative(1)) == normalize(o_partial(from_poly(P), 1))


def test_partial_derivative_of_constant():
    assert Polynomial.constant(3, Fraction(7, 3)).partial_derivative(0).is_zero()


def test_partial_derivative_index_out_of_range():
    with pytest.raises(IndexOutOfRange, match=r"variable index 3 not in 0\.\.2$"):
        P.partial_derivative(3)
    for index in (3, -1):
        with pytest.raises(IndexOutOfRange, match=rf"variable index {index} not in 0\.\.2$"):
            Polynomial.variable(index, 3)


def test_partial_derivative_goes_through_derive_terms(monkeypatch):
    calls = []

    def counting(a, images):
        calls.append(images)
        return derive_terms(a, images)

    monkeypatch.setattr(exactpoly, "derive_terms", counting)
    assert [P.partial_derivative(i) for i in range(3)] == [Z, -Y, X]
    assert len(calls) == 3
    with pytest.raises(IndexOutOfRange):
        P.partial_derivative(-1)
    assert len(calls) == 3


def test_partial_derivative_builds_no_constant_polynomial(monkeypatch):
    def refuse(cls, dimension, value):
        raise AssertionError("partial_derivative built a constant polynomial")

    monkeypatch.setattr(Polynomial, "constant", classmethod(refuse))
    assert [P.partial_derivative(i) for i in range(3)] == [Z, -Y, X]
    assert (P * Fraction(1, 3)).partial_derivative(1) == Fraction(-1, 3) * Y


# -- total degree ----------------------------------------------------------


def test_total_degree_of_p():
    assert P.total_degree() == 2


def test_total_degree_of_zero():
    assert Polynomial.zero(3).total_degree() == MINUS_INFINITY


def test_total_degree_of_nagata_first_component():
    component = X + Y * P + HALF * Z * P ** 2
    assert component.total_degree() == 5
    oracle_terms = o_add(
        [(Fraction(1), (1, 0, 0))],
        o_add(
            o_mul([(Fraction(1), (0, 1, 0))], from_poly(P)),
            o_mul(
                [(HALF, (0, 0, 1))],
                o_mul(from_poly(P), from_poly(P)),
            ),
        ),
    )
    assert o_total_degree(oracle_terms) == 5


# -- structure helpers -----------------------------------------------------


def test_depends_only_on():
    assert (Z ** 3 + 1).depends_only_on({2})
    assert not (Y + Z).depends_only_on({2})
    assert Polynomial.zero(3).depends_only_on(set())


def test_extend():
    lifted = P.extend(1)
    assert lifted.dimension == 4
    assert lifted.degree_in(3) == 0
    assert lifted.substitute([*variables(3), Polynomial.zero(3)]) == P


def test_constant_helpers():
    five = Polynomial.constant(3, 5)
    assert five.is_constant() and five.constant_term() == 5
    assert Polynomial.zero(3).is_constant()
    assert not P.is_constant()
    assert P.constant_term() == 0
    assert (P + 7).constant_term() == 7


def test_used_variables():
    assert P.used_variables() == {0, 1, 2}
    assert (Z ** 4).used_variables() == {2}
    assert Polynomial.zero(3).used_variables() == frozenset()


# -- algebraic laws --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_add_associative_mul_distributive(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_mul_commutes_and_matches_oracle(f, g):
    assert f * g == g * f
    assert as_dict(f * g) == normalize(o_mul(from_poly(f), from_poly(g)))


@settings(max_examples=30, deadline=None)
@given(
    polynomials(max_degree=3, max_terms=4),
    polynomials(max_degree=3, max_terms=4),
    st.tuples(
        polynomials(max_degree=2, max_terms=3),
        polynomials(max_degree=2, max_terms=3),
        polynomials(max_degree=2, max_terms=3),
    ),
)
def test_substitute_is_a_ring_homomorphism(f, g, images):
    images = list(images)
    assert (f * g).substitute(images) == f.substitute(images) * g.substitute(images)
    assert (f + g).substitute(images) == f.substitute(images) + g.substitute(images)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), st.integers(0, 2))
def test_partial_derivative_leibniz(f, g, index):
    lhs = (f * g).partial_derivative(index)
    rhs = f.partial_derivative(index) * g + f * g.partial_derivative(index)
    assert lhs == rhs
