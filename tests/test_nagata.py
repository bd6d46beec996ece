"""The fixed three-variable cast: standard objects, subgroups, characters."""

import random
from fractions import Fraction

import pytest

from cremona3 import (
    DimensionMismatch,
    DomainError,
    NotMonomialInK,
    PolyMap,
    Polynomial,
    TorusElement,
    character_lambda,
    commutes,
    compose,
    from_kernel_coordinates,
    is_in_K,
    k_monomial,
    kernel_coordinates,
    kernel_shear,
    lambda_degree,
    standard_objects,
    torus_conjugate,
    variables,
)
from cremona3.errors import InvalidGenerator
from cremona3.verify import random_kernel_polynomial, random_nonzero_rational, random_torus
from oracle import divided_by_power

X, Y, Z = variables(3)
Z2, P = variables(2)  # the kernel coordinates
HALF = Fraction(1, 2)
OBJS = standard_objects()


def exp_of_kernel(q3):
    return PolyMap(OBJS.D.scaled_by(q3).exp_map())


# -- standard objects ----------------------------------------------------------


def test_h_matches_displayed_formula():
    p = X * Z - HALF * Y ** 2
    expected = PolyMap((X + Y * p + HALF * Z * p ** 2, Y + Z * p, Z))
    assert OBJS.h == expected


def test_h_prime_is_three_term_series():
    assert OBJS.h_prime == PolyMap((X + Y + HALF * Z, Y + Z, Z))


def test_p_lies_in_the_kernel():
    assert OBJS.D.apply(OBJS.p).is_zero()


def test_standard_objects_are_shared():
    assert standard_objects() is OBJS


# -- K membership ----------------------------------------------------------------


def test_p_is_in_K():
    assert is_in_K(P)


def test_p_squared_z_squared_is_in_K():
    assert is_in_K(Z2 ** 2 * P ** 2)
    assert is_in_K(-HALF * Z2 ** 2 * P ** 2 + 3 * P)


def test_p_times_z_is_not_in_K():
    assert not is_in_K(Z2 * P)


def test_z_is_not_in_K():
    assert not is_in_K(Z2)
    assert not is_in_K(P + Z2)


def test_zero_is_in_K():
    assert is_in_K(Polynomial.zero(2))


def test_K_membership_and_lambda_degree_need_exponents_in_Z_and_P():
    for f in (OBJS.p, Z, Polynomial.zero(3), Polynomial.variable(0, 1)):
        with pytest.raises(DimensionMismatch):
            is_in_K(f)
        with pytest.raises(DimensionMismatch):
            lambda_degree(f)


def test_k_monomial_expands_to_p_times_powers():
    for k in range(4):
        expanded = from_kernel_coordinates(k_monomial(k))
        assert expanded == OBJS.p * (OBJS.p * Z ** 2) ** k
        assert is_in_K(k_monomial(k))


# -- characters ----------------------------------------------------------------


def test_character_values():
    t = TorusElement(Fraction(2), Fraction(3))
    assert character_lambda(0, t) == 6
    assert character_lambda(1, t) == 216
    assert character_lambda(2, TorusElement(Fraction(1), Fraction(1))) == 1


def test_character_rejects_negative_index():
    with pytest.raises(DomainError):
        character_lambda(-1, TorusElement(Fraction(2), Fraction(3)))
    with pytest.raises(DomainError, match="non-negative integer, got -1"):
        k_monomial(-1)


def test_torus_element_rejects_zero_parameters():
    with pytest.raises(InvalidGenerator):
        TorusElement(Fraction(0), Fraction(1))


def test_torus_map_and_inverse():
    t = TorusElement(Fraction(2), Fraction(3))
    assert t.to_map() == PolyMap((Fraction(4, 3) * X, 2 * Y, 3 * Z))
    assert compose(t.to_map(), t.inverse().to_map()).is_identity()


# -- torus conjugation ------------------------------------------------------------


def test_torus_conjugate_scales_nagata_exponent_by_six():
    t = TorusElement(Fraction(2), Fraction(3))
    conjugated = torus_conjugate(t, k_monomial(0))
    assert conjugated == 6 * k_monomial(0)
    assert kernel_shear(conjugated) == exp_of_kernel(6 * OBJS.p)


def test_torus_conjugate_by_identity_torus():
    c = random_kernel_polynomial(random.Random(1), 3) * 2
    assert torus_conjugate(TorusElement(Fraction(1), Fraction(1)), c) == c


def test_torus_conjugate_k1_scales_by_216():
    t = TorusElement(Fraction(2), Fraction(3))
    assert torus_conjugate(t, k_monomial(1)) == 216 * k_monomial(1)


def test_torus_conjugate_matches_the_composition():
    rng = random.Random(1209)
    mixed = 0
    for _ in range(120):
        t = random_torus(rng)
        c = random_kernel_polynomial(rng, 5) * random_nonzero_rational(rng)
        mixed += len(c.exponents()) > 1
        m = compose(t.inverse().to_map(), compose(kernel_shear(c), t.to_map()))
        # The second component of t^-1 o exp(qD) o t is y + q' z.
        q_prime = kernel_coordinates(Polynomial(3, divided_by_power(m.components[1] - Y, 2, 1)))
        conjugated = torus_conjugate(t, c)
        assert conjugated == q_prime
        assert kernel_shear(conjugated) == m
    assert mixed >= 30


def test_torus_conjugate_composes_no_map(monkeypatch):
    import cremona3.autgroup
    import cremona3.nagata

    rng = random.Random(1210)
    samples = [(random_torus(rng), random_kernel_polynomial(rng, 5)) for _ in range(20)]
    counts = []
    for owner, name in (
        (PolyMap, "compose"),
        (cremona3.autgroup, "compose"),
        (cremona3.nagata, "_kernel_pair"),
    ):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            counts.append(_name)
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    for t, c in samples:
        torus_conjugate(t, c)
    assert counts == []


def test_torus_conjugate_matches_the_substitution():
    # The per-term scaling against (g/b) * c(g Z, b^2 P) by the substitution engine.
    rng = random.Random(1213)
    Zk, Pk = variables(2)
    exponents = [Polynomial.zero(2), Polynomial.constant(2, Fraction(-5, 3))]
    exponents += [random_kernel_polynomial(rng, 6) for _ in range(60)]
    tori = [random_torus(rng) for _ in range(10)]
    tori += [TorusElement(Fraction(-2, 3), Fraction(5, 7)), TorusElement(-1, -4)]
    assert any(t.beta < 0 for t in tori) and any(t.gamma < 0 for t in tori)
    for c in exponents:
        for t in tori:
            expected = c.substitute((Zk * t.gamma, Pk * t.beta**2)) * (t.gamma / t.beta)
            assert torus_conjugate(t, c) == expected


def test_torus_conjugate_rejects_exponents_outside_kernel_coordinates():
    t = TorusElement(Fraction(2), Fraction(3))
    for c in (OBJS.p, Polynomial.variable(0, 1)):
        with pytest.raises(DimensionMismatch):
            torus_conjugate(t, c)


def test_character_consistency_on_random_torus_elements():
    rng = random.Random(99)
    for _ in range(50):
        k = rng.randint(0, 3)
        t = random_torus(rng)
        c = k_monomial(k) * random_nonzero_rational(rng)
        assert torus_conjugate(t, c) == c * character_lambda(k, t)


def test_characters_separate_distinct_indices():
    # If two character indices agree on every sampled torus element they
    # must be equal; t = (beta=2, gamma=1) already separates all of them.
    rng = random.Random(7)
    samples = [random_torus(rng) for _ in range(20)]
    samples.append(TorusElement(Fraction(2), Fraction(1)))
    for k in range(4):
        for k_other in range(4):
            agree = all(
                character_lambda(k, t) == character_lambda(k_other, t) for t in samples
            )
            assert agree == (k == k_other)


# -- scaling the one-parameter subgroup ----------------------------------------------
# exp(qD) -> exp(a q D) scales the exponent: its map is kernel_shear(a * c).


def test_scale_unipotent_by_zero_gives_identity_map():
    assert kernel_shear(k_monomial(2) * 0).is_identity()


def test_scale_unipotent_by_two():
    p = OBJS.p
    doubled = kernel_shear(2 * k_monomial(0))
    assert doubled == PolyMap((X + 2 * p * Y + 2 * p ** 2 * Z, Y + 2 * p * Z, Z))
    assert doubled == exp_of_kernel(2 * p)


# -- lambda degree ----------------------------------------------------------------


def test_lambda_degree_of_p():
    assert lambda_degree(P) == 0


def test_lambda_degree_of_scaled_monomial():
    assert lambda_degree(-HALF * Z2 ** 2 * P ** 2) == 1


def test_lambda_degree_rejects_mixed_monomials():
    with pytest.raises(NotMonomialInK):
        lambda_degree(P + Z2 ** 2 * P ** 2)


def test_lambda_degree_rejects_non_K_monomials():
    for c in (Z2, Z2 * P, Polynomial.zero(2)):
        with pytest.raises(NotMonomialInK):
            lambda_degree(c)


# -- subgroup containment and weights --------------------------------------------


def test_subgroup_elements_commute_with_the_shear():
    rng = random.Random(13)
    h_prime = OBJS.h_prime
    members = [
        PolyMap((3 * X, 3 * Y, 3 * Z)),
        PolyMap((X + Z ** 4 - 2 * Z, Y, Z)),
        exp_of_kernel(from_kernel_coordinates(random_kernel_polynomial(rng, 3))),
        exp_of_kernel(OBJS.p * (OBJS.p * Z ** 2) ** 2),
    ]
    for m in members:
        assert commutes(m, h_prime)


def test_K_elements_commute_with_the_weight_torus():
    rng = random.Random(19)
    for k in range(3):
        u = exp_of_kernel(from_kernel_coordinates(k_monomial(k)) * random_nonzero_rational(rng))
        for _ in range(5):
            a = random_nonzero_rational(rng)
            s_a = PolyMap((a ** 3 * X, a * Y, (Fraction(1) / a) * Z))
            assert commutes(u, s_a)


def test_p_is_invariant_under_kernel_exponentials():
    rng = random.Random(23)
    assert OBJS.p.substitute(list(OBJS.h.components)) == OBJS.p
    for _ in range(10):
        q3 = from_kernel_coordinates(random_kernel_polynomial(rng, 3))
        flow_map = exp_of_kernel(q3)
        assert OBJS.p.substitute(list(flow_map.components)) == OBJS.p
