"""Automorphism words: evaluation, composition, inversion, classification."""

import random
from fractions import Fraction

import pytest

from cremona3 import (
    AffineGenerator,
    AutWord,
    DimensionMismatch,
    ExponentialGenerator,
    GeneratorShape,
    InvalidGenerator,
    PolyMap,
    Polynomial,
    ScalarGenerator,
    TriangularGenerator,
    commutes,
    compose,
    evaluate,
    invert_word,
    is_tame_generator,
    nagata_derivation,
    nagata_invariant,
    standard_objects,
    variables,
)
from cremona3.verify import random_tame_word

X, Y, Z = variables(3)
HALF = Fraction(1, 2)
D = nagata_derivation()
P = nagata_invariant()
IDENTITY3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def translation_x(amount):
    return AffineGenerator(IDENTITY3, (amount, 0, 0))


# -- evaluation ----------------------------------------------------------------


def test_evaluate_single_exponential_is_nagata():
    word = AutWord(3, [ExponentialGenerator(P, D, 1)])
    assert word.evaluate() == standard_objects().h


def test_evaluate_empty_word_is_identity():
    assert AutWord(3).evaluate() == PolyMap.identity(3)


def test_evaluate_translation_conjugation():
    word = AutWord(
        3,
        [translation_x(-1), ExponentialGenerator(P, D, 1), translation_x(1)],
    )
    expected = PolyMap(D.scaled_by(P + Z).exp_map())
    assert word.evaluate() == expected


def test_word_rejects_wrong_dimension_factor():
    with pytest.raises(DimensionMismatch):
        AutWord(2, [ScalarGenerator(2, dimension=3)])


# -- composition ----------------------------------------------------------------


def test_compose_with_inverse_exponential():
    h_prime = standard_objects().h_prime
    inverse = PolyMap(D.scaled_by(Polynomial.constant(3, -1)).exp_map())
    assert compose(h_prime, inverse).is_identity()


def test_compose_translations():
    plus = PolyMap((X + 1, Y, Z))
    minus = PolyMap((X - 1, Y, Z))
    assert compose(plus, minus) == PolyMap.identity(3)


def test_compose_exponentials_adds_kernel_exponents():
    exp_p = PolyMap(D.scaled_by(P).exp_map())
    exp_z = PolyMap(D.scaled_by(Z).exp_map())
    exp_sum = PolyMap(D.scaled_by(P + Z).exp_map())
    assert compose(exp_p, exp_z) == exp_sum


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(PolyMap.identity(3), PolyMap.identity(2))


def test_compose_is_associative_on_words():
    rng = random.Random(17)
    for _ in range(10):
        f = random_tame_word(rng).evaluate()
        g = random_tame_word(rng).evaluate()
        h = random_tame_word(rng).evaluate()
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


# -- inversion ----------------------------------------------------------------


def test_invert_exponential_flips_the_scale():
    word = AutWord(3, [ExponentialGenerator(P, D, 1)])
    inverse = invert_word(word)
    (factor,) = inverse.factors
    assert isinstance(factor, ExponentialGenerator)
    assert factor.scale == -1
    assert compose(word.evaluate(), inverse.evaluate()).is_identity()


def test_invert_exponential_built_past_the_default_bound():
    # x -> y^70 -> ... -> 0 takes 72 steps, more than DEFAULT_BOUND = 64;
    # the inverse must not re-validate at the default bound.
    from cremona3 import Derivation

    slow = Derivation((Y ** 70, Z ** 2, Polynomial.zero(3)))
    assert slow.nilpotency_index(X, 100) == 72
    inverse = ExponentialGenerator(Z, slow, bound=100).inverse()
    assert (inverse.q, inverse.derivation, inverse.scale) == (Z, slow, -1)


def test_evaluate_exponential_built_past_the_default_bound():
    # to_map sums the series within the bound the generator was validated
    # at, and the inverse keeps that bound.
    from cremona3 import Derivation

    slow = Derivation((Y ** 70, Z ** 2, Polynomial.zero(3)))
    g = ExponentialGenerator(Polynomial.one(3), slow, bound=100)
    assert g.inverse().bound == 100
    assert g.to_map().components[1:] == (Y + Z ** 2, Z)
    assert AutWord(3, [g, g.inverse()]).evaluate().is_identity()


def test_invert_triangular_back_substitution():
    gen = TriangularGenerator((X + Y ** 2, Y + 1, Z))
    inverse_map = AutWord(3, [gen]).inverse().evaluate()
    assert inverse_map == PolyMap((X - (Y - 1) ** 2, Y - 1, Z))


def test_invert_scalar():
    word = AutWord(3, [ScalarGenerator(2, dimension=3)])
    (factor,) = invert_word(word).factors
    assert factor.alpha == Fraction(1, 2)


def test_invert_affine():
    gen = AffineGenerator(((2, 1, 0), (0, 1, 0), (0, 0, 1)), (1, -1, 0))
    word = AutWord(3, [gen])
    assert compose(word.evaluate(), word.inverse().evaluate()).is_identity()
    assert compose(word.inverse().evaluate(), word.evaluate()).is_identity()


def test_invert_reverses_factor_order():
    rng = random.Random(23)
    word = random_tame_word(rng, max_length=4)
    inverse = word.inverse()
    assert len(inverse) == len(word)
    assert compose(word.evaluate(), inverse.evaluate()).is_identity()


# -- commutation ----------------------------------------------------------------


def test_nagata_commutes_with_shear():
    objs = standard_objects()
    assert commutes(objs.h, objs.h_prime)


def test_shear_noncommuting_counterexample():
    objs = standard_objects()
    assert not commutes(PolyMap((X + Y, Y, Z)), objs.h_prime)


def test_everything_commutes_with_identity():
    rng = random.Random(29)
    for _ in range(5):
        f = random_tame_word(rng).evaluate()
        assert commutes(f, PolyMap.identity(3))


def test_scalars_commute():
    a = ScalarGenerator(Fraction(2, 3), dimension=3).to_map()
    b = ScalarGenerator(-5, dimension=3).to_map()
    assert commutes(a, b)


# -- classification ----------------------------------------------------------------


def test_classify_affine():
    m = PolyMap((2 * X + Y + 1, Y - Z, Z))
    assert is_tame_generator(m) is GeneratorShape.AFFINE


def test_classify_triangular():
    m = PolyMap((X + Y ** 2, Y + Z ** 3, Z))
    assert is_tame_generator(m) is GeneratorShape.TRIANGULAR


def test_classify_nagata_is_neither():
    # Shape check only; the map is still a product of tame pieces or not
    # independently of this classification.
    assert is_tame_generator(standard_objects().h) is GeneratorShape.NEITHER


def test_classify_singular_linear_is_neither():
    assert is_tame_generator(PolyMap((X + Y, X + Y, Z))) is GeneratorShape.NEITHER


# -- generator validation ------------------------------------------------------------


def test_affine_rejects_singular_matrix():
    with pytest.raises(InvalidGenerator):
        AffineGenerator(((1, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))


def test_triangular_rejects_missing_diagonal():
    with pytest.raises(InvalidGenerator):
        TriangularGenerator((Y, Y + Z, Z))


def test_triangular_rejects_earlier_variable_in_tail():
    with pytest.raises(InvalidGenerator):
        TriangularGenerator((X + Y, Y + X ** 2, Z))


def test_triangular_rejects_nonlinear_diagonal():
    with pytest.raises(InvalidGenerator):
        TriangularGenerator((X + X ** 2, Y, Z))


def test_exponential_rejects_non_kernel_exponent():
    with pytest.raises(InvalidGenerator):
        ExponentialGenerator(Y, D, 1)


def test_exponential_rejects_non_nilpotent_derivation():
    from cremona3 import Derivation

    euler = Derivation((X, Polynomial.zero(3), Polynomial.zero(3)))
    with pytest.raises(InvalidGenerator):
        ExponentialGenerator(Polynomial.one(3), euler, 1)


def test_scalar_rejects_zero():
    with pytest.raises(InvalidGenerator):
        ScalarGenerator(0, dimension=3)


# -- group laws -----------------------------------------------------------------


def test_word_evaluation_is_a_homomorphism():
    rng = random.Random(31)
    for _ in range(15):
        u = random_tame_word(rng, max_length=3)
        v = random_tame_word(rng, max_length=3)
        assert (u * v).evaluate() == compose(u.evaluate(), v.evaluate())


def test_word_concatenation_is_associative():
    rng = random.Random(43)
    for _ in range(5):
        u = random_tame_word(rng, max_length=2)
        v = random_tame_word(rng, max_length=2)
        w = random_tame_word(rng, max_length=2)
        assert ((u * v) * w).evaluate() == (u * (v * w)).evaluate()


def test_words_have_exact_two_sided_inverses():
    rng = random.Random(37)
    for _ in range(15):
        word = random_tame_word(rng)
        forward = word.evaluate()
        backward = word.inverse().evaluate()
        assert compose(forward, backward).is_identity()
        assert compose(backward, forward).is_identity()


def test_random_triangular_inverses_compose_to_identity():
    from cremona3.verify import random_triangular_generator

    rng = random.Random(41)
    for _ in range(20):
        gen = random_triangular_generator(rng, 3, max_tail_degree=3)
        forward = gen.to_map()
        backward = gen.inverse().to_map()
        assert compose(forward, backward).is_identity()
        assert compose(backward, forward).is_identity()
