"""Automorphism words: evaluation, composition, inversion, generator validation."""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from cremona3 import (
    AffineGenerator,
    ArityMismatch,
    AutWord,
    Derivation,
    DimensionMismatch,
    DomainError,
    ExponentialGenerator,
    InvalidGenerator,
    Nilpotency,
    PolyMap,
    Polynomial,
    ScalarGenerator,
    TriangularGenerator,
    commutes,
    UnknownVariable,
    compose,
    format_word,
    from_kernel_coordinates,
    nagata_derivation,
    nagata_invariant,
    parse_word,
    standard_objects,
    variables,
)
from cremona3 import autgroup, exactpoly, verify
from cremona3._termops import MAX_EXPONENT
from cremona3.exactpoly import _substitute_all
from cremona3.verify import random_kernel_polynomial, random_tame_word, random_triangular_generator
from oracle import from_poly, normalize, o_substitute

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


def test_exponential_to_map_never_applies_d_to_its_exponent(monkeypatch):
    # The exponent was checked when the generator was built: to_map applies D
    # only along D's own series, x -> y -> z, y -> z and z.
    g = ExponentialGenerator(P, D, 2)
    expected = PolyMap(D.scaled_by(2 * P).exp_map())
    applied = []
    apply = Derivation.apply

    def recording(self, f):
        applied.append(f)
        return apply(self, f)

    monkeypatch.setattr(Derivation, "apply", recording)
    assert g.to_map() == expected
    assert applied == [X, Y, Z, Y, Z, Z]


def test_evaluate_empty_word_is_identity():
    assert AutWord(3).evaluate() == PolyMap.identity(3)
    assert AutWord(3, []).evaluate() == PolyMap.identity(3)
    assert AutWord(2, []).evaluate() == PolyMap.identity(2)


def _left_fold(word):
    # The fold evaluate used to run: identity o g1 o g2 o ... .
    result = PolyMap.identity(word.dimension)
    for g in word.factors:
        result = compose(result, g.to_map())
    return result


def test_evaluate_folds_from_the_first_factor():
    rng = random.Random(61)
    singles = [
        ScalarGenerator(Fraction(-2, 3)),
        ExponentialGenerator(P, D, Fraction(1, 2)),
        translation_x(Fraction(5, 7)),
        TriangularGenerator((X + Y ** 2, 3 * Y + Z, -Z)),
    ]
    for g in singles:
        assert AutWord(3, [g]).evaluate() == g.to_map()
    for first in singles[:2]:
        for _ in range(4):
            word = AutWord(3, [first]) * random_tame_word(rng)
            assert word.evaluate() == _left_fold(word)
    for _ in range(10):
        word = random_tame_word(rng)
        assert word.evaluate() == _left_fold(word)


def _fraction_affine(rng, n):
    while True:
        try:
            return AffineGenerator(
                [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)],
                [Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n)],
            )
        except InvalidGenerator:
            continue


def _affine_rich_word(rng, n):
    """Runs of 1-4 affine factors between single triangular, scalar or exp factors."""
    kinds = ("triangular", "scalar", "exp") if n == 3 else ("triangular", "scalar")
    factors = []
    for _ in range(rng.randint(1, 3)):
        factors += [
            _fraction_affine(rng, n) if rng.random() < 0.5 else verify.random_affine_generator(rng, n)
            for _ in range(rng.randint(1, 4))
        ]
        kind = rng.choice(kinds)
        if kind == "triangular":
            factors.append(verify.random_triangular_generator(rng, n, max_tail_degree=2))
        elif kind == "scalar":
            factors.append(ScalarGenerator(Fraction(rng.choice((-3, -1, 2)), rng.randint(1, 4)), n))
        else:
            factors.append(ExponentialGenerator(rng.choice((Polynomial.one(3), P, Z * P - 2)), D, HALF))
    start = rng.randint(0, len(factors) - 1)
    return AutWord(n, factors[start : start + rng.randint(1, 7)])


def test_evaluate_matches_the_left_fold_on_affine_runs():
    rng = random.Random(73)
    for n in (2, 3):
        for _ in range(25):
            word = _affine_rich_word(rng, n)
            assert word.evaluate() == _left_fold(word)
            assert word.inverse().evaluate() == _left_fold(word.inverse())
        for g in (_fraction_affine(rng, n), verify.random_triangular_generator(rng, n)):
            assert AutWord(n, [g]).evaluate() == _left_fold(AutWord(n, [g])) == g.to_map()
        assert AutWord(n).evaluate() == _left_fold(AutWord(n)) == PolyMap.identity(n)


def test_merged_affine_forms_are_the_composed_maps():
    generators = [AffineGenerator(m, b) for m, b in _seeded_affine_cases() if _leibniz_det(m)]
    pairs = [(a, b) for a, b in zip(generators, generators[1:]) if a.dimension == b.dimension]
    assert len(pairs) >= 70
    for a, b in pairs:
        merged = autgroup._compose_forms(a._form, b._form)
        assert autgroup._affine_map(merged) == compose(a.to_map(), b.to_map())
        # Canonical: the form a generator built from the product matrix holds.
        shift = [sum(r * t for r, t in zip(row, b.translation)) + c for row, c in zip(a.matrix, a.translation)]
        assert merged == AffineGenerator(_product(a.matrix, b.matrix), shift)._form
        inverse = autgroup._compose_forms(b._inverse_form, a._inverse_form)
        assert autgroup._affine_map(inverse) == compose(b.inverse().to_map(), a.inverse().to_map())
        assert compose(autgroup._affine_map(merged), autgroup._affine_map(inverse)).is_identity()


def test_affine_runs_substitute_nothing(monkeypatch):
    # Counts, not time: a word of affine factors alone is one product of integer
    # forms, and each affine run between other factors enters the fold as one map.
    calls = []
    real = autgroup._substitute_all

    def counting(polys, images):
        calls.append(len(polys))
        return real(polys, images)

    monkeypatch.setattr(autgroup, "_substitute_all", counting)
    rng = random.Random(79)
    words = [AutWord(n, [_fraction_affine(rng, n) for _ in range(5)]) for n in (1, 2, 3, 4)]
    maps = [(w.evaluate(), w.inverse().evaluate()) for w in words]
    assert calls == []
    for w, (forward, backward) in zip(words, maps):
        assert forward == _left_fold(w) and backward == _left_fold(w.inverse())
    a = [_fraction_affine(rng, 3) for _ in range(4)]
    word = AutWord(3, [a[0], a[1], TriangularGenerator((X + Y ** 2, Y + Z, Z)), a[2], a[3]])
    calls.clear()
    forward = word.evaluate()
    assert calls == [3, 3]
    assert forward == _left_fold(word)


def test_runs_of_other_factors_substitute_one_generator_at_a_time(monkeypatch):
    # Such a run folds from its left end, so every substitution's images are one
    # generator's components, never the product of several, which a translation
    # makes dense: two degree-13 kernel exponentials after a translation ran for
    # seconds when that product was substituted into them.
    images = []
    real = autgroup._substitute_all

    def recording(polys, imgs):
        images.append(tuple(imgs))
        return real(polys, imgs)

    factors = [
        TriangularGenerator((X + Y ** 2, Y + Z, Z)),
        ExponentialGenerator(P, D, HALF),
        ScalarGenerator(3),
        TriangularGenerator((2 * X - 1, Y + Z ** 2 + 1, HALF * Z + 3)),
    ]
    monkeypatch.setattr(autgroup, "_substitute_all", recording)
    word = AutWord(3, factors)
    forward = word.evaluate()
    assert images == [g.to_map().components for g in factors[1:]]
    assert forward == _left_fold(word)


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
    with pytest.raises(DimensionMismatch, match="cannot compare maps of dimensions 3 and 2"):
        commutes(PolyMap.identity(3), PolyMap.identity(2))
    assert PolyMap.identity(3) != "(x, y, z)"


def test_compose_is_associative_on_words():
    rng = random.Random(17)
    for _ in range(10):
        f = random_tame_word(rng).evaluate()
        g = random_tame_word(rng).evaluate()
        h = random_tame_word(rng).evaluate()
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


#: Image denominators: small ones and large primes coprime to them.
DENOMINATORS = (1, 1, 2, 3, 10**9 + 7, 2**61 - 1)


def _seeded_polynomial(rng, dimension, max_exponent, max_terms, shared=()):
    # Some monomials come from ``shared``, so components share them.
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        if shared and rng.random() < 0.5:
            exps = rng.choice(shared)
        else:
            exps = tuple(rng.randint(0, max_exponent) for _ in range(dimension))
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.choice(DENOMINATORS))
        terms[exps] = terms.get(exps, 0) + coeff
    return Polynomial(dimension, terms)


def _seeded_substitutions():
    # (components, images) for n -> n maps, n = 1..4, and for 2 -> 3.
    rng = random.Random(20261018)
    for n, m in [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3)] * 8:
        shared = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(3)]
        components = [_seeded_polynomial(rng, n, 2, 4, shared) for _ in range(n)]
        components[rng.randrange(n)] = rng.choice(
            (Polynomial.zero(n), Polynomial.constant(n, Fraction(-5, 2**61 - 1)))
        )
        images = [_seeded_polynomial(rng, m, 2, 3) for _ in range(n)]
        yield components, images


def _oracle_fold(components, images):
    # Each component substituted on its own, along the oracle's path.
    m = images[0].dimension
    oracle_images = [from_poly(im) for im in images]
    return [Polynomial(m, normalize(o_substitute(from_poly(c), oracle_images, m))) for c in components]


def test_compose_matches_the_per_component_oracle_fold():
    for components, images in _seeded_substitutions():
        expected = _oracle_fold(components, images)
        if images[0].dimension == len(components):
            got = PolyMap(components).compose(PolyMap(images)).components
        else:
            got = _substitute_all(components, images)
        assert [c.dimension for c in got] == [images[0].dimension] * len(components)
        assert list(got) == expected
        assert [hash(c) for c in got] == [hash(c) for c in expected]
        assert [c.integer_terms() for c in got] == [c.integer_terms() for c in expected]
        assert [c.substitute(images) for c in components] == expected


def test_compose_computes_each_monomial_image_once(monkeypatch):
    calls = []
    real = exactpoly.mul_terms

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    c = (X + HALF * Y * Z) ** 3 - X * Z ** 2 + Y ** 4 + 5
    images = (X + Y, Y - HALF * Z, Z ** 2 + 1)
    monkeypatch.setattr(exactpoly, "mul_terms", counting)
    single = c.substitute(images)
    alone = len(calls)
    calls.clear()
    composed = PolyMap((c, c, c)).compose(PolyMap(images))
    assert composed.components == (single, single, single)
    assert len(calls) == alone > 0


def test_substitution_errors_keep_their_types():
    big = Polynomial(3, {(MAX_EXPONENT, 0, 0): 1})
    for substitute in (lambda polys, images: polys[0].substitute(images), _substitute_all):
        with pytest.raises(ArityMismatch, match="need 3 images, got 2"):
            substitute((P, X, Y), [X, Y])
        with pytest.raises(DimensionMismatch, match=r"images live in different dimensions: \[2, 3\]"):
            substitute((P, X, Y), [X, Y, Polynomial.variable(0, 2)])
        for poly in (X * Y, X ** 2):  # a prefix product and a power past the limit
            with pytest.raises(DomainError, match="exponent above the limit") as info:
                substitute((poly, Y), [big, X, Z])
            assert info.type is DomainError
    with pytest.raises(DimensionMismatch, match="cannot compose maps of dimensions 2 and 3"):
        PolyMap.identity(2).compose(PolyMap.identity(3))
    for poly in (X * Y, X ** 2):
        with pytest.raises(DomainError, match="exponent above the limit") as info:
            PolyMap((poly, Y, Z)).compose(PolyMap((big, X, Z)))
        assert info.type is DomainError


# -- inversion ----------------------------------------------------------------


def test_invert_exponential_flips_the_scale():
    word = AutWord(3, [ExponentialGenerator(P, D, 1)])
    inverse = word.inverse()
    (factor,) = inverse.factors
    assert isinstance(factor, ExponentialGenerator)
    assert factor.scale == -1
    assert compose(word.evaluate(), inverse.evaluate()).is_identity()


def test_invert_exponential_built_past_the_default_bound():
    # x -> y^70 -> ... -> 0 takes 72 steps, more than DEFAULT_BOUND = 64;
    # the inverse must not re-validate at the default bound.
    from cremona3 import Derivation

    slow = Derivation((Y ** 70, Z ** 2, Polynomial.zero(3)))
    edge, full = slow.is_locally_nilpotent(71), slow.is_locally_nilpotent(72)
    assert (edge.verdict, edge.witness) == (Nilpotency.INCONCLUSIVE, (0, 71))
    assert full.verdict is Nilpotency.LOCALLY_NILPOTENT_UP_TO_BOUND
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
    (factor,) = word.inverse().factors
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


def test_words_compare_factor_by_factor():
    rng = random.Random(29)
    for _ in range(10):
        word = random_tame_word(rng, max_length=4)
        assert AutWord(3, word.factors) == word
        assert word.inverse().inverse() == word
        changed = list(word.factors)
        changed[-1] = ScalarGenerator(7, dimension=3)
        assert AutWord(3, changed) != word
        assert AutWord(3, changed + [changed[-1]]) != AutWord(3, changed)
    g = ScalarGenerator(2, dimension=3)
    assert AutWord(3, [g]) == AutWord(3, [ScalarGenerator(2, dimension=3)])
    assert AutWord(3, [g]) != AutWord(3, [ScalarGenerator(3, dimension=3)])
    assert AutWord(2, []) != AutWord(3, []) and AutWord(3, [g]) != g


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


# -- generator validation ------------------------------------------------------------


def test_affine_rejects_singular_matrix():
    with pytest.raises(InvalidGenerator):
        AffineGenerator(((1, 1, 0), (1, 1, 0), (0, 0, 1)), (0, 0, 0))


def test_affine_rejects_matrices_singular_only_at_the_last_pivot():
    singular = [
        ((1, 2, 3), (4, 5, 6), (7, 8, 9)),
        ((0, 1, 1), (1, 0, 1), (1, 1, 2)),
        ((1, 0, 0, 1), (0, 2, 0, 1), (0, 0, 3, 1), (1, HALF, Fraction(1, 3), Fraction(49, 36))),
    ]
    for matrix in singular:
        assert _leibniz_det(matrix) == 0
        with pytest.raises(InvalidGenerator, match="singular"):
            AffineGenerator(matrix, (0,) * len(matrix))


def test_triangular_rejects_missing_diagonal():
    with pytest.raises(InvalidGenerator, match="component 0 has no x_1 term"):
        TriangularGenerator((Y, Y + Z, Z))


def test_triangular_rejects_earlier_variable_in_tail():
    with pytest.raises(InvalidGenerator, match="component 1 must depend on x_2 linearly"):
        TriangularGenerator((X + Y, Y + X ** 2, Z))
    with pytest.raises(InvalidGenerator):  # x_1 to the first power, the lowest bit of the mask
        TriangularGenerator((X, Y + X, Z))


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


def test_constructors_reject_malformed_shapes():
    with pytest.raises(DimensionMismatch, match="at least one component"):
        PolyMap(())
    with pytest.raises(DimensionMismatch, match="component dimension 2 != map dimension 3"):
        PolyMap((X, Y, Polynomial.variable(0, 2)))
    for matrix, shift in (((), ()), (((1, 0), (0, 1, 0)), (0, 0)), (((1, 0), (0, 1)), (0,))):
        with pytest.raises(InvalidGenerator, match="square matrix"):
            AffineGenerator(matrix, shift)
    with pytest.raises(DimensionMismatch, match="exponent dimension 2 != derivation dimension 3"):
        ExponentialGenerator(Polynomial.one(2), D, 1)
    with pytest.raises(InvalidGenerator, match="not a generator"):
        AutWord(3, [ScalarGenerator(2), PolyMap.identity(3)])
    # Only the dimension check refuses it: x_3 has the same packed key in 4 variables.
    with pytest.raises(DimensionMismatch, match="component dimension 4 != generator dimension 3"):
        TriangularGenerator((X, Y, Polynomial.variable(2, 4)))


def test_exponential_generators_are_equal_by_exponent_derivation_and_scale():
    g = ExponentialGenerator(P, D, 2)
    assert g == ExponentialGenerator(P, D, Fraction(4, 2))
    assert g != ExponentialGenerator(P + Z, D, 2)
    assert g != ExponentialGenerator(P, D, 3)
    assert g != ExponentialGenerator(P, D.scaled_by(Polynomial.constant(3, 2)), 2)
    assert g != ScalarGenerator(2)


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


def test_word_product_needs_equal_dimensions():
    with pytest.raises(DimensionMismatch, match="cannot concatenate words of different dimensions"):
        AutWord(3, []) * AutWord(2, [])
    assert AutWord(3, []).__mul__(PolyMap.identity(3)) is NotImplemented


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


def _seeded_triangular_generators():
    """Triangular generators with Fraction diagonals, n = 1..4."""
    rng = random.Random(67)
    for n in range(1, 5):
        for _ in range(8):
            components = []
            for i in range(n):
                diagonal = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(2, 4))
                tail = Polynomial.zero(n)
                for _ in range(rng.randint(0, 3) if i < n - 1 else 0):
                    exps = [0] * n
                    for j in range(i + 1, n):
                        exps[j] = rng.randint(0, 2)
                    tail = tail + Polynomial(n, {tuple(exps): Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
                components.append(Polynomial.variable(i, n) * diagonal + tail)
            yield TriangularGenerator(components)


def test_triangular_inverse_parts_are_what_validation_derives():
    for g in _seeded_triangular_generators():
        for inv in (g.inverse(), g.inverse().inverse()):
            fresh = TriangularGenerator(inv.components)
            assert (inv._diagonal, inv._tails) == (fresh._diagonal, fresh._tails)
            for i, (num, den) in enumerate(inv._diagonal):
                assert type(num) is int and type(den) is int and den > 0 and gcd(num, den) == 1
                unit = tuple(int(j == i) for j in range(g.dimension))
                assert Fraction(num, den) == inv.components[i].coefficient(unit)
        assert g.inverse().inverse() == g


def test_triangular_inverses_are_not_validated_again(monkeypatch):
    generators = list(_seeded_triangular_generators())

    def refuse(self, components):
        raise AssertionError("triangular generator validated again")

    monkeypatch.setattr(TriangularGenerator, "__init__", refuse)
    for g in generators:
        inv = g.inverse()
        n = g.dimension
        assert compose(g.to_map(), inv.to_map()).is_identity()
        assert compose(inv.to_map(), g.to_map()).is_identity()
        assert compose(inv.to_map(), inv.inverse().to_map()).is_identity()
        assert AutWord(n, [g, inv, inv.inverse(), inv]).evaluate().is_identity()


# -- affine matrices -------------------------------------------------------------


def _leibniz_det(a):
    # Leibniz expansion: shares no code with the elimination under test.
    n = len(a)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def _product(a, b):
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n))
        for i in range(n)
    )


def _seeded_affine_cases():
    """Dense and sparse Fraction matrices, n = 1..4, half with a zero at (0, 0)."""
    rng = random.Random(53)
    for n in range(1, 5):
        for density in (1.0, 0.4):
            for trial in range(20):
                matrix = [
                    [
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        if rng.random() < density
                        else Fraction(0)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                if trial % 2:
                    matrix[0][0] = Fraction(0)
                yield matrix, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]


def test_affine_inverse_is_the_matrix_inverse():
    swaps = singular = 0
    for matrix, shift in _seeded_affine_cases():
        n = len(matrix)
        if not _leibniz_det(matrix):
            singular += 1
            with pytest.raises(InvalidGenerator, match="singular"):
                AffineGenerator(matrix, shift)
            continue
        swaps += n > 1 and not matrix[0][0]
        g = AffineGenerator(matrix, shift)
        inv = g.inverse()
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        assert _product(g.matrix, inv.matrix) == identity
        assert _product(inv.matrix, g.matrix) == identity
        assert inv.inverse() == g
        assert compose(g.to_map(), inv.to_map()).is_identity()
    assert swaps >= 20 and singular >= 10


def test_affine_inverses_need_no_further_elimination(monkeypatch):
    generators = [AffineGenerator(m, b) for m, b in _seeded_affine_cases() if _leibniz_det(m)][::7]

    def refuse(rows):
        raise AssertionError("affine generator validated twice")

    monkeypatch.setattr(autgroup, "_matrix_inverse", refuse)
    for g in generators:
        inv = g.inverse()
        assert compose(g.to_map(), inv.to_map()).is_identity()
        assert compose(inv.to_map(), inv.inverse().to_map()).is_identity()


def test_dense_affine_generator_in_dimension_40():
    # Validation is one Bareiss elimination, cubic in the dimension: accepted,
    # since the input itself has n^2 + n rationals.  n = 40 stays well under a second.
    rng = random.Random(40)
    n = 40
    g = AffineGenerator(
        [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], [rng.randint(-9, 9) for _ in range(n)]
    )
    assert AutWord(n, [g, g.inverse()]).evaluate().is_identity()
    assert AutWord(n, [g.inverse(), g]).evaluate().is_identity()


def test_affine_to_map_matches_the_matrix():
    g = AffineGenerator(((0, 2, 0), (Fraction(1, 3), 0, -1), (0, 0, 1)), (1, 0, Fraction(-1, 2)))
    assert g.to_map() == PolyMap((2 * Y + 1, Fraction(1, 3) * X - Z, Z - HALF))


def test_affine_to_map_is_the_constructor_output():
    for matrix, shift in _seeded_affine_cases():
        if not _leibniz_det(matrix):
            continue
        g = AffineGenerator(matrix, shift)
        n = g.dimension
        units = [tuple(int(j == k) for k in range(n)) for j in range(n)]
        for a in (g, g.inverse()):
            expected = [
                Polynomial(n, [((0,) * n, b), *zip(units, row)])
                for row, b in zip(a.matrix, a.translation)
            ]
            got = a.to_map().components
            assert got == tuple(expected)
            assert [hash(c) for c in got] == [hash(c) for c in expected]
            assert [c.integer_terms() for c in got] == [c.integer_terms() for c in expected]


def test_random_affine_generator_retries_only_singular_draws(monkeypatch):
    calls = []

    def flaky(matrix, translation):
        calls.append(matrix)
        if len(calls) < 3:
            raise InvalidGenerator("affine matrix is singular")
        return AffineGenerator(matrix, translation)

    monkeypatch.setattr(verify, "AffineGenerator", flaky)
    assert isinstance(verify.random_affine_generator(random.Random(0)), AffineGenerator)
    assert len(calls) == 3

    # A defect raises once; a sampler that swallowed it would return the
    # next draw instead of failing (or spin forever on a constant defect).
    defects = []

    def broken_once(matrix, translation):
        if not defects:
            defects.append(matrix)
            raise TypeError("defect in the constructor")
        return AffineGenerator(matrix, translation)

    monkeypatch.setattr(verify, "AffineGenerator", broken_once)
    with pytest.raises(TypeError):
        verify.random_affine_generator(random.Random(0))


# -- word files ----------------------------------------------------------------


def _random_ratio(rng, magnitude):
    return Fraction(rng.randint(-magnitude, magnitude), rng.randint(1, magnitude))


def _random_word_of_every_kind(rng, dimension):
    """A seeded word of affine (rational entries), triangular, scalar and, in
    dimension 3, exp factors."""
    kinds = ["affine", "triangular", "scalar"] + ["exp"] * (dimension == 3)
    factors = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(kinds)
        if kind == "affine":
            while True:
                try:
                    matrix = [[_random_ratio(rng, 3) for _ in range(dimension)] for _ in range(dimension)]
                    factors.append(AffineGenerator(matrix, [_random_ratio(rng, 3) for _ in range(dimension)]))
                    break
                except InvalidGenerator:
                    continue
        elif kind == "triangular":
            factors.append(random_triangular_generator(rng, dimension, 2))
        elif kind == "exp":
            q = from_kernel_coordinates(random_kernel_polynomial(rng))
            factors.append(ExponentialGenerator(q, D, _random_ratio(rng, 4)))
        else:
            factors.append(ScalarGenerator(_random_ratio(rng, 5) or 1, dimension))
    return AutWord(dimension, factors)


def test_word_files_read_back_the_words_they_write():
    rng = random.Random(36)
    kinds = set()
    for dimension in (2, 3, 4):
        for _ in range(150):
            word = _random_word_of_every_kind(rng, dimension)
            kinds.update(type(g) for g in word)
            text = format_word(word)
            assert text.endswith("\n") and text.count("\n") == len(word)
            assert parse_word(text, dimension) == word
    assert kinds == set(autgroup.Generator)
    assert format_word(AutWord(2, ())) == "\n" and parse_word("\n", 2) == AutWord(2, ())


def test_format_word_writes_one_line_per_factor():
    word = AutWord(
        3,
        [
            AffineGenerator([[1, 0, 0], [HALF, 1, 0], [0, 0, -2]], [0, Fraction(-1, 3), 4]),
            TriangularGenerator((X + Y ** 2, Y + 1, Z)),
            ExponentialGenerator(P, D, Fraction(-2, 3)),
            ScalarGenerator(HALF),
        ],
    )
    assert format_word(word) == (
        "affine 1 0 0 1/2 1 0 0 0 -2 0 -1/3 4\n"
        "triangular (x + y^2, 1 + y, z)\n"
        "exp -2/3 x*z - 1/2*y^2\n"
        "scalar 1/2\n"
    )


def test_format_word_refuses_exp_over_another_derivation():
    # A line would read back as exp over nagata_derivation(): another map.
    for derivation, q in ((Derivation((Z, 0 * Z, 0 * Z)), Y), (Derivation((2 * Y, 2 * Z, 0 * Z)), P)):
        word = AutWord(3, [ScalarGenerator(2), ExponentialGenerator(q, derivation)])
        with pytest.raises(DomainError, match=r"^factor 1: word files hold exp over the shear derivation only$"):
            format_word(word)


@pytest.mark.parametrize(
    "text, error, place",
    [
        ("scalar 2\rscalar 0\n", InvalidGenerator, (2, 1)),
        ("scalar 2\r\nscalar 0", InvalidGenerator, (2, 1)),
        ("scalar 2\r\rscalar 0", InvalidGenerator, (3, 1)),
        ("scalar 2\n\r\nscalar 0", InvalidGenerator, (3, 1)),
        *(
            (f"triangular (x,{c}y, w)\n", UnknownVariable, (1, 19))
            for c in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
        ),
    ],
)
def test_parse_word_ends_lines_only_at_newlines(text, error, place):
    # Only \n, \r\n and \r end a line, as when a file is read with universal newlines.
    with pytest.raises(error) as excinfo:
        parse_word(text)
    assert (excinfo.value.line, excinfo.value.column) == place
