"""verify's samplers draw the same numbers in the same order as the
Fraction-based reference below, so every seeded run checks the same
samples and leaves the generator in the same state.

The reference samplers build each sample through ``Fraction`` sums and
the public ``Polynomial`` constructor; the package's samplers build
integer numerators over 6 and canonical term maps.
"""

import random
from fractions import Fraction

import pytest

import cremona3.verify as verify
from cremona3 import AffineGenerator, AutWord, InvalidGenerator, Polynomial, TriangularGenerator


def ref_random_rational(rng, magnitude=4):
    return Fraction(rng.randint(-magnitude, magnitude), rng.choice((1, 1, 1, 2, 3)))


def ref_random_polynomial(rng, dimension=3, max_degree=6, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_degree) for _ in range(dimension))
            if sum(exps) <= max_degree:
                break
        terms[exps] = terms.get(exps, Fraction(0)) + ref_random_rational(rng)
    return Polynomial(dimension, terms)


def ref_random_z_polynomial(rng, max_degree=4):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = (0, 0, rng.randint(0, max_degree))
        terms[exps] = terms.get(exps, Fraction(0)) + ref_random_rational(rng)
    return Polynomial(3, terms)


def ref_random_kernel_polynomial(rng, max_degree=3):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(0, max_degree)
        b = rng.randint(0, max_degree - a)
        terms[(a, b)] = terms.get((a, b), Fraction(0)) + ref_random_rational(rng, 3)
    return Polynomial(2, terms)


def ref_random_affine_generator(rng, dimension=3):
    while True:
        matrix = [
            [Fraction(rng.randint(-2, 2)) for _ in range(dimension)] for _ in range(dimension)
        ]
        try:
            return AffineGenerator(matrix, [Fraction(rng.randint(-2, 2)) for _ in range(dimension)])
        except InvalidGenerator:
            continue


def ref_random_triangular_generator(rng, dimension=3, max_tail_degree=3, tail_degrees=None):
    if tail_degrees is None:
        tail_degrees = [rng.randint(0, max_tail_degree) for _ in range(dimension - 1)] + [0]
    components = []
    for i in range(dimension):
        comp = Polynomial.variable(i, dimension) * rng.choice((1, -1, 2, Fraction(1, 2)))
        cap = tail_degrees[i] if i < dimension - 1 else 0
        for _ in range(rng.randint(0, 2)):
            exps = [0] * dimension
            budget = rng.randint(0, cap) if cap else 0
            for j in range(i + 1, dimension):
                exps[j] = rng.randint(0, budget)
                budget -= exps[j]
            comp = comp + Polynomial(dimension, {tuple(exps): ref_random_rational(rng, 2)})
        components.append(comp)
    return TriangularGenerator(components)


def ref_random_tame_word(rng, dimension=3, max_length=6, max_tail_degree=3, cost_budget=400):
    factors = []
    cost = 1
    for _ in range(rng.randint(1, max_length)):
        if rng.random() < 0.5:
            factors.append(ref_random_affine_generator(rng, dimension))
            continue
        tails = [rng.randint(0, max_tail_degree) for _ in range(dimension - 1)] + [0]
        while cost * verify._triangular_cost(tails) > cost_budget and any(tails):
            largest = max(range(dimension), key=lambda i: tails[i])
            tails[largest] -= 1
        cost *= verify._triangular_cost(tails)
        factors.append(ref_random_triangular_generator(rng, dimension, tail_degrees=tails))
    return AutWord(dimension, factors)


def _canonical(value):
    # Samples compared as values and through their canonical integer pairs.
    if isinstance(value, Polynomial):
        return value.dimension, value.integer_terms()
    if isinstance(value, AutWord):
        return value, tuple(_canonical(g) for g in value.factors)
    if isinstance(value, TriangularGenerator):
        return value, tuple(_canonical(c) for c in value.components)
    if isinstance(value, AffineGenerator):
        return value, value.matrix, value.translation
    return value


SAMPLERS = [
    ("random_rational", ref_random_rational, ()),
    ("random_polynomial", ref_random_polynomial, ()),
    ("random_polynomial", ref_random_polynomial, (2, 4, 9)),
    ("random_z_polynomial", ref_random_z_polynomial, ()),
    ("random_kernel_polynomial", ref_random_kernel_polynomial, ()),
    ("random_affine_generator", ref_random_affine_generator, ()),
    ("random_affine_generator", ref_random_affine_generator, (2,)),
    ("random_triangular_generator", ref_random_triangular_generator, ()),
    ("random_triangular_generator", ref_random_triangular_generator, (4, 2)),
    ("random_tame_word", ref_random_tame_word, ()),
]


@pytest.mark.parametrize(
    "name, reference, args", SAMPLERS, ids=[f"{name}{args}" for name, _, args in SAMPLERS]
)
def test_sampler_draws_as_the_fraction_reference(name, reference, args):
    sampler = getattr(verify, name)
    for seed in range(100):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            got, want = sampler(rng, *args), reference(ref_rng, *args)
            assert _canonical(got) == _canonical(want)
        assert rng.getstate() == ref_rng.getstate()


def test_tame_words_evaluate_as_the_reference():
    rng, ref_rng = random.Random(7), random.Random(7)
    for _ in range(5):
        word, ref_word = verify.random_tame_word(rng), ref_random_tame_word(ref_rng)
        assert word.evaluate() == ref_word.evaluate()
        assert word.inverse().evaluate() == ref_word.inverse().evaluate()
