"""Polynomial-level checks run over the term-map kernel.

There is one kernel, the pure-Python ``cremona3._termops``; the ``backend``
parameter names it so these checks keep their established ids.
"""

import random
from fractions import Fraction

import pytest

from cremona3 import Polynomial, decompose, reconstruct
from cremona3.verify import random_decomposition, random_polynomial

KERNELS = ("python",)


@pytest.mark.parametrize("backend", KERNELS)
def test_polynomial_results_match_across_backends(backend):
    rng = random.Random(4242)
    shear = [
        Polynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): Fraction(1, 2)}),
        Polynomial(3, {(0, 1, 0): 1, (0, 0, 1): 1}),
        Polynomial(3, {(0, 0, 1): 1}),
    ]
    for _ in range(40):
        f = random_polynomial(rng, max_degree=5)
        g = random_polynomial(rng, max_degree=5)
        assert (f * g) * f == f * (g * f)
        assert (f + g).substitute(shear) == f.substitute(shear) + g.substitute(shear)


@pytest.mark.parametrize("backend", KERNELS)
def test_decomposition_round_trip_under_each_backend(backend):
    rng = random.Random(515)
    for _ in range(5):
        d = random_decomposition(rng)
        assert decompose(reconstruct(d)) == d
