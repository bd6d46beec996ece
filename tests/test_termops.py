"""The term-map kernels agree with the brute-force oracle and keep maps canonical."""

import random
from fractions import Fraction

import pytest

from cremona3._termops import (
    add_terms,
    iadd_scaled_terms,
    mul_terms,
    neg_terms,
    scale_terms,
    sub_terms,
)
from oracle import normalize, o_add, o_mul, o_neg

DIMENSION = 3
ONE = (0,) * DIMENSION


def _random_terms(rng, max_terms=6):
    # Exponents stay small so that coinciding monomials, and with them
    # cancellations, are common.
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, 2) for _ in range(DIMENSION))
        out[exps] = out.get(exps, Fraction(0)) + Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return {e: c for e, c in out.items() if c}


def _random_pair(rng):
    if rng.random() < 0.2:
        # c(m + n) and d(m - n): the cross terms m*n of their product cancel.
        m, n = rng.sample([(i, j, k) for i in range(3) for j in range(3) for k in range(3)], 2)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        d = Fraction(rng.randint(1, 9), rng.randint(1, 6))
        return {m: c, n: c}, {m: d, n: -d}
    a = _random_terms(rng)
    b = _random_terms(rng)
    if rng.random() < 0.3:
        # Copy part of a into b, up to sign, to force exact cancellation.
        sign = rng.choice((1, -1))
        b.update({e: sign * c for e, c in a.items() if rng.random() < 0.5})
    return a, b


def _as_oracle(terms):
    return [(c, e) for e, c in terms.items()]


def _iadd_scaled(a, b, c):
    acc = dict(a)
    iadd_scaled_terms(acc, b, c)
    return acc


# (name, kernel, oracle expression); both sides take (a, b, scalar).
KERNELS = [
    ("add_terms", lambda a, b, c: add_terms(a, b), lambda a, b, c: o_add(a, b)),
    ("sub_terms", lambda a, b, c: sub_terms(a, b), lambda a, b, c: o_add(a, o_neg(b))),
    ("neg_terms", lambda a, b, c: neg_terms(a), lambda a, b, c: o_neg(a)),
    ("scale_terms", lambda a, b, c: scale_terms(a, c), lambda a, b, c: o_mul(a, [(c, ONE)])),
    ("mul_terms", lambda a, b, c: mul_terms(a, b), lambda a, b, c: o_mul(a, b)),
    ("iadd_scaled_terms", _iadd_scaled, lambda a, b, c: o_add(a, o_mul(b, [(c, ONE)]))),
]


@pytest.mark.parametrize("name, kernel, oracle", KERNELS, ids=[k[0] for k in KERNELS])
def test_kernel_matches_oracle_on_random_inputs(name, kernel, oracle):
    rng = random.Random(f"termops:{name}")
    for _ in range(300):
        a, b = _random_pair(rng)
        scalar = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        got = kernel(a, b, scalar)
        # normalize drops zeros, so equality also checks the result is canonical.
        assert got == normalize(oracle(_as_oracle(a), _as_oracle(b), scalar))
        assert all(type(c) is Fraction for c in got.values())


def test_kernels_do_not_mutate_inputs():
    a = {(1, 0, 0): Fraction(1)}
    b = {(1, 0, 0): Fraction(-1), (0, 1, 0): Fraction(2)}
    snapshot_a, snapshot_b = dict(a), dict(b)
    add_terms(a, b)
    sub_terms(a, b)
    mul_terms(a, b)
    neg_terms(a)
    scale_terms(a, Fraction(3))
    iadd_scaled_terms(dict(a), b, Fraction(3))
    assert a == snapshot_a and b == snapshot_b
    assert add_terms(a, {}) is not a
    assert add_terms({}, b) is not b
