"""The integer term-map kernels agree with the brute-force oracle and keep maps canonical.

Kernel inputs are dicts from packed monomials to ints; ``pack``/``unpack``
convert the oracle's exponent tuples, so every comparison is made on
exponent tuples by code that shares nothing with the kernels.
"""

import ast
import random
from pathlib import Path

import pytest

import cremona3._termops as termops
from cremona3 import DomainError
from cremona3._termops import (
    EXPONENT_BITS,
    MAX_EXPONENT,
    derive_terms,
    iadd_scaled_terms,
    mul_terms,
    normalize,
    pack,
    pow_terms,
    scale_terms,
    unpack,
)
from oracle import normalize as o_normalize, o_add, o_mul, o_partial, o_pow

DIMENSION = 3
ONE = (0,) * DIMENSION


def _random_terms(rng, max_terms=6, exponents=(0, 2)):
    # Exponents stay in a narrow range so that coinciding monomials, and
    # with them cancellations, are common.
    out = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(*exponents) for _ in range(DIMENSION))
        out[exps] = out.get(exps, 0) + rng.choice((-1, 1)) * rng.randint(1, 10**rng.randint(1, 25))
    return {e: c for e, c in out.items() if c}


def _random_pair(rng):
    if rng.random() < 0.2:
        # c(m + n) and d(m - n): the cross terms m*n of their product cancel.
        m, n = rng.sample([(i, j, k) for i in range(3) for j in range(3) for k in range(3)], 2)
        c = rng.randint(1, 9)
        d = rng.randint(1, 9)
        return {m: c, n: c}, {m: d, n: -d}
    if rng.random() < 0.2:
        # Fields one below the guard: every product exponent is at most
        # MAX_EXPONENT, and reaches it.
        a = _random_terms(rng, exponents=(MAX_EXPONENT - 2, MAX_EXPONENT - 1))
        b = _random_terms(rng, exponents=(0, 1))
        if rng.random() < 0.5:
            a, b = b, a
        return a, b
    a = _random_terms(rng)
    b = _random_terms(rng)
    if rng.random() < 0.3:
        # Copy part of a into b, up to sign, to force exact cancellation.
        sign = rng.choice((1, -1))
        b.update({e: sign * c for e, c in a.items() if rng.random() < 0.5})
    return a, b


def _packed(terms):
    return {pack(e): c for e, c in terms.items()}


def _unpacked(terms):
    return {unpack(key, DIMENSION): c for key, c in terms.items()}


def _as_oracle(terms):
    return [(c, e) for e, c in terms.items()]


def _iadd_scaled(a, b, c):
    acc = dict(a)
    iadd_scaled_terms(acc, b, c)
    return acc


# (name, kernel, oracle expression); both sides take (a, b, scalar).
KERNELS = [
    ("scale_terms", lambda a, b, c: scale_terms(a, c), lambda a, b, c: o_mul(a, [(c, ONE)])),
    ("mul_terms", lambda a, b, c: mul_terms(a, b), lambda a, b, c: o_mul(a, b)),
    ("iadd_scaled_terms", _iadd_scaled, lambda a, b, c: o_add(a, o_mul(b, [(c, ONE)]))),
]


@pytest.mark.parametrize("name, kernel, oracle", KERNELS, ids=[k[0] for k in KERNELS])
def test_kernel_matches_oracle_on_random_inputs(name, kernel, oracle):
    rng = random.Random(f"termops:{name}")
    for _ in range(300):
        a, b = _random_pair(rng)
        scalar = rng.randint(-4, 4)
        got = kernel(_packed(a), _packed(b), scalar)
        # normalize drops zeros, so equality also checks the result is canonical.
        assert _unpacked(got) == o_normalize(oracle(_as_oracle(a), _as_oracle(b), scalar))
        assert all(type(c) is int for c in got.values())


def test_kernels_do_not_mutate_inputs():
    a = _packed({(1, 0, 0): 1})
    b = _packed({(1, 0, 0): -1, (0, 1, 0): 2})
    snapshot_a, snapshot_b = dict(a), dict(b)
    mul_terms(a, b)
    scale_terms(a, 3)
    iadd_scaled_terms(dict(a), b, 3)
    derive_terms(a, ((0, b, 3),))
    normalize(6, a)
    assert a == snapshot_a and b == snapshot_b


def test_derive_terms_matches_oracle():
    rng = random.Random("termops:derive_terms")
    for _ in range(300):
        a = _random_terms(rng)
        images = [
            (i, _random_terms(rng, max_terms=3), rng.randint(-4, 4))
            for i in range(DIMENSION)
            if rng.random() < 0.7
        ]
        got = derive_terms(_packed(a), [(EXPONENT_BITS * i, _packed(im), m) for i, im, m in images])
        expected = []
        for i, im, m in images:
            expected += o_mul(o_partial(_as_oracle(a), i), o_mul(_as_oracle(im), [(m, ONE)]))
        assert _unpacked(got) == o_normalize(expected)
        assert all(type(c) is int for c in got.values())


def test_derive_terms_past_the_guard_raises():
    top = pack((MAX_EXPONENT, 0, 0))
    # d/dx of x^MAX is MAX * x^(MAX-1); times x it reaches the limit, times x^2 passes it.
    assert _unpacked(derive_terms({top: 1}, ((0, {pack((1, 0, 0)): 1}, 1),))) == {
        (MAX_EXPONENT, 0, 0): MAX_EXPONENT
    }
    with pytest.raises(DomainError):
        derive_terms({top: 1}, ((0, {pack((2, 0, 0)): 1}, 1),))


def test_pow_terms_matches_oracle():
    # Monomials and sums, including cancelling pairs.
    rng = random.Random("termops:pow_terms")
    for _ in range(300):
        a, _ = _random_pair(rng)
        if rng.random() < 0.4:
            a = dict(list(a.items())[:1])
        if any(max(e) > 2 for e in a):
            continue
        k = rng.randint(0, 4 if len(a) > 1 else 40)
        got = pow_terms(_packed(a), k)
        assert _unpacked(got) == o_normalize(o_pow(_as_oracle(a), k, DIMENSION))
        assert all(type(c) is int for c in got.values())


def test_pow_terms_past_the_guard_raises(monkeypatch):
    for exps in ((1, 0, 0), (0, 3, 1), (0, 0, 7)):
        k = MAX_EXPONENT // max(exps)
        assert _unpacked(pow_terms({pack(exps): -1}, k)) == {tuple(e * k for e in exps): (-1) ** k}
        with pytest.raises(DomainError, match="exponent above the limit"):
            pow_terms({pack(exps): -1}, k + 1)
    assert pow_terms({}, 0) == {0: 1} and pow_terms({}, 3) == {}
    assert pow_terms({0: 5}, 3) == {0: 125}
    # An overflow is refused before any product: the squarings up to it
    # would grow a large coefficient to millions of digits.
    def no_product(a, b):
        raise AssertionError("pow_terms multiplied past the exponent limit")

    monkeypatch.setattr(termops, "mul_terms", no_product)
    for a, k in (
        ({pack((1, 0, 0)): 9999999999}, MAX_EXPONENT + 1),
        ({pack((1, 0, 0)): 3}, 10**100),
        ({pack((MAX_EXPONENT // 2 + 1, 0, 0)): 1, 0: 1}, 2),
        ({pack((0, 2, 0)): 1, pack((0, 0, 5)): 1}, MAX_EXPONENT // 5 + 1),
    ):
        with pytest.raises(DomainError, match="exponent above the limit"):
            pow_terms(a, k)


def test_pack_round_trips_and_multiplies_by_addition():
    rng = random.Random("termops:pack")
    for _ in range(200):
        e = tuple(rng.randint(0, MAX_EXPONENT) for _ in range(DIMENSION))
        f = tuple(rng.randint(0, MAX_EXPONENT - g) for g in e)
        assert unpack(pack(e), DIMENSION) == e
        assert unpack(pack(e) + pack(f), DIMENSION) == tuple(x + y for x, y in zip(e, f))
    assert pack(ONE) == 0
    assert pack((0, 1)) == 1 << EXPONENT_BITS


def test_an_exponent_past_the_guard_raises_and_never_carries():
    top = pack((MAX_EXPONENT, 0, 0))
    x, y = pack((1, 0, 0)), pack((0, 1, 0))
    assert _unpacked(mul_terms({top: 1}, {y: 1})) == {(MAX_EXPONENT, 1, 0): 1}
    with pytest.raises(DomainError):
        mul_terms({top: 1}, {x: 1})
    with pytest.raises(DomainError):
        mul_terms({top: 1, y: 1}, {x: 1, y: 1})
    with pytest.raises(DomainError):
        pack((0, MAX_EXPONENT + 1, 0))


def test_normalize_divides_out_the_common_content():
    m = pack((1, 0, 0))
    assert normalize(6, {0: 4, m: -10}) == (3, {0: 2, m: -5})
    assert normalize(6, {0: 5, m: 3}) == (6, {0: 5, m: 3})
    assert normalize(1, {m: 4}) == (1, {m: 4})
    assert normalize(9, {}) == (1, {})


def test_exactpoly_is_the_only_module_that_sums_term_maps():
    # Term maps are added over a common denominator in one place, exactpoly:
    # no other module imports iadd_scaled_terms, and no kernel for sums of
    # monomial multiples (combine_terms) comes back beside it.
    importers, combiners = set(), set()
    for path in Path(termops.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name for alias in node.names}
                if "iadd_scaled_terms" in names:
                    importers.add(path.stem)
                if "combine_terms" in names:
                    combiners.add(path.stem)
            elif isinstance(node, ast.FunctionDef) and node.name == "combine_terms":
                combiners.add(path.stem)
    assert importers == {"exactpoly"}
    assert combiners == set()


def test_a_derivation_is_applied_in_two_places_only():
    # derive_terms is imported by exactpoly (partial_derivative) and derivation
    # (Derivation.apply) alone, called once in each, and no _derive wrapper
    # comes back as a second path to it.
    importers, callers, wrappers = set(), [], set()
    for path in Path(termops.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if "derive_terms" in {alias.name for alias in node.names}:
                    importers.add(path.stem)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "derive_terms":
                callers.append(path.stem)
            elif isinstance(node, ast.FunctionDef) and node.name == "_derive":
                wrappers.add(path.stem)
    assert importers == {"exactpoly", "derivation"}
    assert sorted(callers) == ["derivation", "exactpoly"]
    assert wrappers == set()


def test_only_the_entry_points_read_kernel_coordinates_off_xyz():
    # The (x, y, z) -> (Z, P) readers are imported by the package root, the
    # centralizer splitting, the command line and the verification suite
    # only: the Nagata layer takes its exponents in (Z, P).
    readers = set()
    for path in Path(termops.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if {alias.name for alias in node.names} & {"kernel_coordinates", "_read_off"}:
                    readers.add(path.stem)
    assert readers == {"__init__", "centralizer", "cli", "verify"}
