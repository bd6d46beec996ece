"""Derivations: application, nilpotency, exponentials, flows, kernel coordinates."""

import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona3 import (
    BoundExceeded,
    Derivation,
    DimensionMismatch,
    DomainError,
    Nilpotency,
    NotInKernelRing,
    Polynomial,
    from_kernel_coordinates,
    kernel_coordinates,
    nagata_derivation,
    nagata_invariant,
    variables,
)
from cremona3 import derivation, exactpoly
from cremona3._termops import MAX_EXPONENT, derive_terms, mul_terms
from cremona3.verify import random_kernel_polynomial, random_nonzero_rational, random_polynomial
from oracle import coefficient_of_power, divided_by_power
from test_exactpoly import polynomials

X, Y, Z = variables(3)
HALF = Fraction(1, 2)
D = nagata_derivation()
E = Derivation((Polynomial.one(3), Polynomial.zero(3), Polynomial.zero(3)))
P = nagata_invariant()

EULER = Derivation((X, Polynomial.zero(3), Polynomial.zero(3)))  # x d/dx
ZERO_DERIVATION = Derivation((Polynomial.zero(3),) * 3)


# -- apply -------------------------------------------------------------------


def test_apply_kills_p():
    assert D.apply(P).is_zero()


def test_apply_on_generators():
    assert D.apply(X) == Y
    assert D.apply(Y) == Z
    assert D.apply(Z).is_zero()


def test_apply_partial_derivation():
    assert E.apply(X) == Polynomial.one(3)
    assert E.apply(Y).is_zero()


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        D.apply(Polynomial.variable(0, 2))


def test_derivation_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        Derivation((X, Y, Polynomial.variable(0, 2)))
    with pytest.raises(DimensionMismatch, match="at least one image"):
        Derivation(())


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(
        polynomials(max_degree=2, max_terms=3),
        polynomials(max_degree=2, max_terms=3),
        polynomials(max_degree=2, max_terms=3),
    ),
    polynomials(max_degree=3, max_terms=4),
    polynomials(max_degree=3, max_terms=4),
)
def test_apply_satisfies_leibniz(images, f, g):
    derivation = Derivation(images)
    lhs = derivation.apply(f * g)
    rhs = derivation.apply(f) * g + f * derivation.apply(g)
    assert lhs == rhs


# -- nilpotency ----------------------------------------------------------------


def test_is_locally_nilpotent_shear():
    report = D.is_locally_nilpotent(10)
    assert report.verdict is Nilpotency.LOCALLY_NILPOTENT_UP_TO_BOUND
    assert report.witness is None


def test_is_locally_nilpotent_euler_cycle_witness():
    report = EULER.is_locally_nilpotent(10)
    assert report.verdict is Nilpotency.NOT_NILPOTENT_WITNESS
    assert report.witness == (0, 1)
    assert report.reason == "cycle"


def test_is_locally_nilpotent_zero_derivation_small_bound():
    report = ZERO_DERIVATION.is_locally_nilpotent(1)
    assert report.verdict is Nilpotency.LOCALLY_NILPOTENT_UP_TO_BOUND


def test_is_locally_nilpotent_degree_growth_witness():
    # x^2 d/dx is not locally nilpotent, but growing degrees alone certify
    # nothing (see the triangular cases below), so the verdict stays open.
    x1 = Polynomial.variable(0, 1)
    squaring = Derivation((x1 * x1,))
    report = squaring.is_locally_nilpotent(8)
    assert report.verdict is Nilpotency.INCONCLUSIVE
    assert report.witness == (0, 8)
    assert report.reason is None


@pytest.mark.parametrize(
    "first, bound, index",
    [(Y ** 10, 5, 12), (Y ** 70, 64, 72)],
)
def test_is_locally_nilpotent_triangular_degree_growth_is_inconclusive(first, bound, index):
    # (y^k, z^2, 0) is triangular, hence locally nilpotent, though its
    # x-chain grows in degree until it vanishes at step k + 2.
    triangular = Derivation((first, Z * Z, Polynomial.zero(3)))
    report = triangular.is_locally_nilpotent(bound)
    assert report.verdict is Nilpotency.INCONCLUSIVE
    assert report.witness == (0, bound)
    assert report.reason is None
    edge = triangular.is_locally_nilpotent(index - 1)
    assert (edge.verdict, edge.witness) == (Nilpotency.INCONCLUSIVE, (0, index - 1))
    full = triangular.is_locally_nilpotent(index)
    assert full.verdict is Nilpotency.LOCALLY_NILPOTENT_UP_TO_BOUND


def test_is_locally_nilpotent_inconclusive_at_tiny_bound():
    # The x-chain of the shear needs three steps; with only two the
    # verdict cannot claim either way.
    report = D.is_locally_nilpotent(2)
    assert report.verdict is Nilpotency.INCONCLUSIVE
    assert report.witness == (0, 2)


# -- exponentials ----------------------------------------------------------------


def test_exp_map_of_shear():
    assert D.exp_map() == (X + Y + HALF * Z, Y + Z, Z)


def test_exp_map_of_scaled_shear_is_nagata():
    # The displayed quintic automorphism, expanded.
    expected = (
        X + Y * (X * Z - HALF * Y ** 2) + HALF * Z * (X * Z - HALF * Y ** 2) ** 2,
        Y + Z * (X * Z - HALF * Y ** 2),
        Z,
    )
    assert D.scaled_by(P).exp_map() == expected


def test_exp_map_of_zero_derivation_is_identity():
    assert ZERO_DERIVATION.exp_map() == (X, Y, Z)


def test_exp_map_bound_exceeded():
    with pytest.raises(BoundExceeded):
        EULER.exp_map(8)


def test_series_bound_edge_of_the_shear():
    # x -> y -> z -> 0: the longest series has two nonzero iterates, so 2 is the least bound.
    x, y, z, t = variables(4)
    assert D.exp_map(2) == (X + Y + HALF * Z, Y + Z, Z)
    assert D.formal_flow(2) == (x + t * y + HALF * t ** 2 * z, y + t * z, z)
    for series in (D.exp_map, D.formal_flow):
        with pytest.raises(BoundExceeded) as info:
            series(1)
        assert str(info.value) == "exponential series for variable 0 did not terminate within 1 steps"


def test_exp_map_sums_each_component_once(monkeypatch):
    # Each component is one _sum of its nonzero iterates; no polynomial is added step by step.
    expected = (X + P * Y + HALF * P ** 2 * Z, Y + P * Z, Z)
    sizes = []

    def counting_sum(parts, den=1):
        sizes.append(len(parts))
        return exactpoly._sum(parts, den)

    def refuse(self, other):
        raise AssertionError("exp_map added two polynomials")

    monkeypatch.setattr(derivation, "_sum", counting_sum)
    monkeypatch.setattr(Polynomial, "__add__", refuse)
    assert D.scaled_by(P).exp_map() == expected
    assert sizes == [3, 2, 1]


def test_exp_map_never_applies_past_the_pair_budget(monkeypatch):
    # Each apply in exp_map costs len(iterate) * (image terms) term pairs; one past
    # the budget raises before derive_terms runs, whatever the host's speed.
    costs = []

    def recording(a, images):
        costs.append(len(a) * sum(len(image) for _, image, _ in images))
        return derive_terms(a, images)

    monkeypatch.setattr(derivation, "derive_terms", recording)
    s = X + Y + Z
    with pytest.raises(BoundExceeded, match="pair budget 100000 at step 11"):
        Derivation((s ** 8, Polynomial.zero(3), Polynomial.zero(3))).exp_map()
    assert len(costs) == 10
    assert max(costs) <= derivation.MAX_SERIES_PAIRS
    # A series that stays under the budget keeps its step-bound message.
    costs.clear()
    with pytest.raises(BoundExceeded, match="did not terminate within 64 steps"):
        Derivation((s ** 2, Polynomial.zero(3), Polynomial.zero(3))).exp_map()
    assert max(costs) <= derivation.MAX_SERIES_PAIRS


def test_series_pair_budget_admits_exactly_the_budget(monkeypatch):
    # (y + z, z, 0): the x-series applies to x, y + z and z, at 3, 6 and 3 pairs;
    # exp(P D)'s Horner fold multiplies z/2 and then a 3-term sum by the 2-term P, at 2 and 6 pairs.
    d = Derivation((Y + Z, Z, Polynomial.zero(3)))
    shear = D.scaled_by(P).exp_map()
    assert derivation.MAX_SERIES_PAIRS == 100_000
    monkeypatch.setattr(derivation, "MAX_SERIES_PAIRS", 6)
    assert d.exp_map() == (X + Y + Fraction(3, 2) * Z, Y + Z, Z)
    monkeypatch.setattr(derivation, "MAX_SERIES_PAIRS", 5)
    with pytest.raises(BoundExceeded, match="for variable 0 exceeds the pair budget 5 at step 2$"):
        d.exp_map()
    monkeypatch.setattr(derivation, "MAX_SERIES_PAIRS", 6)
    assert D.exp_kernel(P) == shear
    monkeypatch.setattr(derivation, "MAX_SERIES_PAIRS", 5)
    with pytest.raises(BoundExceeded, match="for variable 0 exceeds the pair budget 5 at step 2$"):
        D.exp_kernel(P)


def test_exp_kernel_is_the_series_of_q_times_d():
    rng = random.Random(71)
    for trial in range(60):
        q = from_kernel_coordinates(random_kernel_polynomial(rng, 3)) * random_nonzero_rational(rng)
        assert D.exp_kernel(q) == D.scaled_by(q).exp_map()
    # D's own series ends after one step at x alone, and anything in y, z is in E's kernel.
    for q in (Polynomial.one(3), Y * Z - 3, HALF * Z ** 4 + Y):
        assert E.exp_kernel(q) == E.scaled_by(q).exp_map()
    assert D.exp_kernel(P) == (X + P * Y + HALF * P ** 2 * Z, Y + P * Z, Z)


def test_exp_kernel_keeps_the_step_bound_and_the_kernel_check():
    for q in (Polynomial.one(3), P):
        with pytest.raises(BoundExceeded) as info:
            D.exp_kernel(q, 1)
        assert str(info.value) == "exponential series for variable 0 did not terminate within 1 steps"
    # q = 0 is the identity at once, though x d/dx's own series never ends.
    assert EULER.exp_kernel(Polynomial.zero(3)) == (X, Y, Z)
    with pytest.raises(DomainError, match="exponent must lie in the kernel of the derivation"):
        D.exp_kernel(X)
    with pytest.raises(DimensionMismatch):
        D.exp_kernel(Polynomial.one(2))


def test_exp_kernel_never_multiplies_past_the_pair_budget(monkeypatch):
    # (z + xz - y^2/2)^43 has 990 terms: the second Horner product of the
    # x-series would take 991 * 990 pairs, so it raises before forming it.
    pairs = []

    def recording(a, b):
        pairs.append(len(a) * len(b))
        return mul_terms(a, b)

    q = (Z + P) ** 43
    assert len(q.exponents()) == 990
    monkeypatch.setattr(derivation, "mul_terms", recording)
    with pytest.raises(BoundExceeded, match="pair budget 100000 at step 2$"):
        D.exp_kernel(q)
    assert pairs == [990]


def test_non_kernel_exponents_have_no_exponential():
    # If q != 0 and qD is locally nilpotent, then D(q) = 0.  So iterating qD
    # never succeeds for a q outside the kernel, and exp_kernel refuses it at once.
    _, x2, x3, x4 = variables(4)
    samples = (
        D, E,
        Derivation((Y ** 2, Z, Polynomial.zero(3))),
        Derivation((x2, x3, x4, Polynomial.zero(4))),
    )
    rng = random.Random(24)
    for d in samples:
        found = 0
        while found < 3:
            q = random_polynomial(rng, d.dimension, 2, 2)
            if d.apply(q).is_zero():
                continue
            found += 1
            with pytest.raises(BoundExceeded):
                d.scaled_by(q).exp_map()
            with pytest.raises(DomainError, match="^exponent must lie in the kernel of the derivation$"):
                d.exp_kernel(q)


def test_apply_does_no_per_call_setup(monkeypatch):
    # The common denominator of the images is taken once, when D is built.
    half = Derivation((HALF * Y, Fraction(2, 3) * Z, Polynomial.zero(3)))
    expected = HALF * Y ** 2 + Fraction(2, 3) * X * Z  # a sum takes an lcm: built before the patch

    def refuse(*args):
        raise AssertionError("apply took an lcm")

    monkeypatch.setattr(derivation, "lcm", refuse)
    monkeypatch.setattr(exactpoly, "lcm", refuse)
    assert D.apply(P).is_zero()
    assert half.apply(X * Y) == expected
    assert E.apply(X ** 3) == 3 * X ** 2


def test_derivation_equality_hash_and_repr_read_the_images():
    zero = Polynomial.zero(3)
    built = [Derivation((Y, Z, zero)), D, Derivation([Y, Z, zero])]
    for other in built:
        assert other == D
        assert hash(other) == hash(D)
        assert repr(other) == (
            "Derivation(images=(Polynomial(3, 'y'), Polynomial(3, 'z'), Polynomial(3, '0')))"
        )
    assert Derivation((Y, zero, zero)) != D


def test_exp_maps_compose_to_identity():
    rng = random.Random(5)
    samples = [D, E]
    for _ in range(3):
        q = from_kernel_coordinates(random_kernel_polynomial(rng, 2))
        samples.append(D.scaled_by(q))
    for derivation in samples:
        forward = derivation.exp_map()
        backward = derivation.scaled_by(Polynomial.constant(3, -1)).exp_map()
        composed = tuple(c.substitute(list(forward)) for c in backward)
        assert composed == (X, Y, Z)


# -- formal flow ---------------------------------------------------------------


def test_formal_flow_of_shear(monkeypatch):
    # The fold of D's own series in t: no lifted derivation is built.
    def refuse(self, images):
        raise AssertionError("formal_flow built a derivation")

    monkeypatch.setattr(Derivation, "__init__", refuse)
    x, y, z, t = variables(4)
    assert D.formal_flow() == (x + t * y + HALF * t ** 2 * z, y + t * z, z)


def test_formal_flow_of_partial_derivation():
    x, y, z, t = variables(4)
    assert E.formal_flow() == (x + t, y, z)


def test_formal_flow_bound_exceeded():
    with pytest.raises(BoundExceeded, match="within 8 steps"):
        EULER.formal_flow(8)


def _lifted_flow(d, bound):
    # The former formal_flow, kept as the oracle: exp(t D') for the lift D' of D that kills t.
    n = d.dimension
    lifted = Derivation(tuple(img.extend(1) for img in d.images) + (Polynomial.zero(n + 1),))
    return lifted.scaled_by(Polynomial.variable(n, n + 1)).exp_map(bound)[:n]


def _flow_or_message(flow, *args):
    try:
        return flow(*args)
    except BoundExceeded as exc:
        return str(exc)


def test_formal_flow_is_the_series_of_the_lift():
    zero = Polynomial.zero(3)
    x1 = Polynomial.variable(0, 1)
    samples = (
        D, E, EULER, ZERO_DERIVATION, D.scaled_by(P),
        Derivation((Y + Z, Z, zero)),
        Derivation((HALF * Y, Fraction(2, 3) * Z, zero)),
        Derivation((Y ** 10, Z * Z, zero)),
        Derivation((x1 * x1,)),
    )
    for d in samples:
        for bound in (1, 8, derivation.DEFAULT_BOUND):
            assert _flow_or_message(d.formal_flow, bound) == _flow_or_message(_lifted_flow, d, bound)


def test_formal_flow_specializations():
    flow = D.formal_flow()
    at_zero = [c.substitute([X, Y, Z, Polynomial.zero(3)]) for c in flow]
    assert tuple(at_zero) == (X, Y, Z)
    at_one = [c.substitute([X, Y, Z, Polynomial.one(3)]) for c in flow]
    assert tuple(at_one) == D.exp_map()


def test_flow_composition_law():
    rng = random.Random(11)
    flow = D.formal_flow()

    def at(s):
        value = Polynomial.constant(3, s)
        return [c.substitute([X, Y, Z, value]) for c in flow]

    for _ in range(10):
        s = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        s2 = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        composed = [c.substitute(at(s2)) for c in at(s)]
        assert composed == at(s + s2)


# -- kernel coordinates -----------------------------------------------------------


def test_kernel_coordinates_of_p():
    assert kernel_coordinates(P) == Polynomial(2, {(0, 1): 1})


def test_kernel_coordinates_of_mixed_element():
    f = Z ** 2 * P + 3 * Z
    assert kernel_coordinates(f) == Polynomial(2, {(2, 1): 1, (1, 0): 3})


def test_kernel_coordinates_rejects_y():
    with pytest.raises(NotInKernelRing):
        kernel_coordinates(Y)


def test_kernel_coordinates_rejects_x():
    with pytest.raises(NotInKernelRing):
        kernel_coordinates(X)


def test_kernel_coordinates_rejects_product_with_y():
    with pytest.raises(NotInKernelRing):
        kernel_coordinates(Y * P)


def test_kernel_coordinates_dimension_check():
    with pytest.raises(DimensionMismatch):
        kernel_coordinates(Polynomial.variable(0, 2))


def test_kernel_coordinates_memory_stays_linear_in_the_degree():
    # x^N z^N is y-free with j >= i, and D(x^N z^N) = N x^(N-1) y z^N puts the
    # failure at x^(N-1).  The division algorithm reaches it after one power
    # of p; holding every power p^0..p^N on the way would peak near 6 MB here.
    n = 300
    tracemalloc.start()
    try:
        with pytest.raises(NotInKernelRing, match="involves y"):
            kernel_coordinates(Polynomial(3, {(n, 0, n): 1}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _kernel_coordinates_by_division(f):
    # Reference: the division algorithm.  At d = deg_x r the x^d coefficient of
    # the remainder r must be c_d(z) z^d; c_d(Z) P^d joins the result and
    # c_d(z) p^d leaves r.
    out = Polynomial.zero(2)
    work = f
    while not work.is_zero():
        d = work.degree_in(0)
        lead = Polynomial(3, coefficient_of_power(work, 0, d))
        if not lead.depends_only_on({2}):
            raise NotInKernelRing(
                f"the x^{d} coefficient involves y, so the input is not in the kernel ring"
            )
        quotient = divided_by_power(lead, 2, d)
        if quotient is None:
            raise NotInKernelRing(f"the x^{d} coefficient is not divisible by z^{d}")
        quotient = Polynomial(3, quotient)
        den, numerators = quotient.integer_terms()
        out = out + Polynomial(2, {(exps[2], d): c for exps, c in numerators.items()}) / den
        if d == 0:
            break
        work = work - quotient * P ** d
    return out


def _outcome(rewrite, f):
    try:
        return rewrite(f)
    except NotInKernelRing as exc:
        return str(exc)


def test_kernel_coordinates_matches_the_division_algorithm():
    # Same value or the same message on kernel elements, kernel elements with one
    # or a few foreign terms, random polynomials and the deep x^300 z^300.
    rng = random.Random(29)
    inputs = [Polynomial(3, {(300, 0, 300): 1}), X * X * Y + X * X, X * X * Z + Z]
    for _ in range(750):
        kernel = from_kernel_coordinates(random_kernel_polynomial(rng, max_degree=4))
        monomial = Polynomial(3, {tuple(rng.randint(0, 4) for _ in range(3)): 1})
        inputs += [
            kernel,
            kernel + monomial * random_nonzero_rational(rng),
            kernel + random_polynomial(rng, max_degree=5, max_terms=2),
            random_polynomial(rng, max_degree=5),
        ]
    outcomes = [_outcome(_kernel_coordinates_by_division, f) for f in inputs]
    messages = [o for o in outcomes if isinstance(o, str)]
    assert 1000 < len(messages) < len(inputs) - 1000
    assert any("involves y" in m for m in messages)
    assert any("not divisible" in m for m in messages)
    for f, expected in zip(inputs, outcomes):
        assert _outcome(kernel_coordinates, f) == expected


def _seeded_kernel_exponents(rng, count):
    # c(Z, P) up to P-degree 12 with rational coefficients, plus zero and constants.
    out = [Polynomial.zero(2), Polynomial.one(2), Polynomial.constant(2, Fraction(-7, 6))]
    for _ in range(count):
        exps = [(rng.randint(0, 6), rng.randint(0, 12)) for _ in range(rng.randint(1, 6))]
        terms = {e: Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for e in exps}
        out.append(Polynomial(2, terms))
    return out


def test_kernel_round_trip_random():
    rng = random.Random(3)
    exponents = [random_kernel_polynomial(rng, max_degree=4) for _ in range(30)]
    exponents += _seeded_kernel_exponents(random.Random(137), 300)
    for c in exponents:
        assert kernel_coordinates(from_kernel_coordinates(c)) == c


def test_from_kernel_coordinates_matches_the_substitution():
    # The binomial closed form against c(z, p) by the substitution engine.
    rng = random.Random(131)
    images = (Z, P)
    for c in _seeded_kernel_exponents(rng, 300):
        assert from_kernel_coordinates(c) == c.substitute(images)


@pytest.mark.parametrize("exps", [(0, 2**19), (MAX_EXPONENT, 1)])
def test_from_kernel_coordinates_overflow_raises_before_building(monkeypatch, exps):
    # P^(2^19) holds y^(2^20), and Z^MAX_EXPONENT P holds z^(MAX_EXPONENT + 1).
    def unreachable(*args):
        raise AssertionError("a term map was built")

    monkeypatch.setattr(derivation, "normalize", unreachable)
    with pytest.raises(DomainError, match=f"above the limit {MAX_EXPONENT}"):
        from_kernel_coordinates(Polynomial(2, {exps: 1}))


def test_kernel_coordinates_soundness():
    # Whenever the rewrite succeeds, the input really is a kernel element.
    rng = random.Random(4)
    candidates = [P ** 2, Z * P, Z ** 5, P + Z, Polynomial.zero(3)]
    for _ in range(10):
        candidates.append(from_kernel_coordinates(random_kernel_polynomial(rng, 3)))
    for f in candidates:
        c = kernel_coordinates(f)
        assert D.apply(f).is_zero()
        assert from_kernel_coordinates(c) == f
