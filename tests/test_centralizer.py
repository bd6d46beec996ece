"""Centralizer membership, the constructive splitting, and the identity chain."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cremona3 import (
    Decomposition,
    DimensionMismatch,
    MalformedCentralizerElement,
    NotInCentralizer,
    NotInKernelRing,
    PolyMap,
    Polynomial,
    TorusElement,
    commutes,
    compose,
    decompose,
    from_kernel_coordinates,
    is_in_centralizer,
    kernel_coordinates,
    kernel_shear,
    reconstruct,
    standard_objects,
    torus_conjugate,
    variables,
    verify_theorem_identities,
)
from cremona3.derivation import _read_off
from cremona3.grammar import format_polynomial
from cremona3.verify import (
    random_decomposition,
    random_kernel_polynomial,
    random_polynomial,
    random_z_polynomial,
)
from oracle import divided_by_power

X, Y, Z = variables(3)
HALF = Fraction(1, 2)
OBJS = standard_objects()
ZERO_W = Polynomial.zero(3)
ZERO_Q = Polynomial.zero(2)
Q_P = Polynomial(2, {(0, 1): 1})  # the kernel coordinate P
Q_Z = Polynomial(2, {(1, 0): 1})  # the kernel coordinate Z


# -- membership ----------------------------------------------------------------


def test_nagata_is_in_the_centralizer():
    assert is_in_centralizer(OBJS.h)


def test_scalars_are_in_the_centralizer():
    assert is_in_centralizer(PolyMap((5 * X, 5 * Y, 5 * Z)))


def test_shift_of_x_by_y_is_not():
    assert not is_in_centralizer(PolyMap((X + Y, Y, Z)))


def test_membership_requires_dimension_three():
    with pytest.raises(DimensionMismatch):
        is_in_centralizer(PolyMap.identity(2))


def _random_kernel_element(rng):
    return from_kernel_coordinates(random_kernel_polynomial(rng, max_degree=2))


def _derivation_chain(u):
    du = OBJS.D.apply(u)
    return PolyMap((u, du, OBJS.D.apply(du)))


def test_membership_criterion_agrees_with_composition():
    # The composition definition f o h' == h' o f is the oracle.
    rng = random.Random(71)
    members = [reconstruct(random_decomposition(rng)) for _ in range(12)]
    perturbed = []
    for f in members:
        comps = list(f.components)
        i = rng.randrange(3)
        comps[i] = comps[i] + random_polynomial(rng, max_degree=3, max_terms=3)
        perturbed.append(PolyMap(comps))
    random_maps = [
        PolyMap(tuple(random_polynomial(rng, max_degree=3, max_terms=4) for _ in range(3)))
        for _ in range(12)
    ]
    # (u, Du, D^2 u) commutes exactly when D^3 u = 0; for u = x*k1 + y*k2 + k3
    # with k_i in ker D it does, though it is no automorphism, e.g. (xz, yz, z^2).
    chain_seeds = [X * Z]
    for _ in range(6):
        k1, k2, k3 = (_random_kernel_element(rng) for _ in range(3))
        chain_seeds.append(X * k1 + Y * k2 + k3)
        chain_seeds.append(random_polynomial(rng, max_degree=4, max_terms=4))
    chains = []
    for u in chain_seeds:
        f = _derivation_chain(u)
        assert is_in_centralizer(f) == OBJS.D.apply(f.components[2]).is_zero()
        chains.append(f)

    verdicts = {}
    for kind, maps in [
        ("members", members),
        ("perturbed", perturbed),
        ("random", random_maps),
        ("chains", chains),
    ]:
        for f in maps:
            verdict = is_in_centralizer(f)
            assert verdict == commutes(f, OBJS.h_prime), (kind, str(f))
            verdicts.setdefault(kind, set()).add(verdict)
    assert verdicts["members"] == {True}
    assert False in verdicts["perturbed"]
    assert False in verdicts["random"]
    assert verdicts["chains"] == {True, False}


# -- decompose ----------------------------------------------------------------


def test_decompose_nagata():
    d = decompose(OBJS.h)
    assert d == Decomposition(Fraction(1), ZERO_W, Q_P)


def test_decompose_scalar_with_shift():
    d = decompose(PolyMap((2 * X + 2 * Z ** 3, 2 * Y, 2 * Z)))
    assert d == Decomposition(Fraction(2), Z ** 3, ZERO_Q)


def test_decompose_shift_and_shear():
    f = PolyMap((X + Z * Y + HALF * Z ** 3 + Z, Y + Z ** 2, Z))
    d = decompose(f)
    assert d == Decomposition(Fraction(1), Z, Q_Z)
    assert reconstruct(d) == f


def test_decompose_rejects_noncommuting_maps():
    with pytest.raises(NotInCentralizer):
        decompose(PolyMap((X + Y, Y, Z)))
    with pytest.raises(NotInCentralizer):
        decompose(PolyMap((X + Y ** 2, Y, Z)))


def test_decompose_flags_commuting_non_automorphisms():
    # The zero map and constant maps commute with the shear but are not
    # automorphisms; extraction must fail loudly, never silently.
    zero_f3 = "^third component must be a nonzero multiple of z, got 0$"
    with pytest.raises(MalformedCentralizerElement, match=zero_f3):
        decompose(PolyMap((Polynomial.zero(3),) * 3))
    with pytest.raises(MalformedCentralizerElement, match=zero_f3):
        decompose(PolyMap((Polynomial.one(3), Polynomial.zero(3), Polynomial.zero(3))))
    # (xz, yz, z^2) = (u, Du, D^2 u) for u = xz commutes but is not onto.
    with pytest.raises(
        MalformedCentralizerElement,
        match=r"^third component must be a nonzero multiple of z, got z\^2$",
    ):
        decompose(PolyMap((X * Z, Y * Z, Z ** 2)))


def test_decompose_flags_a_shift_that_involves_p():
    # (x + p, y, z) commutes with the shear (D(p) = 0) but has Jacobian 1 + z.
    with pytest.raises(
        MalformedCentralizerElement, match="^shift component is not a polynomial in z alone$"
    ):
        decompose(PolyMap((X + OBJS.p, Y, Z)))


LARGE_PRIMES = (10**9 + 7, 10**9 + 9, 998244353, 2**61 - 1, 10**12 + 39, 2**31 - 1)


@st.composite
def kernel_polynomials_with_large_denominators(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        num = draw(st.integers(-(10**20), 10**20))
        den = draw(st.sampled_from(LARGE_PRIMES)) * draw(st.integers(1, 10**6))
        terms[(a, b)] = terms.get((a, b), Fraction(0)) + Fraction(num, den)
    return Polynomial(2, terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(kernel_polynomials_with_large_denominators())
def test_read_off_recovers_kernel_coordinates(c):
    # At y = 0, p = xz: the y-free terms of c(z, p) determine c, and none has j < i;
    # those of c(z, p) z determine c once z is lowered.
    for g, lower in ((from_kernel_coordinates(c), 0), (from_kernel_coordinates(c) * Z, 1)):
        assert _read_off(g._den, g._terms, lower) == ((c._den, c._terms), float("-inf"))


def test_read_off_rejects_terms_outside_the_kernel_ring():
    with pytest.raises(NotInKernelRing, match="^the x\\^2 coefficient is not divisible by z\\^2$"):
        kernel_coordinates(X * X * Z + Z)


# -- reconstruct ----------------------------------------------------------------


def test_reconstruct_identity():
    assert reconstruct(Decomposition(Fraction(1), ZERO_W, ZERO_Q)).is_identity()


def test_reconstruct_nagata():
    assert reconstruct(Decomposition(Fraction(1), ZERO_W, Q_P)) == OBJS.h


def test_reconstruct_scalar_with_shift():
    m = reconstruct(Decomposition(Fraction(2), Z ** 3, ZERO_Q))
    assert m == PolyMap((2 * X + 2 * Z ** 3, 2 * Y, 2 * Z))


def test_reconstructed_maps_commute_with_the_shear():
    rng = random.Random(53)
    for _ in range(10):
        assert is_in_centralizer(reconstruct(random_decomposition(rng)))


def _exp_shear(c):
    # The series definition exp(qD), q = c(z, p): the oracle for the closed forms.
    return PolyMap(OBJS.D.scaled_by(from_kernel_coordinates(c)).exp_map())


def _wide_triples(rng, count):
    alphas = (Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3))
    return [
        Decomposition(
            alpha=rng.choice(alphas),
            w=random_z_polynomial(rng, max_degree=6),
            q=random_kernel_polynomial(rng, max_degree=5),
        )
        for _ in range(count)
    ]


def test_reconstruct_matches_the_composed_product():
    rng = random.Random(79)
    for d in _wide_triples(rng, 8):
        scalar = PolyMap(tuple(v * d.alpha for v in (X, Y, Z)))
        product = compose(scalar, compose(PolyMap((X + d.w, Y, Z)), _exp_shear(d.q)))
        assert reconstruct(d) == product


def test_kernel_shear_matches_the_exponential_series():
    rng = random.Random(83)
    for d in _wide_triples(rng, 8):
        assert kernel_shear(d.q) == _exp_shear(d.q)
    assert kernel_shear(Q_P) == OBJS.h
    assert kernel_shear(Polynomial.one(2)) == OBJS.h_prime


def test_reconstruct_and_kernel_shear_match_the_series_with_fractional_scalars():
    rng = random.Random(101)
    alphas = (Fraction(1, 2), Fraction(-2, 3), Fraction(7, 10**9 + 7), Fraction(-(10**12 + 39), 11))
    for d in _wide_triples(rng, 10):
        e1, e2, e3 = _exp_shear(d.q).components
        for alpha in (d.alpha,) + alphas:
            expected = PolyMap(((e1 + d.w) * alpha, e2 * alpha, e3 * alpha))
            assert reconstruct(Decomposition(alpha, d.w, d.q)) == expected
        assert kernel_shear(d.q) == PolyMap((e1, e2, e3))


def test_kernel_shear_needs_kernel_coordinates():
    with pytest.raises(DimensionMismatch):
        kernel_shear(Z)


def test_decomposition_validates_components():
    with pytest.raises(MalformedCentralizerElement):
        Decomposition(Fraction(0), ZERO_W, ZERO_Q)
    with pytest.raises(MalformedCentralizerElement):
        Decomposition(Fraction(1), Y, ZERO_Q)
    with pytest.raises(MalformedCentralizerElement, match=r"in \(Z, P\)"):
        Decomposition(Fraction(1), ZERO_W, OBJS.p)


# -- round trips ----------------------------------------------------------------


def test_round_trips_on_random_triples():
    rng = random.Random(59)
    for _ in range(25):
        d = random_decomposition(rng)
        f = reconstruct(d)
        assert decompose(f) == d
        assert reconstruct(decompose(f)) == f


def test_shear_removal_leaves_a_pure_shift():
    # The intermediate step behind decompose: for a commuting map with
    # unit scalar, undoing the kernel shear leaves exactly (x + w, y, z).
    rng = random.Random(67)
    for _ in range(10):
        sample = random_decomposition(rng)
        d = Decomposition(Fraction(1), sample.w, sample.q)
        f = reconstruct(d)
        undo = PolyMap(OBJS.D.scaled_by(-from_kernel_coordinates(d.q)).exp_map())
        assert compose(f, undo) == PolyMap((X + d.w, Y, Z))


# -- decompose against the extraction on whole polynomials -------------------------


def _y_free_read(g):
    # c(Z, P) from the y-free terms x^i z^j (j >= i) of g, x^i z^j -> Z^(j-i) P^i.
    return Polynomial(2, {(j - i, i): c for (i, k, j), c in g.terms.items() if not k and j >= i})


def _reference_decompose(f):
    # The extraction as polynomial arithmetic in (x, y, z): q_raw = (f2 - a y)/z and
    # residue = f1 - a x - q_raw y are formed and read off, then q and w follow in (Z, P).
    import cremona3.centralizer

    if not cremona3.centralizer.is_in_centralizer(f):
        raise NotInCentralizer("the map does not commute with the degree-one shear")
    f1, f2, f3 = f.components
    if f3.exponents() != ((0, 0, 1),):
        raise MalformedCentralizerElement(
            f"third component must be a nonzero multiple of z, got {format_polynomial(f3)}"
        )
    a = f3.coefficient((0, 0, 1))
    q_raw = divided_by_power(f2 - Y * a, 2, 1)
    if q_raw is None:
        raise MalformedCentralizerElement("second component minus alpha*y is not divisible by z")
    q_raw = Polynomial(3, q_raw)
    residue = f1 - X * a - q_raw * Y
    q = _y_free_read(q_raw) / a
    shift = _y_free_read(residue) / a - q * q * Q_Z / 2
    if not shift.depends_only_on({0}):
        raise MalformedCentralizerElement("shift component is not a polynomial in z alone")
    return Decomposition(a, shift.substitute([Z, Polynomial.zero(3)]), q)


def _outcome(split, f):
    try:
        return split(f)
    except Exception as error:  # the type and message are the outcome
        return type(error), str(error)


def _assert_same_outcomes(maps):
    outcomes = []
    for f in maps:
        expected = _outcome(_reference_decompose, f)
        assert _outcome(decompose, f) == expected, str(f)
        outcomes.append(expected if isinstance(expected, tuple) else Decomposition)
    return outcomes


COMMUTING_NON_AUTOMORPHISMS = [
    PolyMap((Polynomial.zero(3),) * 3),
    PolyMap((Polynomial.one(3), Polynomial.zero(3), Polynomial.zero(3))),
    PolyMap((X * Z, Y * Z, Z ** 2)),
    PolyMap((X + OBJS.p, Y, Z)),
]


def test_decompose_matches_the_polynomial_extraction():
    rng = random.Random(113)
    triples = [random_decomposition(rng) for _ in range(150)] + _wide_triples(rng, 150)
    members = [reconstruct(d) for d in triples] + [OBJS.h]
    misses = [_near_miss(f, rng.choice(("cy", "cz2")), Fraction(1, 3)) for f in members[::10]]
    outcomes = _assert_same_outcomes(members + misses + COMMUTING_NON_AUTOMORPHISMS)
    assert outcomes[: len(members)] == [Decomposition] * len(members)
    assert [kind for kind, _ in outcomes[len(members) :]] == [NotInCentralizer] * len(misses) + [
        MalformedCentralizerElement
    ] * 4
    assert all(decompose(reconstruct(d)) == d for d in triples)


def test_decompose_matches_the_polynomial_extraction_past_membership(monkeypatch):
    # With membership switched off in both, the extraction alone is compared on
    # maps that do not commute but meet what membership proves of f2 (z divides
    # f2 - alpha*y, see decompose): arbitrary f1 terms, y-free terms x^i z^j with
    # j < i and terms in P among them, f2 terms that hold z, and third components
    # that are not a multiple of z, to reach every branch.
    import cremona3.centralizer

    monkeypatch.setattr(cremona3.centralizer, "is_in_centralizer", lambda f: True)
    rng = random.Random(127)
    maps = list(COMMUTING_NON_AUTOMORPHISMS)
    for d in _wide_triples(rng, 100):
        f1, f2, f3 = reconstruct(d).components
        g = random_polynomial(rng, max_degree=4, max_terms=4)
        if rng.randrange(2):
            f1 = f1 + g
        else:
            f2 = f2 + Z * g
        maps.append(PolyMap((f1, f2, f3 + rng.choice((0, 0, 0, Y)))))
    reached = {o if o is Decomposition else o[1].split()[0] for o in _assert_same_outcomes(maps)}
    assert reached == {Decomposition, "third", "shift"}


# -- cost structure of the verdicts ----------------------------------------------


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _count_substitutions(monkeypatch, counts):
    import cremona3.autgroup
    import cremona3.exactpoly

    for module in (cremona3.exactpoly, cremona3.autgroup):
        _count_calls(monkeypatch, module, "_substitute_all", counts)


def _near_miss(f, kind, c):
    f1, f2, f3 = f.components
    if kind == "cy":
        return PolyMap((f1 + c * Y, f2, f3))
    return PolyMap((f1, f2 + c * Z * Z, f3))


def test_decompose_substitutes_nothing(monkeypatch):
    rng = random.Random(83)
    members = [reconstruct(random_decomposition(rng)) for _ in range(8)]
    counts = {}
    _count_substitutions(monkeypatch, counts)
    for f in members:
        decompose(f)
        with pytest.raises(NotInCentralizer):
            decompose(_near_miss(f, rng.choice(("cy", "cz2")), Fraction(rng.randint(1, 9), 7)))
    with pytest.raises(NotInCentralizer):
        decompose(PolyMap((X + Y, Y, Z)))
    assert counts == {}


def _count_products(monkeypatch, counts):
    # Products of two multi-term polynomials in x, y, z, and powers.
    mul, power = Polynomial.__mul__, Polynomial.__pow__

    def counted_mul(self, other):
        if isinstance(other, Polynomial) and self.dimension == 3:
            if min(len(self.exponents()), len(other.exponents())) > 1:
                counts["mul3"] = counts.get("mul3", 0) + 1
        return mul(self, other)

    def counted_pow(self, exponent):
        counts["pow"] = counts.get("pow", 0) + 1
        return power(self, exponent)

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counted_mul)
    monkeypatch.setattr(Polynomial, "__pow__", counted_pow)


def test_decompose_works_in_kernel_coordinates(monkeypatch):
    # Neither direction calls kernel_coordinates, takes a power or multiplies two
    # multi-term 3-variable polynomials.
    # No module but the entry points imports kernel_coordinates
    # (test_only_the_entry_points_read_kernel_coordinates_off_xyz).
    import cremona3.derivation

    rng = random.Random(103)
    members = [reconstruct(d) for d in _wide_triples(rng, 6)]
    members += [reconstruct(random_decomposition(rng)) for _ in range(6)]
    members.append(OBJS.h)
    counts = {}
    _count_calls(monkeypatch, cremona3.derivation, "kernel_coordinates", counts)
    _count_products(monkeypatch, counts)
    for f in members:
        assert reconstruct(decompose(f)) == f
    assert counts == {}


def test_reconstruct_expands_and_squares_q_once(monkeypatch):
    # q = c(z, p) is written out in closed form, with no substitution and no
    # product; then come the monomial products q y and q z, and one product of
    # two multi-term maps, (q z) * q.  Torus conjugation substitutes nothing either.
    import cremona3.derivation
    import cremona3.nagata

    rng = random.Random(107)
    triples = _wide_triples(rng, 6)
    sizes = [len(from_kernel_coordinates(d.q).exponents()) for d in triples]
    assert max(sizes) > 1
    t = TorusElement(Fraction(-2, 3), Fraction(5))
    counts, shapes = {}, []
    mul_terms = cremona3.nagata.mul_terms

    def shaped(a, b):
        shapes.append((len(a), len(b)))
        return mul_terms(a, b)

    for module in (cremona3.derivation, cremona3.nagata):
        monkeypatch.setattr(module, "mul_terms", shaped)
    _count_substitutions(monkeypatch, counts)
    _count_products(monkeypatch, counts)
    for d, size in zip(triples, sizes):
        for build in (lambda: reconstruct(d), lambda: kernel_shear(d.q)):
            shapes.clear()
            build()
            assert shapes == [(1, size), (1, size), (size, size)]
        shapes.clear()
        from_kernel_coordinates(d.q)
        torus_conjugate(t, d.q)
        assert shapes == []
    assert counts == {}


@pytest.mark.parametrize("kind", ["cy", "cz2"])
def test_near_miss_is_rejected_after_one_apply(monkeypatch, kind):
    # Both perturbations break D(f1) = f2, the first equation tested.
    from cremona3 import Derivation

    rng = random.Random(89)
    members = [reconstruct(random_decomposition(rng)) for _ in range(6)]
    misses = [_near_miss(f, kind, Fraction(-3, 5)) for f in members]
    counts = {}
    _count_substitutions(monkeypatch, counts)
    _count_calls(monkeypatch, Derivation, "apply", counts)
    for f in misses:
        counts.clear()
        with pytest.raises(NotInCentralizer):
            decompose(f)
        assert counts == {"apply": 1}


def test_accepted_decompose_costs_three_applies(monkeypatch):
    # The membership test's three; q_raw and the residue are kernel elements by it.
    from cremona3 import Derivation

    rng = random.Random(109)
    members = [reconstruct(random_decomposition(rng)) for _ in range(6)] + [OBJS.h]
    counts = {}
    _count_calls(monkeypatch, Derivation, "apply", counts)
    for f in members:
        counts.clear()
        d = decompose(f)
        assert counts == {"apply": 3}
        assert reconstruct(d) == f
        counts.clear()
        with pytest.raises(NotInCentralizer):
            decompose(_near_miss(f, "cy", Fraction(2, 7)))
        assert counts == {"apply": 1}


def test_decompose_does_no_polynomial_arithmetic_in_xyz_after_membership(monkeypatch):
    # After the membership test the extraction reads integer pairs: no arithmetic
    # operator sees a 3-variable polynomial (and nothing substitutes at all,
    # test_decompose_substitutes_nothing).
    import cremona3.centralizer

    calls = []

    def recorded(name):
        original = getattr(Polynomial, name)

        def wrapper(*args):
            calls.append((name, {a.dimension for a in args if isinstance(a, Polynomial)}))
            return original(*args)

        monkeypatch.setattr(Polynomial, name, wrapper)

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                 "__rmul__", "__truediv__", "__pow__"):
        recorded(name)
    membership = cremona3.centralizer.is_in_centralizer

    def membership_then_reset(f):
        verdict = membership(f)
        calls.clear()
        return verdict

    monkeypatch.setattr(cremona3.centralizer, "is_in_centralizer", membership_then_reset)
    rng = random.Random(131)
    members = [reconstruct(d) for d in _wide_triples(rng, 6)]
    members += [reconstruct(random_decomposition(rng)) for _ in range(6)] + [OBJS.h]
    for f in members + [PolyMap((X + OBJS.p, Y, Z))]:
        calls.clear()
        try:
            decompose(f)
        except MalformedCentralizerElement:
            pass
        assert [call for call in calls if 3 in call[1]] == []
    # The wrappers record: the same operators on a member's components do show.
    f1, f2, _ = members[0].components
    f1 - f2 * 2
    assert [name for name, dims in calls if 3 in dims] == ["__mul__", "__sub__"]


# -- the identity chain ------------------------------------------------------------


def test_theorem_identities_all_pass():
    checks = verify_theorem_identities()
    assert all(check.passed for check in checks)
    assert len(checks) == 5
    assert all(check.detail == "" for check in checks)


def test_conjugation_identity_expansion():
    # Both sides of the displayed identity expand to the same x-component
    # x + (p+z)y + (p+z)^2 z / 2.
    s = OBJS.p + Z
    expected_x = X + s * Y + HALF * s ** 2 * Z
    t_plus = PolyMap((X + 1, Y, Z))
    t_minus = PolyMap((X - 1, Y, Z))
    conjugated = compose(t_minus, compose(OBJS.h, t_plus))
    assert conjugated.components[0] == expected_x


def test_scaled_exponential_differs_at_two():
    exp_z = PolyMap(OBJS.D.scaled_by(Z).exp_map())
    exp_2z = PolyMap(OBJS.D.scaled_by(2 * Z).exp_map())
    assert exp_2z.components[0] == X + 2 * Z * Y + 2 * Z ** 3
    assert exp_2z != exp_z


# -- flow commutation ---------------------------------------------------------------


def test_sampled_centralizer_elements_commute_with_the_formal_flow():
    rng = random.Random(61)
    t = Polynomial.variable(3, 4)
    flow = PolyMap(tuple(OBJS.D.formal_flow()) + (t,))
    for _ in range(10):
        f = reconstruct(random_decomposition(rng))
        lifted = PolyMap(tuple(c.extend(1) for c in f.components) + (t,))
        assert compose(lifted, flow) == compose(flow, lifted)
