"""End-to-end verification of the identities the package is built on.

Each check re-derives one published identity (or a whole family of them
on random samples) and reports PASS/FAIL with a counterexample component
on failure.  The command line exposes the suite as ``verify-paper``; the
acceptance tests run the same checks at their full sample counts.

Sampling uses ``random.Random`` seeded explicitly, so a given seed
reproduces the exact run.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from ._termops import normalize, pack
from .autgroup import (
    AffineGenerator,
    AutWord,
    PolyMap,
    TriangularGenerator,
    compose,
)
from .centralizer import Decomposition, decompose, is_in_centralizer, reconstruct
from .derivation import Derivation, Nilpotency, from_kernel_coordinates, kernel_coordinates
from .errors import InvalidGenerator, NotMonomialInK
from .exactpoly import Polynomial
from .grammar import format_polynomial, parse_polynomial
from .nagata import (
    TorusElement,
    character_lambda,
    k_monomial,
    kernel_shear,
    lambda_degree,
    standard_objects,
    torus_conjugate,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class Profile(NamedTuple):
    """Sample counts for the randomized checks."""

    kernel_roundtrips: int
    decomposition_roundtrips: int
    normality_samples: int
    character_samples: int
    flow_samples: int
    word_samples: int
    parser_roundtrips: int


#: Full counts used by the acceptance suite.
FULL = Profile(
    kernel_roundtrips=100,
    decomposition_roundtrips=200,
    normality_samples=50,
    character_samples=20,
    flow_samples=50,
    word_samples=100,
    parser_roundtrips=500,
)

#: Reduced counts so one ``verify-paper`` run stays comfortably fast.
QUICK = Profile(
    kernel_roundtrips=40,
    decomposition_roundtrips=40,
    normality_samples=12,
    character_samples=8,
    flow_samples=12,
    word_samples=30,
    parser_roundtrips=150,
)


# -- samplers ------------------------------------------------------------


def _random_sixths(rng: random.Random, magnitude: int) -> int:
    """The numerator over 6 of a random rational: every sampled
    denominator is 1, 2 or 3, so 6 clears them all."""
    return rng.randint(-magnitude, magnitude) * (6 // rng.choice((1, 1, 1, 2, 3)))


def random_rational(rng: random.Random, magnitude: int = 4) -> Fraction:
    return Fraction(_random_sixths(rng, magnitude), 6)


def random_nonzero_rational(rng: random.Random, magnitude: int = 4) -> Fraction:
    while True:
        value = random_rational(rng, magnitude)
        if value:
            return value


def _sixths_polynomial(dimension: int, sixths: dict) -> Polynomial:
    # ``sixths`` maps packed monomials to numerators over 6.
    return Polynomial._make(dimension, *normalize(6, {k: c for k, c in sixths.items() if c}))


def random_polynomial(
    rng: random.Random, dimension: int = 3, max_degree: int = 6, max_terms: int = 6
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        while True:
            exps = [rng.randint(0, max_degree) for _ in range(dimension)]
            if sum(exps) <= max_degree:
                break
        key = pack(exps)
        terms[key] = terms.get(key, 0) + _random_sixths(rng, 4)
    return _sixths_polynomial(dimension, terms)


def random_z_polynomial(rng: random.Random, max_degree: int = 4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = pack((0, 0, rng.randint(0, max_degree)))
        terms[key] = terms.get(key, 0) + _random_sixths(rng, 4)
    return _sixths_polynomial(3, terms)


def random_kernel_polynomial(rng: random.Random, max_degree: int = 3) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        a = rng.randint(0, max_degree)
        key = pack((a, rng.randint(0, max_degree - a)))
        terms[key] = terms.get(key, 0) + _random_sixths(rng, 3)
    return _sixths_polynomial(2, terms)


_ALPHAS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(-3),
    Fraction(1, 2),
)


def random_decomposition(rng: random.Random) -> Decomposition:
    return Decomposition(
        alpha=rng.choice(_ALPHAS),
        w=random_z_polynomial(rng, max_degree=4),
        q=random_kernel_polynomial(rng, max_degree=3),
    )


def random_torus(rng: random.Random) -> TorusElement:
    return TorusElement(random_nonzero_rational(rng), random_nonzero_rational(rng))


def random_affine_generator(rng: random.Random, dimension: int = 3) -> AffineGenerator:
    while True:
        matrix = [[rng.randint(-2, 2) for _ in range(dimension)] for _ in range(dimension)]
        try:
            return AffineGenerator(matrix, [rng.randint(-2, 2) for _ in range(dimension)])
        except InvalidGenerator:
            continue


def random_triangular_generator(
    rng: random.Random,
    dimension: int = 3,
    max_tail_degree: int = 3,
    tail_degrees: Optional[Sequence[int]] = None,
) -> TriangularGenerator:
    """Random triangular generator; ``tail_degrees`` caps each component."""
    if tail_degrees is None:
        tail_degrees = [rng.randint(0, max_tail_degree) for _ in range(dimension - 1)] + [0]
    components = []
    for i in range(dimension):
        # Diagonal 1, -1, 2 or 1/2, in sixths; the tail keys never meet x_i's.
        terms = {pack([int(j == i) for j in range(dimension)]): rng.choice((6, -6, 12, 3))}
        cap = tail_degrees[i] if i < dimension - 1 else 0
        for _ in range(rng.randint(0, 2)):
            exps = [0] * dimension
            budget = rng.randint(0, cap) if cap else 0
            for j in range(i + 1, dimension):
                exps[j] = rng.randint(0, budget)
                budget -= exps[j]
            key = pack(exps)
            terms[key] = terms.get(key, 0) + _random_sixths(rng, 2)
        components.append(_sixths_polynomial(dimension, terms))
    return TriangularGenerator(components)


def _triangular_cost(tail_degrees: Sequence[int]) -> int:
    # Degree contributed to the evaluated word times the degree its
    # inverse contributes: the inverse of component i substitutes the
    # later inverses into a degree-d_i tail, so inverse degrees compound
    # bottom-up while the forward degree is just the largest tail.
    forward = max([1, *tail_degrees])
    inverse = 1
    for d in reversed(tail_degrees):
        inverse = max(inverse, d * inverse, 1)
    return forward * inverse


def random_tame_word(
    rng: random.Random,
    dimension: int = 3,
    max_length: int = 6,
    max_tail_degree: int = 3,
    cost_budget: int = 400,
) -> AutWord:
    """A random word in affine and triangular generators.

    Affine factors are free; triangular factors are budgeted by the
    product of the degrees they contribute to the evaluated word and to
    the evaluated inverse word (six stacked cubic tails would reach
    composed degree 729 and inverse degree in the hundreds of thousands).
    The group laws hold for every word; the cap only bounds test cost.
    """
    factors = []
    cost = 1
    for _ in range(rng.randint(1, max_length)):
        if rng.random() < 0.5:
            factors.append(random_affine_generator(rng, dimension))
            continue
        tails = [rng.randint(0, max_tail_degree) for _ in range(dimension - 1)] + [0]
        while cost * _triangular_cost(tails) > cost_budget and any(tails):
            largest = max(range(dimension), key=lambda i: tails[i])
            tails[largest] -= 1
        cost *= _triangular_cost(tails)
        factors.append(random_triangular_generator(rng, dimension, tail_degrees=tails))
    return AutWord(dimension, factors)


# -- individual checks ---------------------------------------------------


def check_nagata_formula() -> CheckResult:
    """exp(pD) equals the displayed quintic triple, term for term."""
    name = "nagata-formula"
    objs = standard_objects()
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    p = x * z - Fraction(1, 2) * y ** 2
    expected = PolyMap(
        (
            x + y * p + Fraction(1, 2) * z * p ** 2,
            y + z * p,
            z,
        )
    )
    computed = PolyMap(objs.D.scaled_by(objs.p).exp_map())
    if computed != expected:
        return CheckResult(name, False, f"got {computed}")
    degrees = tuple(c.total_degree() for c in computed.components)
    if degrees != (5, 3, 1):
        return CheckResult(name, False, f"component degrees {degrees}, expected (5, 3, 1)")
    return CheckResult(name, True)


def check_kernel_ring(rng: random.Random, trials: int) -> CheckResult:
    """D kills p, and kernel coordinates round-trip random c(Z, P)."""
    name = "kernel-ring"
    objs = standard_objects()
    if not objs.D.apply(objs.p).is_zero():
        return CheckResult(name, False, "D(p) != 0")
    for _ in range(trials):
        c = random_kernel_polynomial(rng, max_degree=4)
        expanded = from_kernel_coordinates(c)
        if not objs.D.apply(expanded).is_zero():
            return CheckResult(name, False, f"c(z,p) escapes the kernel for c = {c!r}")
        back = kernel_coordinates(expanded)
        if back != c:
            return CheckResult(
                name,
                False,
                f"round trip failed: {format_polynomial(c, ('Z', 'P'))} came back as "
                f"{format_polynomial(back, ('Z', 'P'))}",
            )
    return CheckResult(name, True)


def check_decomposition_roundtrip(rng: random.Random, trials: int) -> CheckResult:
    """decompose o reconstruct and reconstruct o decompose are identities.

    The map round trip runs on h, which ``reconstruct`` did not build (a
    map it built comes back whenever the triple does).
    """
    name = "centralizer-decomposition"
    objs = standard_objects()
    h_triple = decompose(objs.h)
    if (h_triple.alpha, h_triple.w, h_triple.q) != (
        Fraction(1),
        Polynomial.zero(3),
        Polynomial(2, {(0, 1): 1}),
    ):
        return CheckResult(name, False, f"decompose(h) gave alpha={h_triple.alpha}, w={h_triple.w}, q={h_triple.q}")
    if reconstruct(h_triple) != objs.h:
        return CheckResult(name, False, "map round trip failed for h")
    for _ in range(trials):
        d = random_decomposition(rng)
        if decompose(reconstruct(d)) != d:
            return CheckResult(name, False, f"triple round trip failed for alpha={d.alpha}")
    return CheckResult(name, True)


def check_semidirect_normality(rng: random.Random, trials: int) -> CheckResult:
    """Conjugation keeps each factor of C |x (F2 |x F1) in place, and
    each conjugate, composed here, is rebuilt from its triple."""
    name = "semidirect-normality"
    zero_w = Polynomial.zero(3)
    zero_q = Polynomial.zero(2)
    for _ in range(trials):
        alpha = rng.choice(_ALPHAS)
        w = random_z_polynomial(rng)
        q = random_kernel_polynomial(rng)
        scalar = reconstruct(Decomposition(alpha, zero_w, zero_q))
        scalar_inv = reconstruct(Decomposition(Fraction(1) / alpha, zero_w, zero_q))
        shift = reconstruct(Decomposition(Fraction(1), w, zero_q))
        shift_inv = reconstruct(Decomposition(Fraction(1), -w, zero_q))
        shear = reconstruct(Decomposition(Fraction(1), zero_w, q))

        # (conjugate, what was conjugated, the triple entry that must vanish, its factor)
        for f, what, entry, factor in (
            (compose(scalar, compose(shift, scalar_inv)), "an x-shift by a scalar", "q", "F2"),
            (compose(scalar, compose(shear, scalar_inv)), "a kernel shear by a scalar", "w", "F1"),
            (compose(shift, compose(shear, shift_inv)), "a kernel shear by an x-shift", "w", "F1"),
        ):
            conj = decompose(f)
            if conj.alpha != 1 or not getattr(conj, entry).is_zero():
                return CheckResult(name, False, f"conjugating {what} left {factor}")
            if reconstruct(conj) != f:
                return CheckResult(name, False, f"map round trip failed after conjugating {what}")
    return CheckResult(name, True)


def _character_failure(samples) -> str:
    """Detail for the first (k, t, s) whose conjugate is not s*(bg)^(2k+1).

    Both the exponent from ``torus_conjugate`` and the map t^-1 o u o t
    for u = exp(s p(pz^2)^k D), composed here, must match.  ``samples``
    is consumed only up to that failure; "" if all pass.
    """
    for k, t, s in samples:
        c = k_monomial(k) * s
        conjugated = torus_conjugate(t, c)
        expected = c * character_lambda(k, t)
        if conjugated != expected:
            got = f"got exponent {format_polynomial(conjugated, ('Z', 'P'))}"
        elif compose(t.inverse().to_map(), compose(kernel_shear(c), t.to_map())) != kernel_shear(expected):
            got = "t^-1 o u o t is not the map of the expected exponent"
        else:
            continue
        return f"k={k}, beta={t.beta}, gamma={t.gamma}, s={s}: {got}"
    return ""


def check_torus_characters(rng: random.Random, trials: int) -> CheckResult:
    """Conjugation scales exp(s p(pz^2)^k D) by exactly (bg)^(2k+1)."""
    detail = _character_failure(
        (k, random_torus(rng), random_nonzero_rational(rng)) for k in range(4) for _ in range(trials)
    )
    return CheckResult("torus-characters", not detail, detail)


def _maps_equal(name: str, lhs: PolyMap, rhs: PolyMap) -> CheckResult:
    if lhs == rhs:
        return CheckResult(name, True)
    for i, (a, b) in enumerate(zip(lhs.components, rhs.components)):
        if a != b:
            return CheckResult(
                name,
                False,
                f"component {i + 1} differs: {format_polynomial(a)} vs {format_polynomial(b)}",
            )
    return CheckResult(name, False, "maps differ")


def verify_theorem_identities() -> tuple[CheckResult, ...]:
    """Exact verification of the identity chain that pins the scale to 1.

    Returns the five checks in a fixed order.  They are independent and
    share only immutable inputs, so a caller may evaluate them
    concurrently; the results do not depend on evaluation order.
    """
    objs = standard_objects()
    checks: list[CheckResult] = []
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))

    # (i) conjugating exp(pD) by the unit x-translations equals
    #     exp((p+z)D), which also splits as exp(pD) o exp(zD).
    t_plus = PolyMap((x + 1, y, z))
    t_minus = PolyMap((x - 1, y, z))
    conjugated = compose(t_minus, compose(objs.h, t_plus))
    through_sum = PolyMap(objs.D.scaled_by(objs.p + z).exp_map())
    exp_z = PolyMap(objs.D.scaled_by(z).exp_map())
    split = compose(objs.h, exp_z)
    checks.append(_maps_equal("conjugation equals exp((p+z)D)", conjugated, through_sum))
    checks.append(_maps_equal("exp((p+z)D) splits as exp(pD) o exp(zD)", through_sum, split))

    # (ii) the same splitting with a formal scale a adjoined as a fourth
    #      variable: exp(a(p+z)D) = exp(apD) o exp(azD).
    exp_az = _formal_exp(z)
    lhs4 = _formal_exp(objs.p + z)
    rhs4 = compose(_formal_exp(objs.p), exp_az)
    checks.append(_maps_equal("formal-scale splitting exp(a(p+z)D)", lhs4, rhs4))

    # (iii) exp(a z D) = exp(z D) holds at a = 1 and provably fails at a = 2.
    at_1, at_2 = (
        PolyMap(tuple(c.substitute((x, y, z, Polynomial.constant(3, a))) for c in exp_az.components[:3]))
        for a in (1, 2)
    )
    if at_1 != exp_z:
        detail = "exp(azD) at a = 1 is not exp(zD)"
    elif at_2 == exp_z:
        detail = "scaling the exponent by 2 was not detected as a different map"
    else:
        detail = ""
    checks.append(CheckResult("exponent scale pinned to 1", not detail, detail))

    # (iv) torus conjugation rescales the k-th one-parameter subgroup by
    #      exactly the character (beta*gamma)^(2k+1).
    samples = (
        (Fraction(2), Fraction(3), Fraction(1)),
        (Fraction(1, 2), Fraction(-3), Fraction(2)),
        (Fraction(-2), Fraction(5), Fraction(-1, 2)),
    )
    detail = _character_failure(
        (k, TorusElement(beta, gamma), s) for k in range(4) for beta, gamma, s in samples
    )
    checks.append(CheckResult("torus action by character (bg)^(2k+1)", not detail, detail))

    return tuple(checks)


def _formal_exp(q: Polynomial) -> PolyMap:
    """exp(a q D) on (x, y, z, a), with the formal scale a adjoined as a
    fourth variable that the map fixes."""
    return PolyMap(standard_objects().D.scaled_by(q).formal_flow() + (Polynomial.variable(3, 4),))


def check_theorem_chain() -> CheckResult:
    """The exact identity chain that pins the scale factor to 1."""
    name = "conjugation-chain"
    failure = next((c for c in verify_theorem_identities() if not c.passed), None)
    if failure is None:
        return CheckResult(name, True)
    return CheckResult(name, False, f"{failure.name}: {failure.detail}")


def check_flow_commutation(rng: random.Random, trials: int) -> CheckResult:
    """Every sampled commuting map also commutes with the formal flow."""
    name = "flow-commutation"
    t = Polynomial.variable(3, 4)
    flow = _formal_exp(Polynomial.one(3))
    for _ in range(trials):
        f = reconstruct(random_decomposition(rng))
        lifted = PolyMap(tuple(c.extend(1) for c in f.components) + (t,))
        if compose(lifted, flow) != compose(flow, lifted):
            return CheckResult(name, False, f"map {f} does not commute with the flow")
    return CheckResult(name, True)


def check_group_laws(rng: random.Random, trials: int) -> CheckResult:
    """Word evaluation is a homomorphism and word inverses are two-sided."""
    name = "group-laws"
    for _ in range(trials):
        word = random_tame_word(rng)
        forward = word.evaluate()
        backward = word.inverse().evaluate()
        if not compose(forward, backward).is_identity():
            return CheckResult(name, False, f"right inverse failed for a word of length {len(word)}")
        if not compose(backward, forward).is_identity():
            return CheckResult(name, False, f"left inverse failed for a word of length {len(word)}")
        cut = rng.randint(0, len(word))
        prefix = AutWord(word.dimension, word.factors[:cut])
        suffix = AutWord(word.dimension, word.factors[cut:])
        if compose(prefix.evaluate(), suffix.evaluate()) != forward:
            return CheckResult(name, False, "evaluation is not a homomorphism under concatenation")
    return CheckResult(name, True)


def check_parser_roundtrip(rng: random.Random, trials: int) -> CheckResult:
    """parse o format is the identity and formatting is deterministic.

    The reparsed value equals the sample but was built in another term
    order, so formatting it again tests that the output depends on the
    value alone.
    """
    name = "parser-roundtrip"
    for _ in range(trials):
        p = random_polynomial(rng, dimension=3, max_degree=6)
        text = format_polynomial(p)
        back = parse_polynomial(text, 3)
        if back != p:
            return CheckResult(name, False, f"round trip failed for {text!r}")
        if format_polynomial(back) != text:
            return CheckResult(name, False, "formatter is not deterministic")
    return CheckResult(name, True)


def check_negative_controls() -> CheckResult:
    """Known non-members and non-identities are detected as such."""
    name = "negative-controls"
    objs = standard_objects()
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    if is_in_centralizer(PolyMap((x + y, y, z))):
        return CheckResult(name, False, "(x+y, y, z) was accepted into the centralizer")
    try:
        lambda_degree(k_monomial(0) + k_monomial(1))
    except NotMonomialInK:
        pass
    else:
        return CheckResult(name, False, "a mixed exponent was accepted as a single character monomial")
    euler = Derivation((x, Polynomial.zero(3), Polynomial.zero(3)))
    report = euler.is_locally_nilpotent(10)
    if report.verdict is not Nilpotency.NOT_NILPOTENT_WITNESS or report.witness is None:
        return CheckResult(name, False, "x d/dx was not recognized as non-nilpotent")
    exp_z = PolyMap(objs.D.scaled_by(z).exp_map())
    exp_2z = PolyMap(objs.D.scaled_by(z * 2).exp_map())
    if exp_z == exp_2z:
        return CheckResult(name, False, "exp(2zD) compared equal to exp(zD)")
    return CheckResult(name, True)


#: Stable ordering of the suite; one output line per entry.
SUITE: tuple[tuple[str, Callable[..., CheckResult]], ...] = (
    ("nagata-formula", lambda rng, prof: check_nagata_formula()),
    ("kernel-ring", lambda rng, prof: check_kernel_ring(rng, prof.kernel_roundtrips)),
    (
        "centralizer-decomposition",
        lambda rng, prof: check_decomposition_roundtrip(rng, prof.decomposition_roundtrips),
    ),
    (
        "semidirect-normality",
        lambda rng, prof: check_semidirect_normality(rng, prof.normality_samples),
    ),
    ("torus-characters", lambda rng, prof: check_torus_characters(rng, prof.character_samples)),
    ("conjugation-chain", lambda rng, prof: check_theorem_chain()),
    ("flow-commutation", lambda rng, prof: check_flow_commutation(rng, prof.flow_samples)),
    ("group-laws", lambda rng, prof: check_group_laws(rng, prof.word_samples)),
    ("parser-roundtrip", lambda rng, prof: check_parser_roundtrip(rng, prof.parser_roundtrips)),
    ("negative-controls", lambda rng, prof: check_negative_controls()),
)


def run_suite(seed: int = 0, profile: Profile = QUICK) -> list[CheckResult]:
    results = []
    for name, runner in SUITE:
        rng = random.Random(f"{seed}:{name}")
        results.append(runner(rng, profile))
    return results
