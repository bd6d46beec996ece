"""Seeded inputs, one op per input, and the correctness check of each op.

Every input is generated here from the benchmark's ``--seed``; the
package only receives the finished objects through its public
constructors.  None of ``cremona3.verify``'s samplers is used, so a
later change to them does not change what this benchmark runs.

Ops call the package through its module attributes (``cremona3.decompose``
rather than a name imported here), so the traced run sees them.

A ``Case`` is one op: ``payload`` is what the op feeds the package and
``expected`` is the outcome the op must reproduce.  ``run_case`` returns
True when the op's result matches ``expected`` and False otherwise; an
unexpected exception propagates to the caller, which counts it as a
failure too.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import cremona3
from cremona3 import (
    AffineGenerator,
    AutWord,
    Decomposition,
    ExponentialGenerator,
    NotInCentralizer,
    PolyMap,
    Polynomial,
    ScalarGenerator,
    TriangularGenerator,
    format_map,
    format_polynomial,
    format_rational,
    nagata_derivation,
)

#: The ``run_suite`` seed and profile of ``paper-full``.  Seed 0 is what
#: ``cremona3 verify-paper`` runs when a reader gives no seed.  The
#: benchmark seed does not vary it: ``run_suite``'s own word sampler is
#: heavy-tailed in the seed (FULL group-laws took 0.35-0.95 s on most
#: seeds but 6.4 s on seed 1, 9.9 s on seed 13 and 108 s on seed 6), so
#: a seeded suite cannot fit a run, nor give a steady median.
SUITE_SEED = 0

#: Ops per pass.  A pass is the unit whose duration is ``wall_s``.
PASS_OPS = {
    "centralizer-roundtrip": 294,
    "centralizer-reject": 294,
    "tame-words": 320,
}

#: The centralizer triples have w(z) of degree 0-6 and q(Z, P) of total
#: degree 0-5.  Op i gets w of degree i mod 7 and the leading monomial
#: Z^a P^b of q from Q_LEADS[(i div 7) mod 21], so every pass holds each
#: pair equally often: the seed only draws coefficients and the lower
#: monomials.
W_DEGREES = range(7)
Q_LEADS = tuple((a, d - a) for d in range(6) for a in range(d + 1))

ALPHAS = tuple(Fraction(a) for a in (1, -1, 2, -2, 3, -3, "1/2", "-1/3", "2/3"))

#: Budget on the product, over a word's factors, of forward degree times
#: inverse degree.  The identity test composes the evaluated word with its
#: inverse, whose intermediate degree this product bounds.  With 8, single
#: ops took up to 0.3 s and the pass time varied by 15% between seeds;
#: with 400 (what verify's group-laws sampler uses) single ops ran for
#: minutes.
WORD_COST_BUDGET = 6
WORD_MAX_LENGTH = 6
WORD_MAX_TAIL_DEGREE = 3
#: Every EXTRA_KINDS_PERIOD-th word also holds one scalar and one exp(qD)
#: factor, so all four kinds ``cremona3 invert --word`` accepts appear.
EXTRA_KINDS_PERIOD = 8


@dataclass(frozen=True)
class Case:
    payload: object
    expected: object


def random_rational(rng: random.Random, magnitude: int = 4) -> Fraction:
    """A nonzero small rational with denominator 1, 2 or 3."""
    while True:
        value = Fraction(rng.randint(-magnitude, magnitude), rng.choice((1, 1, 1, 2, 3)))
        if value:
            return value


# -- centralizer triples ---------------------------------------------------


def random_w(rng: random.Random, degree: int) -> Polynomial:
    """w(z) of exact degree ``degree`` with up to two lower terms."""
    terms = {(0, 0, degree): random_rational(rng)}
    for k in rng.sample(range(degree), min(2, degree)):
        terms[(0, 0, k)] = random_rational(rng)
    return Polynomial(3, terms)


def random_q(rng: random.Random, lead: tuple[int, int]) -> Polynomial:
    """q(Z, P) with leading monomial Z^a P^b and up to two monomials that
    divide it, so the lead fixes the degree in x, y, z."""
    a, b = lead
    terms = {lead: random_rational(rng, 3)}
    lower = [(i, j) for i in range(a + 1) for j in range(b + 1) if (i, j) != lead]
    for exps in rng.sample(lower, min(2, len(lower))):
        terms[exps] = random_rational(rng, 3)
    return Polynomial(2, terms)


def random_triple(rng: random.Random, index: int) -> Decomposition:
    w_degree = W_DEGREES[index % len(W_DEGREES)]
    lead = Q_LEADS[index // len(W_DEGREES) % len(Q_LEADS)]
    return Decomposition(rng.choice(ALPHAS), random_w(rng, w_degree), random_q(rng, lead))


def roundtrip_cases(seed: int) -> list[Case]:
    rng = random.Random(f"centralizer-roundtrip:{seed}")
    triples = [random_triple(rng, i) for i in range(PASS_OPS["centralizer-roundtrip"])]
    return [Case(d, d) for d in triples]


def run_roundtrip(case: Case) -> bool:
    return cremona3.decompose(cremona3.reconstruct(case.payload)) == case.expected


# -- near-miss non-members ---------------------------------------------------


@dataclass(frozen=True)
class NearMiss:
    """A centralizer member with one perturbation added.

    ``kind`` "cy" adds c*y to the first component, so that
    f o h' - h' o f = (c*z, 0, 0); "cz2" adds c*z^2 to the second, so that
    it equals (-c*z^2, 0, 0).
    """

    kind: str
    c: Fraction
    f: PolyMap

    def commutator(self) -> tuple[dict, dict, dict]:
        """The constructed f o h' - h' o f, as three term dicts."""
        if self.kind == "cy":
            return ({(0, 0, 1): self.c}, {}, {})
        return ({(0, 0, 2): -self.c}, {}, {})


def perturb(member: PolyMap, kind: str, c: Fraction) -> PolyMap:
    f1, f2, f3 = member.components
    if kind == "cy":
        return PolyMap((f1 + Polynomial(3, {(0, 1, 0): c}), f2, f3))
    return PolyMap((f1, f2 + Polynomial(3, {(0, 0, 2): c}), f3))


def reject_cases(seed: int, closed_form) -> list[Case]:
    """Members are built by ``closed_form`` (the oracle), not the package."""
    rng = random.Random(f"centralizer-reject:{seed}")
    cases = []
    for i in range(PASS_OPS["centralizer-reject"]):
        d = random_triple(rng, i)
        kind = ("cy", "cz2")[i % 2]
        c = random_rational(rng)
        member = PolyMap(tuple(Polynomial(3, t) for t in closed_form(d)))
        cases.append(Case(NearMiss(kind, c, perturb(member, kind, c)), NotInCentralizer))
    return cases


def run_reject(case: Case) -> bool:
    try:
        cremona3.decompose(case.payload.f)
    except NotInCentralizer:
        return case.expected is NotInCentralizer
    return case.expected is None


# -- tame words --------------------------------------------------------------


def triangular_cost(tail_degrees) -> int:
    """Forward degree times inverse degree of a triangular generator.

    The inverse of component i substitutes the later inverses into a
    degree-d_i tail, so inverse degrees compound from the last component
    up, while the forward degree is the largest tail.
    """
    forward = max([1, *tail_degrees])
    inverse = 1
    for d in reversed(tail_degrees):
        inverse = max(inverse, d * inverse, 1)
    return forward * inverse


def random_affine(rng: random.Random) -> AffineGenerator:
    """A dense invertible affine map with entries in {-2, -1, 1, 2}."""
    entries = (-2, -1, 1, 2)
    while True:
        m = [[Fraction(rng.choice(entries)) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det:
            return AffineGenerator(m, [Fraction(rng.choice(entries)) for _ in range(3)])


def random_triangular(rng: random.Random, tail_degrees) -> TriangularGenerator:
    """Component i gets the tail monomial x_(i+1)^d for d = tail_degrees[i],
    so its degrees are exactly the budgeted ones, plus one random tail
    monomial of lower degree in the later variables."""
    components = []
    for i, cap in enumerate(tail_degrees):
        comp = Polynomial.variable(i, 3) * rng.choice((1, -1, 2, Fraction(1, 2)))
        if cap:
            lead = [0, 0, 0]
            lead[i + 1] = cap
            lower = [0, 0, 0]
            degree = rng.randint(0, cap - 1)
            for j in range(i + 1, 3):
                lower[j] = degree if j == 2 else rng.randint(0, degree)
                degree -= lower[j]
            for exps in (lead, lower):
                comp = comp + Polynomial(3, {tuple(exps): random_rational(rng, 2)})
        components.append(comp)
    return TriangularGenerator(components)


#: exp(qD) has forward and inverse degree 2*deg(q) + 1 each, so it costs
#: (2*deg(q) + 1)^2: 9 for q = z and 25 for q = p, over the budget.  The
#: exp(qD) factors therefore take q constant.
EXP_Q = Polynomial.one(3)


def word_shape(index: int) -> list[tuple]:
    """The kinds and degrees of word ``index``; the same for every seed.

    Mostly affine and triangular factors; every EXTRA_KINDS_PERIOD-th word
    also gets one scalar and one exp(qD) factor.  Triangular tails are cut
    down until the word fits WORD_COST_BUDGET.
    """
    rng = random.Random(f"tame-words-shape:{index}")
    shape = []
    cost = 1
    for _ in range(rng.randint(1, WORD_MAX_LENGTH)):
        if rng.random() < 0.5:
            shape.append(("affine",))
            continue
        tails = [rng.randint(0, WORD_MAX_TAIL_DEGREE) for _ in range(2)] + [0]
        while cost * triangular_cost(tails) > WORD_COST_BUDGET and any(tails):
            tails[max(range(3), key=lambda i: tails[i])] -= 1
        cost *= triangular_cost(tails)
        shape.append(("triangular", tuple(tails)))
    if index % EXTRA_KINDS_PERIOD == EXTRA_KINDS_PERIOD - 1:
        shape.insert(rng.randint(0, len(shape)), ("exp",))
        shape.insert(rng.randint(0, len(shape)), ("scalar",))
    return shape


def random_word(rng: random.Random, shape) -> AutWord:
    factors = []
    for kind, *args in shape:
        if kind == "affine":
            factors.append(random_affine(rng))
        elif kind == "triangular":
            factors.append(random_triangular(rng, args[0]))
        elif kind == "exp":
            factors.append(ExponentialGenerator(EXP_Q, nagata_derivation(), random_rational(rng, 2)))
        else:
            factors.append(ScalarGenerator(random_rational(rng, 3)))
    return AutWord(3, factors)


def tame_cases(seed: int) -> list[Case]:
    rng = random.Random(f"tame-words:{seed}")
    return [Case(random_word(rng, word_shape(i)), True) for i in range(PASS_OPS["tame-words"])]


def run_tame(case: Case) -> bool:
    forward = case.payload.evaluate()
    backward = case.payload.inverse().evaluate()
    both = forward.compose(backward).is_identity() and backward.compose(forward).is_identity()
    return both == case.expected


# -- digests -----------------------------------------------------------------


def canonical_terms(p: Polynomial) -> tuple:
    """Sorted (exponents, coefficient) pairs from the public term view."""
    return tuple(sorted((tuple(e), str(c)) for e, c in p.terms.items()))


def canonical_generator(g) -> tuple:
    if isinstance(g, AffineGenerator):
        return ("affine", tuple(map(str, sum(g.matrix, ()))), tuple(map(str, g.translation)))
    if isinstance(g, TriangularGenerator):
        return ("triangular", tuple(canonical_terms(c) for c in g.components))
    if isinstance(g, ExponentialGenerator):
        return ("exp", str(g.scale), canonical_terms(g.q))
    return ("scalar", str(g.alpha))


def canonical_case(payload) -> tuple:
    if isinstance(payload, Decomposition):
        return (str(payload.alpha), canonical_terms(payload.w), canonical_terms(payload.q))
    if isinstance(payload, NearMiss):
        return (payload.kind, str(payload.c), tuple(canonical_terms(c) for c in payload.f.components))
    if isinstance(payload, AutWord):
        return tuple(canonical_generator(g) for g in payload.factors)
    return (repr(payload),)


def digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(repr(canonical_case(case.payload)).encode())
    return h.hexdigest()[:16]


# -- cold command-line calls ------------------------------------------------


def word_file_text(word: AutWord) -> str:
    """The word in the line format of ``cremona3 invert --word``."""
    lines = []
    for g in word.factors:
        if isinstance(g, AffineGenerator):
            numbers = [*sum(g.matrix, ()), *g.translation]
            lines.append("affine " + " ".join(map(str, numbers)))
        elif isinstance(g, TriangularGenerator):
            lines.append("triangular " + format_map(g.components))
        elif isinstance(g, ExponentialGenerator):
            lines.append(f"exp {g.scale} {format_polynomial(g.q)}")
        else:
            lines.append(f"scalar {g.alpha}")
    return "\n".join(lines) + "\n"


def decomposition_lines(d: Decomposition) -> list[str]:
    return [
        f"alpha = {format_rational(d.alpha)}",
        f"w = {format_polynomial(d.w)}",
        f"q = {format_polynomial(d.q, cremona3.KERNEL_VARIABLE_NAMES)}",
    ]


@dataclass(frozen=True)
class CliCall:
    """One cold ``python -m cremona3`` process and how to judge its output."""

    argv: tuple[str, ...]
    exit_code: int
    check: object  # callable(stdout) -> bool


def cli_calls(workload: str, cases, count: int, word_path) -> list[CliCall]:
    """``count`` calls; ``word_path(i)`` names a writable file for word i."""
    if workload == "paper-full":
        def ten_passes(out):
            return sum(line.startswith("PASS ") for line in out.splitlines()) == 10

        return [CliCall(("verify-paper", "--seed", str(SUITE_SEED)), 0, ten_passes)] * count
    picks = [cases[(2 * i + 1) * len(cases) // (2 * count)] for i in range(count)]
    calls = []
    for i, case in enumerate(picks):
        if workload == "centralizer-roundtrip":
            f = cremona3.reconstruct(case.payload)
            want = decomposition_lines(case.expected)
            calls.append(CliCall(("decompose", str(f)), 0, lambda out, want=want: out.splitlines() == want))
        elif workload == "centralizer-reject":
            calls.append(CliCall(("decompose", str(case.payload.f)), 3, lambda out: out == ""))
        else:
            path = word_path(i)
            path.write_text(word_file_text(case.payload), encoding="utf-8")
            forward = case.payload.evaluate()

            def inverts(out, forward=forward):
                inverse = cremona3.parse_poly_map(out.strip(), 3)
                return forward.compose(inverse).is_identity()

            calls.append(CliCall(("invert", "--word", str(path)), 0, inverts))
    return calls
