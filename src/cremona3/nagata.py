"""The fixed three-variable cast around the Nagata automorphism.

``standard_objects`` returns the derivation D with x -> y -> z -> 0, the
invariant quadric p = xz - y^2/2, the Nagata map h = exp(pD) and the
degree-one shear h' = exp(D), both from ``Derivation.exp_kernel``.

A unipotent element exp(q D) with q = c(z, p) in ker D is held as its
exponent c alone, a polynomial in kernel coordinates (Z, P).  On c,
membership (``is_in_K``) and character-degree extraction
(``lambda_degree``) are monomial inspections: q lies in p*C[p z^2]
exactly when every monomial Z^a P^b of c has b >= 1 and a = 2(b-1).

Because q lies in ker D, exp(qD) is the closed form
``kernel_shear``: (x + q y + q^2 z/2, y + q z, z), with no series to sum,
for q = c(z, p) written out term by term by the binomial theorem
(``derivation.from_kernel_coordinates``), with no substitution.
It is ``exp_kernel``'s fold written out for this D, and stays beside it
because ``centralizer.reconstruct`` adds alpha and w in the same sums:
built as the fold plus alpha and w, ``reconstruct`` was slower on seeded
triples (ROADMAP item 11 has the numbers).

The torus (b^2/g * x, b * y, g * z) acts on these by conjugation and
rescales exp(s * p(pz^2)^k D) by the character (b*g)^(2k+1).  The
action maps the exponent c(Z, P) to (g/b) * c(g Z, b^2 P)
(``torus_conjugate``), which scales each term of c by a rational, so
nothing in this module composes maps or substitutes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from ._termops import EXPONENT_BITS, FIELD_MASK, mul_terms, normalize
from .autgroup import PolyMap
from .derivation import Derivation, _kernel_pair, _Record, nagata_derivation, nagata_invariant
from .errors import DimensionMismatch, DomainError, InvalidGenerator, NotMonomialInK
from .exactpoly import Polynomial, _sum


class StandardObjects(NamedTuple):
    D: Derivation
    p: Polynomial
    h: PolyMap
    h_prime: PolyMap


@lru_cache(maxsize=1)
def standard_objects() -> StandardObjects:
    """The shared cast; values are immutable and safe to reuse."""
    D = nagata_derivation()
    p = nagata_invariant()
    h = PolyMap(D.exp_kernel(p))
    h_prime = PolyMap(D.exp_kernel(Polynomial.one(3)))
    return StandardObjects(D=D, p=p, h=h, h_prime=h_prime)


class TorusElement(_Record):
    """The diagonal map (beta^2/gamma * x, beta * y, gamma * z)."""

    __slots__ = _fields = ("beta", "gamma")

    def __init__(self, beta, gamma):
        beta = Fraction(beta)
        gamma = Fraction(gamma)
        if not beta or not gamma:
            raise InvalidGenerator("torus parameters must be nonzero")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)

    def weights(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.beta ** 2 / self.gamma, self.beta, self.gamma)

    def to_map(self) -> PolyMap:
        return PolyMap(
            tuple(Polynomial.variable(i, 3) * w for i, w in enumerate(self.weights()))
        )

    def inverse(self) -> "TorusElement":
        return TorusElement(Fraction(1) / self.beta, Fraction(1) / self.gamma)


def kernel_shear(c: Polynomial) -> PolyMap:
    """exp(q D) for q = c(z, p), in closed form.

    ``c`` is given in kernel coordinates (Z, P), so q = c(z, xz - y^2/2)
    lies in ker D by construction.  Then (qD)(x) = q y, (qD)^2(x) = q^2 z
    and (qD)^3(x) = 0, so the exponential series stops after three terms:

        exp(qD) = (x + q y + q^2 z / 2, y + q z, z)

    exactly; this is ``PolyMap(D.exp_kernel(q))`` without D's series.
    It is the case alpha = 1, w = 0 of the one assembler behind
    ``centralizer.reconstruct``: q is written out once in closed form,
    q^2 z is one product, and each of the first two components is one ``_sum``.
    """
    return _scaled_shear(1, _kernel_pair(c), Polynomial.zero(3))


def _scaled_shear(alpha, q: tuple[int, dict], w: Polynomial) -> PolyMap:
    # alpha * (x + q y + q^2 z/2 + w, y + q z, z) for the canonical pair q of
    # c(z, p) and w in C[z]: q y and q z are monomial products, q^2 z is
    # (q z) * q, and each of the first two components is one sum over alpha's
    # denominator.
    d, terms = q
    qy, qz = mul_terms({_Y: 1}, terms), mul_terms({_Z: 1}, terms)
    qqz = mul_terms(qz, terms)
    a, b = alpha.numerator, alpha.denominator
    first = [(a, (1, {_X: 1})), (a, (d, qy)), (a, (2 * d * d, qqz)), (a, (w._den, w._terms))]
    second = [(a, (1, {_Y: 1})), (a, (d, qz))]
    return PolyMap((
        Polynomial._make(3, *_sum(first, b)),
        Polynomial._make(3, *_sum(second, b)),
        Polynomial._make(3, b, {_Z: a}),
    ))


#: The packed monomials x, y, z.
_X, _Y, _Z = (1 << (EXPONENT_BITS * i) for i in range(3))


def k_monomial(k: int) -> Polynomial:
    """p * (p z^2)^k in kernel coordinates: the monomial Z^(2k) P^(k+1)."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"character index must be a non-negative integer, got {k!r}")
    return Polynomial(2, {(2 * k, k + 1): Fraction(1)})


def is_in_K(c: Polynomial) -> bool:
    """True iff the exponent c(Z, P) lies in P*C[P Z^2].

    A monomial inspection: every Z^a P^b of c has b >= 1 and a = 2(b-1).
    """
    _check_exponent(c)
    return all(b >= 1 and a == 2 * (b - 1) for a, b in c.exponents())


def character_lambda(k: int, t: TorusElement) -> Fraction:
    """The torus character (beta * gamma)^(2k+1)."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"character index must be a non-negative integer, got {k!r}")
    return (t.beta * t.gamma) ** (2 * k + 1)


def torus_conjugate(t: TorusElement, c: Polynomial) -> Polynomial:
    """The exponent of t^-1 o exp(c(z, p) D) o t, for c in kernel coordinates (Z, P).

    For t = (b^2/g x, b y, g z) the conjugate is

        exp((g/b) * c(g Z, b^2 P) * D),

    so each term Z^i P^j of c is scaled by g^(i+1) b^(2j-1): nothing is
    substituted and no map is composed.  Proof:
    component i of t^-1 o F o t is (F_i o t) / w_i, with w = t.weights().
    Since z o t = g z and p o t = (b^2/g) x * g z - b^2 y^2 / 2 = b^2 p,
    q = c(z, p) becomes q o t = c(g z, b^2 p) = (b/g) q'.  Read component
    2 of exp(qD) = (x + q y + q^2 z/2, y + q z, z): it becomes
    (b y + (b/g) q' * g z) / b = y + q' z.  Component 1 becomes
    x + ((b/g) q' * b y + (b/g)^2 q'^2 * g z/2) * g/b^2 = x + q' y + q'^2 z/2,
    and component 3 stays z: the result is exp(q'D).  On the
    one-parameter subgroup through exp(s * p(pz^2)^k D), i.e.
    c = s Z^(2k) P^(k+1), this rescales the exponent by exactly
    character_lambda(k, t) = (b*g)^(2k+1).
    """
    _check_exponent(c)
    (gn, gd), (bn, bd) = t.gamma.as_integer_ratio(), t.beta.as_integer_ratio()
    if bn < 0:  # b's sign moves to bd: den holds bd to an even power, each term to an odd one
        bn, bd = -bn, -bd
    fields = [(key & FIELD_MASK, key >> EXPONENT_BITS, key, v) for key, v in c._terms.items()]
    top_i = max((i for i, _, _, _ in fields), default=0)
    top_j = max((j for _, j, _, _ in fields), default=0)
    # Over den gd^(top_i+1) bd^(2 top_j) bn, g^(i+1) b^(2j-1) is the integer
    # gn^(i+1) gd^(top_i-i) bn^(2j) bd^(2(top_j-j)+1).
    terms = {
        key: v * gn ** (i + 1) * gd ** (top_i - i) * bn ** (2 * j) * bd ** (2 * (top_j - j) + 1)
        for i, j, key, v in fields
    }
    den = c._den * gd ** (top_i + 1) * bd ** (2 * top_j) * bn
    return Polynomial._make(2, *normalize(den, terms))


def lambda_degree(c: Polynomial) -> int:
    """The k with the exponent c(Z, P) proportional to Z^(2k) P^(k+1).

    Raises NotMonomialInK when c mixes distinct k-monomials or does not
    lie in P*C[P Z^2] at all; such an exponent does not span a
    torus-normalized one-parameter subgroup.
    """
    _check_exponent(c)
    monomials = c.exponents()
    if len(monomials) != 1:
        raise NotMonomialInK(
            f"exponent has {len(monomials)} kernel monomials; need exactly one"
        )
    ((a, b),) = monomials
    if b < 1 or a != 2 * (b - 1):
        raise NotMonomialInK(f"Z^{a} P^{b} is not of the form Z^(2k) P^(k+1)")
    return b - 1


def _check_exponent(c: Polynomial) -> None:
    if c.dimension != 2:
        raise DimensionMismatch(
            f"unipotent exponent must be a kernel polynomial in (Z, P), got dimension {c.dimension}"
        )
