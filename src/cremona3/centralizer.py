"""Membership and constructive splitting for the centralizer of the shear.

Every automorphism commuting with h' = exp(D) factors uniquely as

    f = (a x, a y, a z) o (x + w(z), y, z) o exp(q(z, p) D)

and ``decompose``/``reconstruct`` realize that bijection on explicit
maps.  The splitting is normalized so that a is the unique scalar with
f_3 = a z; this makes decompose(reconstruct(.)) the identity on triples.

Nothing here composes maps or substitutes.  Membership uses the
derivation criterion f commutes with exp(D) iff D(f_i) = (D x_i) o f for
every i, which for D = (y, z, 0) reads D(f1) = f2, D(f2) = f3, D(f3) = 0
(see ``is_in_centralizer``).  Both directions of the splitting work in
kernel coordinates (Z, P), where q and w have a few terms: ``decompose``
reads them off the y = 0 slice of two kernel elements (exact, by the
lemma in ``kernel_coordinates``) in one pass over the integer pair of
f2 and one over f1's, forming neither element, and then w is one product
and one sum in (Z, P); past membership it builds the triple without
re-checking it.  ``reconstruct`` writes q = c(z, p) out by the binomial
theorem (``derivation.from_kernel_coordinates``) and multiplies the three
factors out in closed form.  Past membership, z divides f2 - a y
with no check, since ker D and im D meet in z C[z, p] (the proof is in
``decompose``).

``decompose`` accepts raw maps (the one place raw maps are accepted)
because commutation with h' is directly checkable.  A map that commutes
but fails an extraction step is not an automorphism of the required
shape; that surfaces as MalformedCentralizerElement and must be treated
as a failure, never silently handled.
"""

from __future__ import annotations

from fractions import Fraction

from ._termops import EXPONENT_BITS, mul_terms, normalize, scale_terms
from .autgroup import PolyMap
from .derivation import _Z_SHIFT, _kernel_pair, _read_off, _Record
from .errors import (
    DimensionMismatch,
    MalformedCentralizerElement,
    NotInCentralizer,
)
from .exactpoly import Polynomial, _sum
from .grammar import format_polynomial
from .nagata import _Z, _scaled_shear, standard_objects


class Decomposition(_Record):
    """The triple (alpha, w, q) of the semidirect splitting.

    ``alpha`` scales all three coordinates, ``w`` is the z-only shift of
    x, and ``q`` is the kernel exponent in coordinates (Z, P).
    """

    __slots__ = _fields = ("alpha", "w", "q")

    def __init__(self, alpha, w: Polynomial, q: Polynomial):
        alpha = Fraction(alpha)
        if not alpha:
            raise MalformedCentralizerElement("the scalar component must be nonzero")
        if w.dimension != 3 or not w.depends_only_on({2}):
            raise MalformedCentralizerElement("the shift component must depend on z alone")
        if q.dimension != 2:
            raise MalformedCentralizerElement("the kernel exponent must be given in (Z, P)")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "q", q)


def is_in_centralizer(f: PolyMap) -> bool:
    """True iff f o h' = h' o f exactly, decided without composing maps.

    Criterion: f commutes with h' = exp(D) iff D(f_i) = (D x_i) o f for
    i = 1..3; for D = (y, z, 0) that reads D(f1) = f2, D(f2) = f3 and
    D(f3) = 0.  It holds for any polynomial map f, invertible or not.

    Proof.  Write f* for the ring map g -> g o f.  Because exp(D) is a
    ring automorphism with exp(D)(x_i) = h'_i, the components of f o h'
    are exp(D)(f_i) and those of h' o f are f*(exp(D) x_i), so f
    commutes with h' iff exp(D) f* = f* exp(D) (both sides are ring maps
    that agree on the generators).  If they commute, then exp(nD) f* =
    f* exp(nD) for every n >= 0.  For a fixed g, exp(tD) f*(g) -
    f*(exp(tD) g) is a polynomial in t, since D is locally nilpotent;
    it vanishes on all of N, so it is zero, and its t-derivative at 0
    gives D f*(g) = f*(D g).  Conversely, D f* and f* D are both
    f*-derivations (d(ab) = d(a) f*(b) + f*(a) d(b)), so agreeing on the
    generators, D(f_i) = f*(D x_i), they agree everywhere; then D^k f* =
    f* D^k for all k, and summing the series gives exp(D) f* =
    f* exp(D).
    """
    if f.dimension != 3:
        raise DimensionMismatch(f"centralizer membership needs dimension 3, got {f.dimension}")
    # (D x_i) o f = f2, f3, 0 needs no substitution; a near-miss fails the first test.
    D = standard_objects().D
    f1, f2, f3 = f.components
    return D.apply(f1) == f2 and D.apply(f2) == f3 and D.apply(f3).is_zero()


def decompose(f: PolyMap) -> Decomposition:
    """Split a commuting map into (alpha, w, q); inverse of reconstruct.

    Raises NotInCentralizer when f does not commute with the shear, and
    MalformedCentralizerElement when it commutes but some extraction
    step fails (impossible for genuine automorphisms).

    The checks leave q_raw = (f2 - a y)/z = a q and residue =
    f1 - a x - q_raw y = a (w + q^2 z/2), both in ker D by membership
    (D(f1) = f2, D(f2) = f3 = a z): z D(q_raw) = D(f2 - a y) = 0 and
    D(residue) = f2 - a y - q_raw z = 0.  Each is c(z, p) for the c read
    off its y-free terms (exact, see ``kernel_coordinates``; a term
    x^i z^j with j < i cannot occur, as ker D = C[z, p]).  Neither is
    formed.

    The division by z needs no check.  g = f2 - a y = D(f1 - a x) lies in
    ker D and in im D.  D is the raising operator e of an sl2-triple on
    C[x, y, z] with weights -2, 0, 2 on x, y, z (Jacobson-Morozov), and
    each homogeneous degree is a finite-dimensional, completely reducible
    module; so a kernel vector lies in im e iff its weight-0 part is 0.
    As z^a p^b has weight 2a, ker D and im D meet in z C[z, p] (the plinth
    ideal of D; Freudenburg, Algebraic Theory of Locally Nilpotent
    Derivations, 2006).  So z divides g, and g has no y term: f2's y
    coefficient is a and every other term of f2 holds z.

    Then the y-free terms of q_raw are f2's with z lowered once.  q_raw y
    has no y-free term, so those of the residue are f1's but for the x
    term, which the read-off skips (j < i).  So each read is one pass over
    the integer pair of f2 or f1, scaled by 1/a, and w = c - q^2 Z/2, for
    the c of the residue, is one product and one sum in (Z, P).
    """
    if not is_in_centralizer(f):
        raise NotInCentralizer("the map does not commute with the degree-one shear")
    f1, f2, f3 = f.components

    num = f3._terms.get(_Z)
    if num is None or len(f3._terms) != 1:
        raise MalformedCentralizerElement(
            f"third component must be a nonzero multiple of z, got {format_polynomial(f3)}"
        )

    # 1/alpha = b/a with a > 0 scales both reads.
    a, b = abs(num), f3._den if num > 0 else -f3._den
    r_den, r_terms = _read_off(f2._den, f2._terms, 1)[0]
    q_den, q_terms = normalize(r_den * a, scale_terms(r_terms, b))
    qqz = mul_terms(q_terms, {key + 1: c for key, c in q_terms.items()})  # Z is the packed key 1
    residue = _read_off(f1._den, f1._terms)[0]
    w_den, w_terms = _sum([(b, residue), (-a, (2 * q_den * q_den, qqz))], a)
    if any(key >> EXPONENT_BITS for key in w_terms):  # a term holds P
        raise MalformedCentralizerElement(
            "shift component is not a polynomial in z alone"
        )
    # w(Z) -> w(z): Z^k is the packed key k, z^k is k << _Z_SHIFT.
    w = Polynomial._make(3, w_den, {k << _Z_SHIFT: c for k, c in w_terms.items()})
    # Decomposition's checks hold by construction: alpha != 0 is f3's one
    # coefficient over its denominator, w has only z keys, and q is in (Z, P).
    q = Polynomial._make(2, q_den, q_terms)
    return Decomposition._make(Fraction(num, f3._den), w, q)


def reconstruct(d: Decomposition) -> PolyMap:
    """(a x, a y, a z) o (x + w(z), y, z) o exp(q(z,p) D), multiplied out.

    Closed form: the shift only reads z, so the product is
    a (x + q y + q^2 z/2 + w, y + q z, z) for q = d.q(z, p), the
    assembler behind ``kernel_shear`` with the scalar and shift added;
    no map is composed.
    """
    return _scaled_shear(d.alpha, _kernel_pair(d.q), d.w)
