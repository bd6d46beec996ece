"""Membership and constructive splitting for the centralizer of the shear.

Every automorphism commuting with h' = exp(D) factors uniquely as

    f = (a x, a y, a z) o (x + w(z), y, z) o exp(q(z, p) D)

and ``decompose``/``reconstruct`` realize that bijection on explicit
maps.  The splitting is normalized so that a is the unique scalar with
f_3 = a z; this makes decompose(reconstruct(.)) the identity on triples.

``decompose`` accepts raw maps (the one place raw maps are accepted)
because commutation with h' is directly checkable.  A map that commutes
but fails an extraction step is not an automorphism of the required
shape; that surfaces as MalformedCentralizerElement and must be treated
as a failure, never silently handled.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .autgroup import PolyMap, commutes, compose
from .derivation import from_kernel_coordinates, kernel_coordinates
from .errors import (
    DimensionMismatch,
    MalformedCentralizerElement,
    NotInCentralizer,
    NotInKernelRing,
)
from .exactpoly import Polynomial
from .grammar import format_polynomial
from .nagata import H_WEIGHTS, commutes_with_weight_scaling, f2_element, standard_objects


@dataclass(frozen=True)
class Decomposition:
    """The triple (alpha, w, q) of the semidirect splitting.

    ``alpha`` scales all three coordinates, ``w`` is the z-only shift of
    x, and ``q`` is the kernel exponent in coordinates (Z, P).
    """

    alpha: Fraction
    w: Polynomial
    q: Polynomial

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not self.alpha:
            raise MalformedCentralizerElement("the scalar component must be nonzero")
        if self.w.dimension != 3 or not self.w.depends_only_on({2}):
            raise MalformedCentralizerElement("the shift component must depend on z alone")
        if self.q.dimension != 2:
            raise MalformedCentralizerElement("the kernel exponent must be given in (Z, P)")


def is_in_centralizer(f: PolyMap) -> bool:
    """True iff f o h' = h' o f exactly."""
    if f.dimension != 3:
        raise DimensionMismatch(f"centralizer membership needs dimension 3, got {f.dimension}")
    return commutes(f, standard_objects().h_prime)


def decompose(f: PolyMap) -> Decomposition:
    """Split a commuting map into (alpha, w, q); inverse of reconstruct.

    Raises NotInCentralizer when f does not commute with the shear, and
    MalformedCentralizerElement when it commutes but some extraction
    step fails (impossible for genuine automorphisms).
    """
    if f.dimension != 3:
        raise DimensionMismatch(f"decompose needs dimension 3, got {f.dimension}")
    if not is_in_centralizer(f):
        raise NotInCentralizer("the map does not commute with the degree-one shear")
    objs = standard_objects()
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    f1, f2, f3 = f.components

    if set(f3.terms) != {(0, 0, 1)}:
        raise MalformedCentralizerElement(
            f"third component must be a nonzero multiple of z, got {format_polynomial(f3)}"
        )
    scale = f3.terms[(0, 0, 1)]

    q_raw = (f2 - y * scale).divided_by_power(2, 1)
    if q_raw is None:
        raise MalformedCentralizerElement("second component minus alpha*y is not divisible by z")
    if not objs.D.apply(q_raw).is_zero():
        raise MalformedCentralizerElement("extracted shear exponent is not a kernel element")

    residue = f1 - x * scale - q_raw * y
    if not objs.D.apply(residue).is_zero():
        raise MalformedCentralizerElement("first-component residue is not a kernel element")

    q_norm = q_raw / scale
    try:
        q = kernel_coordinates(q_norm)
    except NotInKernelRing as exc:
        raise MalformedCentralizerElement(str(exc)) from exc

    shift = residue / scale - Fraction(1, 2) * q_norm * q_norm * z
    if not shift.depends_only_on({2}):
        raise MalformedCentralizerElement(
            "shift component is not a polynomial in z alone"
        )
    return Decomposition(alpha=scale, w=shift, q=q)


def reconstruct(d: Decomposition) -> PolyMap:
    """(a x, a y, a z) o (x + w(z), y, z) o exp(q(z,p) D), multiplied out."""
    objs = standard_objects()
    exponent = from_kernel_coordinates(d.q)
    shear = PolyMap(objs.D.scaled_by(exponent).exp_map())
    shift = f2_element(d.w)
    scalar = PolyMap(tuple(Polynomial.variable(i, 3) * d.alpha for i in range(3)))
    return compose(scalar, compose(shift, shear))


def is_in_H(f: PolyMap) -> bool:
    """Commutes with the shear and with (a^3 x, a y, a^-1 z) for formal a."""
    if f.dimension != 3:
        raise DimensionMismatch(f"H membership needs dimension 3, got {f.dimension}")
    return is_in_centralizer(f) and commutes_with_weight_scaling(f, H_WEIGHTS)
