"""Derivations of the polynomial ring and their exponentials.

A derivation is determined by its images of the coordinate functions,
``D(f) = sum_i D(x_i) * df/dx_i``.  ``apply`` evaluates that sum with one
``derive_terms`` pass over f's packed terms and one normalization, on the
images put over their common denominator once, when D is built; all that
iterates D (``is_locally_nilpotent``, ``exp_map``) runs on it.  Local nilpotency
(every polynomial is killed by some iterate) makes the exponential
series terminate, giving a polynomial automorphism whose components
are each one ``exactpoly._sum``.

Every exponential the package builds is exp(qD) for q in the kernel of D,
and ``exp_kernel`` is the one routine for it: D's own series, folded in q
by Horner.  Word files, the command line ``exp`` and ``standard_objects``
call it, and ``formal_flow`` is the same fold with q a fresh variable t.
``exp_map`` and ``scaled_by`` iterate qD itself; they are the second path
that ``verify`` and the tests compare against.

``kernel_coordinates`` is specialized to the fixed three-variable
derivation with images (y, z, 0): its kernel is the polynomial ring in z
and the invariant quadric p = xz - y^2/2, and the function rewrites a
kernel element in those two coordinates, read off its y-free terms
after one ``apply`` (raising NotInKernelRing when the input does not
lie in the kernel ring).  ``from_kernel_coordinates`` is the inverse,
c(Z, P) -> c(z, p), in closed form: by the binomial theorem the terms of
all the Z^a P^b are distinct monomials x^(b-k) y^(2k) z^(a+b-k), so it
is one pass over c's terms with no product, sum or substitution.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import attrgetter
from typing import NamedTuple, Optional

from ._termops import EXPONENT_BITS, FIELD_MASK, MAX_EXPONENT, derive_terms, mul_terms, normalize
from .errors import BoundExceeded, DimensionMismatch, DomainError, NotInKernelRing
from .exactpoly import MINUS_INFINITY, Polynomial, _sum

#: Iteration budget used when no explicit bound is passed.  The
#: derivations this package manipulates terminate within three steps.
DEFAULT_BOUND = 64

#: Pair budget of one step of an exponential series: terms of the iterate times
#: image terms for an ``apply``, terms of the partial sum times terms of q for a
#: product in ``exp_kernel``.
MAX_SERIES_PAIRS = 100_000

#: Display names for kernel coordinates (z and the invariant quadric).
KERNEL_VARIABLE_NAMES = ("Z", "P")


class Nilpotency(Enum):
    LOCALLY_NILPOTENT_UP_TO_BOUND = "locally nilpotent up to bound"
    NOT_NILPOTENT_WITNESS = "not nilpotent (witness found)"
    INCONCLUSIVE = "inconclusive"


class NilpotencyReport(NamedTuple):
    """Outcome of the semi-decision procedure for local nilpotency.

    ``witness`` is ``(variable index, iteration count)`` for the
    non-nilpotent and inconclusive verdicts; ``reason`` names the
    certificate ("cycle") when one was found.
    """

    verdict: Nilpotency
    witness: Optional[tuple[int, int]] = None
    reason: Optional[str] = None


class _Record:
    """An immutable record: its fields are slots that ``__init__`` sets once
    through ``object.__setattr__``, assigning or deleting one raises
    ``AttributeError``, and equality, hash, repr, copy, pickle and ``match``
    read the fields named in ``_fields``.

    The base of ``Derivation``, ``nagata.TorusElement`` and
    ``centralizer.Decomposition``, which check their input; ``_make`` skips
    those checks for a caller that has established them.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields
        # The fields in one C call, for == and hash (the value itself when there is one field).
        cls._key = staticmethod(attrgetter(*cls._fields))

    @classmethod
    def _make(cls, *values):
        # Trusted fast path: ``values`` must already meet __init__'s checks.
        obj = object.__new__(cls)
        for name, value in zip(cls._fields, values):
            object.__setattr__(obj, name, value)
        return obj

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses.
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class Derivation(_Record):
    """A derivation of C[x_1..x_n], stored as the images D(x_i)."""

    __slots__ = ("images", "_common", "_scaled")
    _fields = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if n == 0:
            raise DimensionMismatch("a derivation needs at least one image")
        for img in images:
            if img.dimension != n:
                raise DimensionMismatch(
                    f"image {img!r} has dimension {img.dimension}, expected {n}"
                )
        # derive_terms' input, set up once; not a field, so ==, hash and repr read the images.
        common = lcm(*{img._den for img in images})
        scaled = ((EXPONENT_BITS * i, im._terms, common // im._den) for i, im in enumerate(images))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "_common", common)
        object.__setattr__(self, "_scaled", tuple(s for s in scaled if s[1]))

    @property
    def dimension(self) -> int:
        return len(self.images)

    def apply(self, f: Polynomial) -> Polynomial:
        """D(f); linear in f and satisfies the Leibniz rule.

        One pass over f's terms into one integer accumulator: no partial
        derivative, product or sum is built as a polynomial.
        """
        if f.dimension != self.dimension:
            raise DimensionMismatch(
                f"polynomial dimension {f.dimension} != derivation dimension {self.dimension}"
            )
        terms = derive_terms(f._terms, self._scaled)
        return Polynomial._make(f._dimension, *normalize(f._den * self._common, terms))

    def scaled_by(self, q: Polynomial) -> "Derivation":
        """The derivation q * D."""
        return Derivation(tuple(q * img for img in self.images))

    def is_locally_nilpotent(self, bound: int = DEFAULT_BOUND) -> NilpotencyReport:
        """Check D^m(x_i) = 0 for every generator within the bound.

        Vanishing on the generators is enough for local nilpotency on the
        whole ring (Leibniz).  A generator whose chain revisits an earlier
        iterate can never vanish, which certifies non-nilpotency.  Otherwise
        exhaustion is inconclusive: growing degrees certify nothing, since
        the triangular (hence locally nilpotent) (y^70, z^2, 0) raises the
        degree of the x-chain for 70 steps before it vanishes.
        """
        n = self.dimension
        inconclusive: Optional[NilpotencyReport] = None
        for i in range(n):
            g = Polynomial.variable(i, n)
            seen = {g}
            for step in range(1, bound + 1):
                g = self.apply(g)
                if g.is_zero():
                    break
                if g in seen:
                    return NilpotencyReport(
                        Nilpotency.NOT_NILPOTENT_WITNESS, witness=(i, step), reason="cycle"
                    )
                seen.add(g)
            else:
                inconclusive = NilpotencyReport(Nilpotency.INCONCLUSIVE, witness=(i, bound))
        if inconclusive is not None:
            return inconclusive
        return NilpotencyReport(Nilpotency.LOCALLY_NILPOTENT_UP_TO_BOUND)

    def _series(self, i: int, bound: int) -> list[tuple[int, dict]]:
        """The nonzero iterates D^k(x_i)/k!, k = 0, 1, ..., as pairs (den, terms).

        The series must terminate within the bound, and each ``apply`` stay
        within MAX_SERIES_PAIRS, else BoundExceeded.
        """
        image_terms = sum(len(terms) for _, terms, _ in self._scaled)
        g = Polynomial.variable(i, self.dimension)
        series = [(1, g._terms)]
        k = factorial = 1
        while True:
            if len(g._terms) * image_terms > MAX_SERIES_PAIRS:
                raise BoundExceeded(
                    f"exponential series for variable {i} exceeds the pair budget "
                    f"{MAX_SERIES_PAIRS} at step {k}"
                )
            g = self.apply(g)
            if g.is_zero():
                return series
            if k > bound:
                raise BoundExceeded(
                    f"exponential series for variable {i} did not terminate within {bound} steps"
                )
            series.append((g._den * factorial, g._terms))
            k += 1
            factorial *= k

    def exp_map(self, bound: int = DEFAULT_BOUND) -> tuple[Polynomial, ...]:
        """The exponential automorphism (sum_k D^k(x_i)/k!, ...).

        Each series must terminate within the bound, and each ``apply`` stay
        within MAX_SERIES_PAIRS, else BoundExceeded.  Component i is one
        ``_sum`` of the pairs of D^k(x_i)/k!.
        """
        n = self.dimension
        return tuple(
            Polynomial._make(n, *_sum([(1, s) for s in self._series(i, bound)])) for i in range(n)
        )

    def exp_kernel(self, q: Polynomial, bound: int = DEFAULT_BOUND) -> tuple[Polynomial, ...]:
        """exp(qD) for q in the kernel of D, without the derivation qD.

        The one exponential of a kernel exponent: the command line ``exp``
        and ``standard_objects`` call it, word-file generators (checked when
        built) call its fold directly, and ``formal_flow`` is its fold with
        q = t.  Since D(q) = 0, (qD)^k(x_i) = q^k D^k(x_i), so component i
        is sum_k q^k s_k for D's own series s_k = D^k(x_i)/k!, folded in q
        by Horner, acc = acc*q + s_k.  D's series keeps ``exp_map``'s bound
        and pair budget (for q != 0 it has as many steps as that of qD),
        and each product acc*q must stay within MAX_SERIES_PAIRS, else
        BoundExceeded.  q = 0 gives the identity at once, whether or not
        D's own series ends.

        DomainError if D(q) != 0, and no q outside the kernel has an
        exponential to fall back on: if q != 0 and qD is locally nilpotent,
        then D(q) = 0 (Freudenburg, Algebraic Theory of Locally Nilpotent
        Derivations, 2006, ch. 1).  Let v be the degree function of
        d = qD, v(f) = max {k : d^k(f) != 0}, which is additive on a
        domain, v(fg) = v(f) + v(g).  If d(q) != 0, then v(d(q)) = v(q) - 1,
        but v(q * D(q)) >= v(q); so d(q) = q D(q) = 0, hence D(q) = 0.  The
        series of qD for such a q could only end in BoundExceeded.
        """
        if not self.apply(q).is_zero():
            raise DomainError("exponent must lie in the kernel of the derivation")
        return self._exp_fold(q, bound)

    def _exp_fold(self, q: Polynomial, bound: int) -> tuple[Polynomial, ...]:
        # exp_kernel past its kernel check.  The components take q's dimension,
        # which may exceed D's: extend keeps packed keys, so D's series terms
        # serve unchanged beside formal_flow's t.
        m = q.dimension
        if q.is_zero():
            return tuple(Polynomial.variable(i, m) for i in range(self.dimension))
        q_den, q_terms = q._den, q._terms
        components = []
        for i in range(self.dimension):
            *rest, (den, terms) = self._series(i, bound)
            for step, s in enumerate(reversed(rest), 1):
                if len(terms) * len(q_terms) > MAX_SERIES_PAIRS:
                    raise BoundExceeded(
                        f"exponential series for variable {i} exceeds the pair budget "
                        f"{MAX_SERIES_PAIRS} at step {step}"
                    )
                den, terms = _sum([(1, (den * q_den, mul_terms(terms, q_terms))), (1, s)])
            components.append(Polynomial._make(m, den, terms))
        return tuple(components)

    def formal_flow(self, bound: int = DEFAULT_BOUND) -> tuple[Polynomial, ...]:
        """exp(tD) with t adjoined as a fresh last variable.

        Returns n polynomials in n+1 variables; specializing t to 1
        recovers ``exp_map`` and t to 0 the identity.  D, extended to the
        n+1 variables, kills t, so this is the fold of ``exp_kernel`` with
        q = t: D's own series summed in powers of t, with no lifted
        derivation built and no kernel check to make.
        """
        n = self.dimension
        return self._exp_fold(Polynomial.variable(n, n + 1), bound)


@lru_cache(maxsize=1)
def nagata_derivation() -> Derivation:
    """The triangular derivation with x -> y -> z -> 0 (z d/dy + y d/dx)."""
    return Derivation(
        (
            Polynomial.variable(1, 3),
            Polynomial.variable(2, 3),
            Polynomial.zero(3),
        )
    )


@lru_cache(maxsize=1)
def nagata_invariant() -> Polynomial:
    """The kernel quadric p = xz - y^2/2."""
    x, y, z = (Polynomial.variable(i, 3) for i in range(3))
    return x * z - Fraction(1, 2) * y * y


def kernel_coordinates(f: Polynomial) -> Polynomial:
    """Rewrite f as c(Z, P) with c(z, xz - y^2/2) = f.

    Succeeds iff D(f) = 0 for D = (y, z, 0) and no y-free term x^i z^j
    of f has j < i; c is read off the y-free terms, x^i z^j ->
    Z^(j-i) P^i, since p = xz at y = 0.  This is exact by a lemma that
    does not use the kernel theorem: if g is in ker D and g(x, 0, z) = 0,
    then g = 0.  Otherwise g = y^k h with k >= 1 and y not dividing h,
    and 0 = D(g) = y^(k-1) (k z h + y D(h)) makes y divide k z h, hence
    h.  Apply it to g = f - c(z, p).

    NotInKernelRing names the degree where the division algorithm stops
    (at d = deg_x r, require the x^d coefficient r_d of the remainder r
    to be c_d(z) z^d, subtract c_d(z) p^d, repeat).  Each subtracted
    c(z, p) is killed by D, so D(r) = D(f) and deg_x r >= d_A = deg_x
    D(f); the x^d coefficient of D(r) is z dr_d/dy, so r_d involves y
    iff d = d_A.  At y = 0 a subtracted c(z, p) has only terms with
    j >= i, so a y-free r_d is not divisible by z^d iff f has a y-free
    term x^d z^j with j < d; let d_B be the largest such d.  So the
    algorithm stops at max(d_A, d_B), reporting the y when d_A = d_B.
    """
    d_a = nagata_derivation().apply(f).degree_in(0)  # DimensionMismatch unless f is in (x, y, z)
    c, d_b = _read_off(f._den, f._terms)
    if d_a >= max(d_b, 0):
        raise NotInKernelRing(
            f"the x^{d_a} coefficient involves y, so the input is not in the kernel ring"
        )
    if d_b >= 0:
        raise NotInKernelRing(f"the x^{d_b} coefficient is not divisible by z^{d_b}")
    return Polynomial._make(2, *c)


_Z_SHIFT = 2 * EXPONENT_BITS  # bit offset of z in a packed monomial of (x, y, z)


def _read_off(den: int, terms: dict, lower: int = 0) -> tuple[tuple[int, dict], float]:
    """The canonical pair of c(Z, P) read off the y-free terms of terms / den,
    x^i z^j -> Z^(j-i) P^i with j first lowered by ``lower``, and the largest
    i of a y-free term with j < i (-inf if none), which has no image.

    Exact when those are the y-free terms of c(z, p) z^lower, by the lemma
    in ``kernel_coordinates``; ``centralizer.decompose`` reads q off f2 = a (y + q z)
    with ``lower`` = 1.
    """
    out = {}
    d_b = MINUS_INFINITY
    for key, c in terms.items():
        if not (key >> EXPONENT_BITS) & FIELD_MASK:
            i, j = key & FIELD_MASK, (key >> _Z_SHIFT) - lower
            if j < i:
                d_b = max(d_b, i)
            else:
                out[(j - i) | (i << EXPONENT_BITS)] = c
    return normalize(den, out), d_b


def from_kernel_coordinates(c: Polynomial) -> Polynomial:
    """Evaluate c(Z, P) at Z = z, P = xz - y^2/2, in closed form (``_kernel_pair``)."""
    return Polynomial._make(3, *_kernel_pair(c))


#: The step from the key of x^(b-k) y^(2k) z^(a+b-k) to that of k + 1.
_BINOMIAL_STEP = (2 << EXPONENT_BITS) - 1 - (1 << _Z_SHIFT)


def _kernel_pair(c: Polynomial) -> tuple[int, dict]:
    """The canonical pair of c(z, p), by the binomial theorem and no product.

    p^b = sum_k C(b, k) (-1/2)^k x^(b-k) y^(2k) z^(b-k), so Z^a P^b gives the
    keys x^(b-k) y^(2k) z^(a+b-k), k = 0..b, each with the integer
    c_ab C(b, k) (-1)^k 2^(B-k) over den 2^B, B the largest b.  No key
    repeats, within a term or across terms: k = e_y/2, b = e_x + k and
    a = e_z - e_x, so the dict needs no accumulator, and one normalize
    makes the pair canonical.  The inverse of ``_read_off``.

    DimensionMismatch unless c is in (Z, P); DomainError, before any term
    is built, if some 2b or a + b exceeds MAX_EXPONENT.
    """
    if c.dimension != 2:
        raise DimensionMismatch(f"kernel polynomial must have dimension 2, got {c.dimension}")
    fields = [(key & FIELD_MASK, key >> EXPONENT_BITS, v) for key, v in c._terms.items()]
    top = max((b for _, b, _ in fields), default=0)
    if any(2 * b > MAX_EXPONENT or a + b > MAX_EXPONENT for a, b, _ in fields):
        raise DomainError(f"a product has an exponent above the limit {MAX_EXPONENT}")
    out = {}
    for a, b, v in fields:
        key, coeff = b | ((a + b) << _Z_SHIFT), v << top
        out[key] = coeff
        for k in range(b):
            # C(b, k+1) (-1)^(k+1) 2^(B-k-1) from C(b, k) (-1)^k 2^(B-k); the division is exact.
            key += _BINOMIAL_STEP
            coeff = -coeff * (b - k) // (2 * (k + 1))
            out[key] = coeff
    return normalize(c._den << top, out)
