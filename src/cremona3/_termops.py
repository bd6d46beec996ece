"""Integer term-map kernels over packed monomials: the inner loops of
every polynomial operation.

A *packed monomial* is one non-negative int holding an exponent vector
in fixed-width bit fields: the exponent of variable ``i`` sits at bit
``EXPONENT_BITS * i``.  Multiplying two monomials is then one integer
addition (Monagan and Pearce, "Sparse polynomial division using a heap",
J. Symb. Comp. 2011).  The top bit of each field is a guard bit: every
valid exponent is at most ``MAX_EXPONENT`` and leaves it clear, so the
sum of two valid fields never carries into the next field, and a result
with any guard bit set is an exponent overflow.  ``mul_terms`` checks
its output for that and raises ``DomainError``; it never returns a
wrong monomial.

A *term map* here is a dict from packed monomials to nonzero ints.  The
rational layer (``exactpoly``) keeps one positive denominator beside it,
and ``normalize`` makes such a pair canonical.

The kernels are ``scale_terms``, ``mul_terms``, ``pow_terms``,
``iadd_scaled_terms`` (sums and differences: scale one side, accumulate
the other into it; ``exactpoly`` is its only caller) and
``derive_terms`` (a derivation applied to a term map).  All return
canonical maps (no zero coefficients) and do not mutate their
arguments, except ``iadd_scaled_terms`` whose name says so.
"""

from functools import lru_cache, reduce
from math import gcd
from operator import or_

from .errors import DomainError

#: Width of one exponent field in a packed monomial, guard bit included.
EXPONENT_BITS = 21

#: Largest exponent a packed monomial holds.
MAX_EXPONENT = (1 << (EXPONENT_BITS - 1)) - 1

#: The bits of one exponent field, guard bit included.
FIELD_MASK = (1 << EXPONENT_BITS) - 1


def pack(exps) -> int:
    """The packed monomial of an exponent vector; DomainError past MAX_EXPONENT."""
    key = 0
    for i, e in enumerate(exps):
        if e > MAX_EXPONENT:
            raise DomainError(f"exponent {e} exceeds the limit {MAX_EXPONENT}")
        key |= e << (EXPONENT_BITS * i)
    return key


def unpack(key: int, dimension: int) -> tuple:
    """The exponent vector of length ``dimension`` of a packed monomial."""
    return tuple((key >> (EXPONENT_BITS * i)) & FIELD_MASK for i in range(dimension))


@lru_cache(maxsize=None)
def _guard_bits(bit_length: int) -> int:
    fields = -(-bit_length // EXPONENT_BITS)
    return sum(1 << (EXPONENT_BITS * i + EXPONENT_BITS - 1) for i in range(fields))


def _check_exponents(terms) -> None:
    # DomainError if a key of ``terms`` has an overflowed field.
    bits = reduce(or_, terms, 0)
    if bits & _guard_bits(bits.bit_length()):
        raise DomainError(f"a product has an exponent above the limit {MAX_EXPONENT}")


def normalize(den: int, terms: dict):
    """The canonical pair (den / g, terms / g) for g = gcd(den, coefficients)."""
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return den // g, {e: c // g for e, c in terms.items()}
    return den, terms


def scale_terms(a, c):
    if not c:
        return {}
    return {e: c * v for e, v in a.items()}


def mul_terms(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # A monomial times a polynomial: the keys stay distinct.
        ((ea, ca),) = a.items()
        out = {ea + eb: ca * cb for eb, cb in b.items()}
    else:
        acc = {}
        get = acc.get
        b_items = tuple(b.items())
        for ea, ca in a.items():
            for eb, cb in b_items:
                e = ea + eb
                acc[e] = get(e, 0) + ca * cb
        out = {e: c for e, c in acc.items() if c}
    _check_exponents(out)
    return out


def _check_power(a, k) -> None:
    # DomainError if a ** k overflows, before any squaring grows the coefficients:
    # the largest exponent of a variable in a^k is k times its largest in a.
    bits = reduce(or_, a, 0).bit_length()
    top = max(((e >> s) & FIELD_MASK for e in a for s in range(0, bits, EXPONENT_BITS)), default=0)
    if k * top > MAX_EXPONENT:
        raise DomainError(f"a product has an exponent above the limit {MAX_EXPONENT}")


def pow_terms(a, k):
    """a ** k by binary powering; ``{0: 1}`` for k = 0.

    Needs no gcd: by Gauss's lemma the content of a^k is content(a)^k,
    so a canonical pair (den, a) has the canonical power (den ** k, a ** k).
    An exponent overflow raises DomainError before any product (``_check_power``).
    """
    _check_power(a, k)
    out = {0: 1}
    while k:
        if k & 1:
            out = mul_terms(out, a)
        k >>= 1
        if k:
            a = mul_terms(a, a)
    return out


def iadd_scaled_terms(acc, src, c):
    """acc += c * src, in place; acc stays canonical."""
    if not c:
        return
    get = acc.get
    for e, v in src.items():
        nv = get(e, 0) + c * v
        if nv:
            acc[e] = nv
        else:
            del acc[e]


def derive_terms(a, images):
    """sum_i m_i * image_i * d(a)/dx_i for ``images`` = [(shift_i, image_i, m_i)].

    One accumulator; the walk over ``a`` is innermost, so a monomial image
    costs one shift, mask and add per term.  DomainError on overflow.
    """
    acc = {}
    get = acc.get
    for shift, image, m in images:
        for k, v in image.items():
            offset, scale = k - (1 << shift), m * v
            for key, c in a.items():
                e = (key >> shift) & FIELD_MASK
                if e:
                    shifted = key + offset
                    acc[shifted] = get(shifted, 0) + c * e * scale
    out = {e: c for e, c in acc.items() if c}
    _check_exponents(out)
    return out
