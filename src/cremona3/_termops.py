"""Term-map kernels: the inner loops of every polynomial operation.

A *term map* is a dict from exponent tuples (fixed length, non-negative
ints) to nonzero ``Fraction`` coefficients.  This module is the package's
one kernel implementation, in pure Python; ``exactpoly`` calls these six
functions directly.

All functions return canonical maps (no zero coefficients) and do not
mutate their arguments, except ``iadd_scaled_terms`` whose name says so.
"""

from fractions import Fraction
from operator import add as _int_add


def add_terms(a, b):
    if not b:
        return dict(a)
    if not a:
        return dict(b)
    out = dict(a)
    for e, c in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = c
        else:
            s = cur + c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def sub_terms(a, b):
    out = dict(a)
    for e, c in b.items():
        cur = out.get(e)
        if cur is None:
            out[e] = -c
        else:
            s = cur - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def neg_terms(a):
    return {e: -c for e, c in a.items()}


def scale_terms(a, c):
    if not c:
        return {}
    return {e: c * v for e, v in a.items()}


def mul_terms(a, b):
    # Accumulates raw numerator/denominator pairs and normalizes once per
    # output monomial: one gcd per result term instead of one per product.
    if not a or not b:
        return {}
    acc = {}
    b_items = [(e, c.numerator, c.denominator) for e, c in b.items()]
    for ea, ca in a.items():
        na = ca.numerator
        da = ca.denominator
        for eb, nb, db in b_items:
            e = tuple(map(_int_add, ea, eb))
            n = na * nb
            d = da * db
            cur = acc.get(e)
            if cur is None:
                acc[e] = [n, d]
            else:
                cur[0] = cur[0] * d + n * cur[1]
                cur[1] = cur[1] * d
    out = {}
    for e, (n, d) in acc.items():
        if n:
            out[e] = Fraction(n, d)
    return out


def iadd_scaled_terms(acc, src, c):
    """acc += c * src, in place; acc stays canonical."""
    if not c:
        return
    for e, v in src.items():
        cur = acc.get(e)
        nv = c * v if cur is None else cur + c * v
        if nv:
            acc[e] = nv
        elif cur is not None:
            del acc[e]
