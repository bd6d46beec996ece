"""Independent brute-force polynomial arithmetic used as a test oracle.

A polynomial is a plain list of (coefficient, exponent-tuple) pairs,
possibly with repeats; ``normalize`` merges them into a canonical dict.
Everything here is deliberately naive (nested loops, no sparsity tricks)
and shares no code with the library, so expected values derived from it
are computed along an independent path.
"""

from fractions import Fraction


def normalize(terms):
    acc = {}
    for coeff, exps in terms:
        exps = tuple(exps)
        acc[exps] = acc.get(exps, Fraction(0)) + Fraction(coeff)
    return {e: c for e, c in acc.items() if c}


def o_add(a, b):
    return list(a) + list(b)


def o_neg(a):
    return [(-Fraction(c), e) for c, e in a]


def o_mul(a, b):
    out = []
    for ca, ea in a:
        for cb, eb in b:
            out.append((Fraction(ca) * Fraction(cb), tuple(x + y for x, y in zip(ea, eb))))
    return out


def o_one(dimension):
    return [(Fraction(1), (0,) * dimension)]


def o_pow(a, exponent, dimension):
    result = o_one(dimension)
    for _ in range(exponent):
        result = o_mul(result, a)
    return result


def o_substitute(f, images, target_dimension):
    out = []
    for coeff, exps in f:
        term = [(Fraction(coeff), (0,) * target_dimension)]
        for index, e in enumerate(exps):
            term = o_mul(term, o_pow(images[index], e, target_dimension))
        out.extend(term)
    return out


def o_partial(f, index):
    out = []
    for coeff, exps in f:
        e = exps[index]
        if e:
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            out.append((Fraction(coeff) * e, lowered))
    return out


def o_total_degree(f):
    merged = normalize(f)
    if not merged:
        return float("-inf")
    return max(sum(e) for e in merged)


def from_poly(p):
    """Convert a library polynomial into oracle term-list form."""
    return [(c, e) for e, c in p.terms.items()]


def as_dict(p):
    """Canonical dict of a library polynomial, for comparison."""
    return dict(p.terms)


def coefficient_of_power(p, index, power):
    """The coefficient of x_index^power in the library polynomial p, as terms
    {exponents: coefficient} with that exponent set to 0, read off ``p.terms``."""
    return {e[:index] + (0,) + e[index + 1 :]: c for e, c in p.terms.items() if e[index] == power}


def divided_by_power(p, index, power):
    """The terms of the exact quotient p / x_index^power, read off ``p.terms``,
    or None when some term of p has x_index to a lower power."""
    terms = p.terms
    if any(e[index] < power for e in terms):
        return None
    return {e[:index] + (e[index] - power,) + e[index + 1 :]: c for e, c in terms.items()}
