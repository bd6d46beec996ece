"""Output checks along a path that shares no code with the package.

Arithmetic comes from the naive term-list oracle in ``tests/oracle.py``
(nested loops over (coefficient, exponents) pairs).  The helpers here
only add normalisation between steps, so intermediate lists stay the
size of canonical polynomials.  Package objects are read only through
their public ``terms`` view.
"""

from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path


def load_oracle(root: Path):
    spec = importlib.util.spec_from_file_location("cremona3_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Independent:
    """Closed forms and the shear commutator, computed with the oracle."""

    def __init__(self, oracle):
        self.o = oracle
        x, y, z = ([(Fraction(1), tuple(int(i == j) for j in range(3)))] for i in range(3))
        self.x, self.y, self.z = x, y, z
        # p = xz - y^2/2 and h' = exp(D) = (x + y + z/2, y + z, z)
        self.p = self.norm(self.o.o_add(self.mul(x, z), self.scale(self.mul(y, y), Fraction(-1, 2))))
        self.h_prime = (
            self.norm(x + y + self.scale(z, Fraction(1, 2))),
            self.norm(y + z),
            z,
        )

    def norm(self, terms):
        return [(c, e) for e, c in self.o.normalize(terms).items()]

    def mul(self, a, b):
        return self.norm(self.o.o_mul(a, b))

    def scale(self, a, s):
        return self.norm(self.o.o_mul(a, [(Fraction(s), (0, 0, 0))]))

    def power(self, a, k):
        result = self.o.o_one(3)
        for _ in range(k):
            result = self.mul(result, a)
        return result

    def substitute(self, f, images):
        """f(images) with per-variable power caches."""
        caches = [[self.o.o_one(3)] for _ in images]
        out = []
        for coeff, exps in f:
            term = [(Fraction(coeff), (0, 0, 0))]
            for i, e in enumerate(exps):
                while len(caches[i]) <= e:
                    caches[i].append(self.mul(caches[i][-1], images[i]))
                term = self.mul(term, caches[i][e])
            out.extend(term)
        return self.norm(out)

    def reconstruct(self, alpha, w, q):
        """alpha*(x + q*y + q^2*z/2 + w, y + q*z, z), q = c(z, xz - y^2/2).

        ``w`` and ``q`` are term dicts: w over (x, y, z), q over (Z, P).
        """
        q_xyz = []
        for (a, b), c in q.items():
            q_xyz.extend(self.scale(self.mul(self.power(self.z, a), self.power(self.p, b)), c))
        q_xyz = self.norm(q_xyz)
        w_terms = [(c, e) for e, c in w.items()]
        first = self.x + self.mul(q_xyz, self.y) + self.scale(self.mul(self.mul(q_xyz, q_xyz), self.z), Fraction(1, 2)) + w_terms
        second = self.y + self.mul(q_xyz, self.z)
        return tuple(self.o.normalize(self.scale(comp, alpha)) for comp in (first, second, self.z))

    def shear_commutator(self, components):
        """f o h' - h' o f for a map given by three term dicts."""
        f = [[(c, e) for e, c in comp.items()] for comp in components]
        f_after = [self.substitute(comp, self.h_prime) for comp in f]
        # h' is linear, so h' o f = (f1 + f2 + f3/2, f2 + f3, f3).
        h_after = (
            f[0] + f[1] + self.scale(f[2], Fraction(1, 2)),
            f[1] + f[2],
            f[2],
        )
        return tuple(
            self.o.normalize(self.o.o_add(a, self.o.o_neg(b))) for a, b in zip(f_after, h_after)
        )
