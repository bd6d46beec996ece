"""Exact symbolic computation for polynomial automorphisms of affine 3-space.

The package computes with locally nilpotent derivations and their
exponential automorphisms over exact rational coefficients, including
the Nagata map, and decomposes the centralizer of the degree-one shear
exp(D) into scalar, shift and kernel-shear factors.

Polynomial arithmetic runs on one pure-Python kernel module
(``cremona3._termops``): a polynomial is a positive integer denominator
plus integer coefficients keyed by packed monomials, and
``Polynomial.terms`` shows it as ``fractions.Fraction`` coefficients.
"""

from .autgroup import (
    AffineGenerator,
    AutWord,
    ExponentialGenerator,
    PolyMap,
    ScalarGenerator,
    TriangularGenerator,
    commutes,
    compose,
    format_word,
    parse_poly_map,
    parse_word,
)
from .centralizer import (
    Decomposition,
    decompose,
    is_in_centralizer,
    reconstruct,
)
from .derivation import (
    DEFAULT_BOUND,
    Derivation,
    KERNEL_VARIABLE_NAMES,
    Nilpotency,
    NilpotencyReport,
    from_kernel_coordinates,
    kernel_coordinates,
    nagata_derivation,
    nagata_invariant,
)
from .errors import (
    ArityMismatch,
    BoundExceeded,
    Cremona3Error,
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    InvalidGenerator,
    MalformedCentralizerElement,
    NotInCentralizer,
    NotInKernelRing,
    NotMonomialInK,
    ParseError,
    UnknownVariable,
)
from .exactpoly import (
    MINUS_INFINITY,
    Polynomial,
    variables,
)
from .grammar import (
    format_map,
    format_polynomial,
    format_rational,
    parse_map,
    parse_polynomial,
)
from .nagata import (
    StandardObjects,
    TorusElement,
    character_lambda,
    is_in_K,
    k_monomial,
    kernel_shear,
    lambda_degree,
    standard_objects,
    torus_conjugate,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The suite module is imported on first use only: computing needs none
    # of it, and importing it eagerly would slow every cold start.
    if name == "verify_theorem_identities":
        from .verify import verify_theorem_identities

        return verify_theorem_identities
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
