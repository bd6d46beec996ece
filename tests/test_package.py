"""The package's import surface, and the immutable records it exports."""

import ast
import copy
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import cremona3
from cremona3 import Decomposition, Derivation, TorusElement, variables

X, Y, Z = variables(3)
P = variables(2)[1]

#: Every name ``cremona3`` exports, by the module that defines it.
EXPORTS = {
    "autgroup": (
        "AffineGenerator",
        "AutWord",
        "ExponentialGenerator",
        "ScalarGenerator",
        "PolyMap",
        "TriangularGenerator",
        "commutes",
        "compose",
        "parse_poly_map",
    ),
    "centralizer": ("Decomposition", "decompose", "is_in_centralizer", "reconstruct"),
    "derivation": (
        "DEFAULT_BOUND",
        "Derivation",
        "KERNEL_VARIABLE_NAMES",
        "Nilpotency",
        "NilpotencyReport",
        "from_kernel_coordinates",
        "kernel_coordinates",
        "nagata_derivation",
        "nagata_invariant",
    ),
    "errors": (
        "ArityMismatch",
        "BoundExceeded",
        "Cremona3Error",
        "DimensionMismatch",
        "DomainError",
        "IndexOutOfRange",
        "InvalidGenerator",
        "MalformedCentralizerElement",
        "NotInCentralizer",
        "NotInKernelRing",
        "NotMonomialInK",
        "ParseError",
        "UnknownVariable",
    ),
    "exactpoly": ("MINUS_INFINITY", "Polynomial", "variables"),
    "grammar": ("format_map", "format_polynomial", "format_rational", "parse_map", "parse_polynomial"),
    "nagata": (
        "StandardObjects",
        "TorusElement",
        "character_lambda",
        "is_in_K",
        "k_monomial",
        "kernel_shear",
        "lambda_degree",
        "standard_objects",
        "torus_conjugate",
    ),
    "verify": ("verify_theorem_identities",),
}


def test_every_exported_name_is_the_object_its_module_binds():
    for module_name, names in EXPORTS.items():
        module = importlib.import_module(f"cremona3.{module_name}")
        for name in names:
            assert getattr(cremona3, name) is getattr(module, name), name
            assert (name in dir(cremona3)) == (module_name != "verify"), name
    with pytest.raises(AttributeError, match=r"^module 'cremona3' has no attribute 'no_such_name'$"):
        cremona3.no_such_name


def test_a_star_import_binds_every_name_but_the_suite():
    # verify_theorem_identities is bound on first use, so the star-import skips it.
    namespace = {}
    exec("from cremona3 import *", namespace)
    for module_name, names in EXPORTS.items():
        for name in names:
            assert (name in namespace) == (module_name != "verify"), name


@pytest.mark.parametrize(
    "record, same, other, text",
    [
        (
            Derivation((X, Y, Z)),
            Derivation([X, Y, Z]),
            Derivation((Y, Z, X)),
            "Derivation(images=(Polynomial(3, 'x'), Polynomial(3, 'y'), Polynomial(3, 'z')))",
        ),
        (
            TorusElement(2, 3),
            TorusElement(Fraction(2), 3),
            TorusElement(3, 2),
            "TorusElement(beta=Fraction(2, 1), gamma=Fraction(3, 1))",
        ),
        (
            Decomposition(2, Z, P),
            Decomposition(Fraction(2), Z, P),
            Decomposition(2, Z, 2 * P),
            "Decomposition(alpha=Fraction(2, 1), w=Polynomial(3, 'z'), q=Polynomial(2, 'x2'))",
        ),
    ],
    ids=["Derivation", "TorusElement", "Decomposition"],
)
def test_a_record_is_an_immutable_value(record, same, other, text):
    # Value semantics: equality and hash on the fields, the field repr,
    # copies and pickles, positional patterns, and no assignment.
    assert record == same and hash(record) == hash(same)
    assert record != other and record != record._values()
    assert repr(record) == text
    match record:
        case Derivation(first) | TorusElement(first) | Decomposition(first):
            assert first == getattr(record, record._fields[0])
        case _:
            pytest.fail("no positional pattern matched")
    assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    field = record._fields[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
        setattr(record, field, getattr(other, field))
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
        delattr(record, field)
    assert record == same


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize: milliseconds of every cold start.
    importers = set()
    for path in Path(cremona3.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                modules = {node.module}
            else:
                continue
            if "dataclasses" in modules:
                importers.add(path.stem)
    assert importers == set()
