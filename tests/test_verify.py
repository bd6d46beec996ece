"""The verification suite can fail: one injected fault per check.

Each case replaces one name inside ``cremona3.verify`` with a wrong
variant and runs one check of the suite, which must report FAIL with the
detail of the comparison that caught the fault.
"""

import random
from fractions import Fraction

import pytest

import cremona3.verify as verify
from cremona3 import Decomposition, Derivation, PolyMap, Polynomial, TorusElement, variables

X, Y, Z = variables(3)
ORIGINAL = {
    name: getattr(verify, name)
    for name in (
        "compose",
        "format_polynomial",
        "kernel_coordinates",
        "kernel_shear",
        "reconstruct",
        "standard_objects",
        "torus_conjugate",
    )
}


def _shifted(m: PolyMap) -> PolyMap:
    return PolyMap((m.components[0] + 1,) + m.components[1:])


def _doubled_p():
    objs = ORIGINAL["standard_objects"]()
    return objs._replace(p=objs.p * 2)


def _zero_derivation():
    return ORIGINAL["standard_objects"]()._replace(D=Derivation((Polynomial.zero(3),) * 3))


def _reconstruct_doubled(d):
    return ORIGINAL["reconstruct"](Decomposition(d.alpha, d.w, d.q * 2))


def _restless_formatter():
    # Same value, different text on every call.
    calls = []

    def fmt(p, names=None):
        calls.append(p)
        return ORIGINAL["format_polynomial"](p, names) + " " * len(calls)

    return fmt


FAULTS = [
    ("nagata-formula", "standard_objects", lambda: _doubled_p, "got ("),
    ("kernel-ring", "kernel_coordinates", lambda: lambda f: ORIGINAL["kernel_coordinates"](f) + 1, "round trip failed: "),
    ("centralizer-decomposition", "reconstruct", lambda: _reconstruct_doubled, "map round trip failed for h"),
    ("semidirect-normality", "reconstruct", lambda: _reconstruct_doubled, "map round trip failed after conjugating a kernel shear"),
    ("torus-characters", "torus_conjugate", lambda: lambda t, c: ORIGINAL["torus_conjugate"](t, c) * 2, "k=0, beta="),
    ("conjugation-chain", "compose", lambda: lambda f, g: ORIGINAL["compose"](g, f), "conjugation equals exp((p+z)D): component "),
    ("flow-commutation", "reconstruct", lambda: lambda d: PolyMap((X + Y, Y, Z)), "map (x + y, y, z) does not commute with the flow"),
    ("group-laws", "compose", lambda: lambda f, g: _shifted(ORIGINAL["compose"](f, g)), "right inverse failed for a word of length"),
    ("parser-roundtrip", "format_polynomial", _restless_formatter, "formatter is not deterministic"),
    ("negative-controls", "standard_objects", lambda: _zero_derivation, "exp(2zD) compared equal to exp(zD)"),
]


def test_every_check_has_a_fault():
    assert sorted(check for check, *_ in FAULTS) == sorted(name for name, _ in verify.SUITE)


@pytest.mark.parametrize("check, target, make_fault, prefix", FAULTS, ids=[f[0] for f in FAULTS])
def test_injected_fault_fails_the_check(monkeypatch, check, target, make_fault, prefix):
    monkeypatch.setattr(verify, target, make_fault())
    runner = dict(verify.SUITE)[check]
    result = runner(random.Random(f"0:{check}"), verify.QUICK)
    assert result.passed is False
    assert result.detail.startswith(prefix), result.detail


def test_character_failure_compares_the_conjugated_map(monkeypatch):
    # A map that is not torus-equivariant: the exponent check passes, the map check does not.
    monkeypatch.setattr(verify, "kernel_shear", lambda c: _shifted(ORIGINAL["kernel_shear"](c)))
    detail = verify._character_failure([(0, TorusElement(Fraction(2), Fraction(3)), Fraction(1))])
    assert detail == "k=0, beta=2, gamma=3, s=1: t^-1 o u o t is not the map of the expected exponent"
