"""Centralizer membership, the constructive splitting, and the identity chain."""

import random
from fractions import Fraction

import pytest

from cremona3 import (
    Decomposition,
    DimensionMismatch,
    MalformedCentralizerElement,
    NotInCentralizer,
    PolyMap,
    Polynomial,
    compose,
    decompose,
    is_in_H,
    is_in_centralizer,
    reconstruct,
    standard_objects,
    variables,
    verify_theorem_identities,
)
from cremona3.verify import random_decomposition

X, Y, Z = variables(3)
HALF = Fraction(1, 2)
OBJS = standard_objects()
ZERO_W = Polynomial.zero(3)
ZERO_Q = Polynomial.zero(2)
Q_P = Polynomial(2, {(0, 1): 1})  # the kernel coordinate P
Q_Z = Polynomial(2, {(1, 0): 1})  # the kernel coordinate Z


# -- membership ----------------------------------------------------------------


def test_nagata_is_in_the_centralizer():
    assert is_in_centralizer(OBJS.h)


def test_scalars_are_in_the_centralizer():
    assert is_in_centralizer(PolyMap((5 * X, 5 * Y, 5 * Z)))


def test_shift_of_x_by_y_is_not():
    assert not is_in_centralizer(PolyMap((X + Y, Y, Z)))


def test_membership_requires_dimension_three():
    with pytest.raises(DimensionMismatch):
        is_in_centralizer(PolyMap.identity(2))


# -- decompose ----------------------------------------------------------------


def test_decompose_nagata():
    d = decompose(OBJS.h)
    assert d == Decomposition(Fraction(1), ZERO_W, Q_P)


def test_decompose_scalar_with_shift():
    d = decompose(PolyMap((2 * X + 2 * Z ** 3, 2 * Y, 2 * Z)))
    assert d == Decomposition(Fraction(2), Z ** 3, ZERO_Q)


def test_decompose_shift_and_shear():
    f = PolyMap((X + Z * Y + HALF * Z ** 3 + Z, Y + Z ** 2, Z))
    d = decompose(f)
    assert d == Decomposition(Fraction(1), Z, Q_Z)
    assert reconstruct(d) == f


def test_decompose_rejects_noncommuting_maps():
    with pytest.raises(NotInCentralizer):
        decompose(PolyMap((X + Y, Y, Z)))
    with pytest.raises(NotInCentralizer):
        decompose(PolyMap((X + Y ** 2, Y, Z)))


def test_decompose_flags_commuting_non_automorphisms():
    # The zero map and constant maps commute with the shear but are not
    # automorphisms; extraction must fail loudly, never silently.
    with pytest.raises(MalformedCentralizerElement):
        decompose(PolyMap((Polynomial.zero(3),) * 3))
    with pytest.raises(MalformedCentralizerElement):
        decompose(PolyMap((Polynomial.one(3), Polynomial.zero(3), Polynomial.zero(3))))


# -- reconstruct ----------------------------------------------------------------


def test_reconstruct_identity():
    assert reconstruct(Decomposition(Fraction(1), ZERO_W, ZERO_Q)).is_identity()


def test_reconstruct_nagata():
    assert reconstruct(Decomposition(Fraction(1), ZERO_W, Q_P)) == OBJS.h


def test_reconstruct_scalar_with_shift():
    m = reconstruct(Decomposition(Fraction(2), Z ** 3, ZERO_Q))
    assert m == PolyMap((2 * X + 2 * Z ** 3, 2 * Y, 2 * Z))


def test_reconstructed_maps_commute_with_the_shear():
    rng = random.Random(53)
    for _ in range(10):
        assert is_in_centralizer(reconstruct(random_decomposition(rng)))


def test_decomposition_validates_components():
    with pytest.raises(MalformedCentralizerElement):
        Decomposition(Fraction(0), ZERO_W, ZERO_Q)
    with pytest.raises(MalformedCentralizerElement):
        Decomposition(Fraction(1), Y, ZERO_Q)


# -- round trips ----------------------------------------------------------------


def test_round_trips_on_random_triples():
    rng = random.Random(59)
    for _ in range(25):
        d = random_decomposition(rng)
        f = reconstruct(d)
        assert decompose(f) == d
        assert reconstruct(decompose(f)) == f


def test_shear_removal_leaves_a_pure_shift():
    # The intermediate step behind decompose: for a commuting map with
    # unit scalar, undoing the kernel shear leaves exactly (x + w, y, z).
    from cremona3 import from_kernel_coordinates

    rng = random.Random(67)
    for _ in range(10):
        sample = random_decomposition(rng)
        d = Decomposition(Fraction(1), sample.w, sample.q)
        f = reconstruct(d)
        undo = PolyMap(OBJS.D.scaled_by(-from_kernel_coordinates(d.q)).exp_map())
        assert compose(f, undo) == PolyMap((X + d.w, Y, Z))


# -- H membership ----------------------------------------------------------------


def test_nagata_is_in_H():
    assert is_in_H(OBJS.h)


def test_exp_zD_is_not_in_H():
    exp_z = PolyMap(OBJS.D.scaled_by(Z).exp_map())
    assert is_in_centralizer(exp_z)
    assert not is_in_H(exp_z)


def test_identity_and_scalars_are_in_H():
    assert is_in_H(PolyMap.identity(3))
    assert is_in_H(PolyMap((-3 * X, -3 * Y, -3 * Z)))


def test_shifts_are_not_in_H():
    assert not is_in_H(PolyMap((X + Z ** 3, Y, Z)))


# -- the identity chain ------------------------------------------------------------


def test_theorem_identities_all_pass():
    checks = verify_theorem_identities()
    assert all(check.passed for check in checks)
    assert len(checks) == 5
    assert all(check.detail == "" for check in checks)


def test_conjugation_identity_expansion():
    # Both sides of the displayed identity expand to the same x-component
    # x + (p+z)y + (p+z)^2 z / 2.
    s = OBJS.p + Z
    expected_x = X + s * Y + HALF * s ** 2 * Z
    t_plus = PolyMap((X + 1, Y, Z))
    t_minus = PolyMap((X - 1, Y, Z))
    conjugated = compose(t_minus, compose(OBJS.h, t_plus))
    assert conjugated.components[0] == expected_x


def test_scaled_exponential_differs_at_two():
    exp_z = PolyMap(OBJS.D.scaled_by(Z).exp_map())
    exp_2z = PolyMap(OBJS.D.scaled_by(2 * Z).exp_map())
    assert exp_2z.components[0] == X + 2 * Z * Y + 2 * Z ** 3
    assert exp_2z != exp_z


# -- flow commutation ---------------------------------------------------------------


def test_sampled_centralizer_elements_commute_with_the_formal_flow():
    rng = random.Random(61)
    t = Polynomial.variable(3, 4)
    flow = PolyMap(tuple(OBJS.D.formal_flow()) + (t,))
    for _ in range(10):
        f = reconstruct(random_decomposition(rng))
        lifted = PolyMap(tuple(c.extend(1) for c in f.components) + (t,))
        assert compose(lifted, flow) == compose(flow, lifted)
