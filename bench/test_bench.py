"""Tests of the benchmark's own code: python3 -m pytest bench"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cremona3  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from independent import Independent, load_oracle  # noqa: E402

INDEPENDENT = Independent(load_oracle(ROOT))


def closed_form(d):
    return INDEPENDENT.reconstruct(d.alpha, dict(d.w.terms), dict(d.q.terms))


def make(workload, seed):
    if workload == "centralizer-roundtrip":
        return wl.roundtrip_cases(seed)
    if workload == "centralizer-reject":
        return wl.reject_cases(seed, closed_form)
    return wl.tame_cases(seed)


OP_STREAMS = ("centralizer-roundtrip", "centralizer-reject", "tame-words")
RUN_CASE = {
    "centralizer-roundtrip": wl.run_roundtrip,
    "centralizer-reject": wl.run_reject,
    "tame-words": wl.run_tame,
}


def test_self_time_on_a_nested_span_tree():
    # a(0..10) has children b(1..4) and c(5..9); c has child b(6..8).
    spans = [
        (1, "b", 1.0, 4.0, 0, 7),
        (3, "b", 6.0, 8.0, 2, 7),
        (2, "c", 5.0, 9.0, 0, 7),
        (0, "a", 0.0, 10.0, None, 7),
    ]
    totals, nested = tr.fold(spans, per_call=[("a", "b", "n"), ("c", "b", "m")])
    assert totals["a"] == [1, 10.0, 3.0]
    assert totals["b"] == [2, 5.0, 5.0]
    assert totals["c"] == [1, 4.0, 2.0]
    assert nested[("a", "b")] == 2
    assert nested[("c", "b")] == 1


def test_tracer_counts_aliases_once_and_reports_missing_targets(monkeypatch):
    layers = [
        ("autgroup.compose", [("autgroup", None, "compose"), ("autgroup", "PolyMap", "compose")], None, {}),
        ("autgroup.gone", [("autgroup", None, "no_such_function")], None, {}),
    ]
    monkeypatch.setattr(tr, "LAYERS", layers)
    tracer = tr.Tracer()
    tracer.install()
    try:
        f = cremona3.PolyMap.identity(3)
        cremona3.compose(f, f)  # module function calling the method
        f.compose(f)
    finally:
        tracer.uninstall()
    assert tracer.totals["autgroup.compose"][0] == 2
    assert tracer.absent == ["autgroup.no_such_function"]
    assert cremona3.compose is cremona3.autgroup.compose  # restored everywhere
    assert "compose" in vars(cremona3.autgroup.PolyMap)


@pytest.mark.parametrize("workload", OP_STREAMS)
def test_inputs_are_deterministic_per_seed_and_differ_across_seeds(workload):
    assert wl.digest(make(workload, 3)) == wl.digest(make(workload, 3))
    assert wl.digest(make(workload, 3)) != wl.digest(make(workload, 4))


def test_every_reject_input_is_a_non_member_by_the_oracle():
    for case in make("centralizer-reject", 5):
        components = [dict(c.terms) for c in case.payload.f.components]
        commutator = INDEPENDENT.shear_commutator(components)
        assert commutator == case.payload.commutator()
        assert any(commutator)


def test_reconstruct_matches_the_oracle_closed_form():
    for case in make("centralizer-roundtrip", 6)[:42]:
        f = cremona3.reconstruct(case.payload)
        assert tuple(dict(c.terms) for c in f.components) == closed_form(case.payload)


@pytest.mark.parametrize("workload", OP_STREAMS)
def test_a_wrong_expected_outcome_counts_as_failed(workload):
    good = make(workload, 7)[:4]
    wrong = {
        "centralizer-roundtrip": wl.Case(good[0].payload, good[1].payload),
        "centralizer-reject": wl.Case(good[0].payload, None),
        "tame-words": wl.Case(good[0].payload, False),
    }[workload]
    tally = run.Tally()
    run.run_cases(good + [wrong], RUN_CASE[workload], tally)
    assert (tally.attempted, tally.failed) == (5, 1)


def test_an_op_that_raises_counts_as_failed():
    def broken(case):
        raise cremona3.DomainError("boom")

    tally = run.Tally()
    run.run_cases([wl.Case(None, None)] * 3, broken, tally)
    assert (tally.attempted, tally.failed) == (3, 3)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tr.metric_catalogue()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_tame_words_use_all_four_generator_kinds():
    words = [c.payload for c in make("tame-words", 8)[: wl.EXTRA_KINDS_PERIOD]]
    kinds = {type(g).__name__ for w in words for g in w.factors}
    assert kinds == {"AffineGenerator", "TriangularGenerator", "ExponentialGenerator", "ScalarGenerator"}


def test_perturbations_are_the_documented_ones():
    x, y, z = cremona3.variables(3)
    member = cremona3.PolyMap((x, y, z))
    assert wl.perturb(member, "cy", Fraction(2)).components[0] == x + 2 * y
    assert wl.perturb(member, "cz2", Fraction(2)).components[1] == y + 2 * z**2
