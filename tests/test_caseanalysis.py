"""Multiset enumeration, contraction feasibility, and the case audit."""

from __future__ import annotations

import pytest

from bipmoore.caseanalysis import (
    contraction_diameter_at_most_2,
    contraction_feasibility,
    enumerate_multisets,
    nonexistence_case_audit,
)
from bipmoore.cli import main
from bipmoore.structure import rings_join
from oracles import count_multisets_oracle


def test_pairs_summing_to_41():
    pairs = enumerate_multisets(41, 5, 36, 2, 2)
    assert len(pairs) == 16
    assert pairs[0] == (5, 36)
    assert pairs[-1] == (20, 21)
    assert all(a + b == 41 for a, b in pairs)


def test_single_composition():
    assert enumerate_multisets(10, 5, 36, 2, 8) == [(5, 5)]


def test_full_enumeration_frozen_count():
    full = enumerate_multisets(41, 5, 36, 2, 8)
    assert len(full) == 363  # regression constant, matched by the oracle below
    assert len(set(full)) == len(full)
    assert all(tuple(sorted(parts)) == parts for parts in full)
    assert all(sum(parts) == 41 for parts in full)


@pytest.mark.parametrize(
    "params",
    [
        (41, 5, 36, 2, 8),
        (29, 5, 24, 2, 5),
        (15, 5, 10, 2, 3),
        (50, 3, 20, 2, 10),
        (23, 1, 23, 1, 23),
    ],
)
def test_enumeration_matches_counting_oracle(params):
    total, lo, hi, nmin, nmax = params
    assert len(enumerate_multisets(*params)) == count_multisets_oracle(total, lo, hi, nmin, nmax)


def test_enumeration_infeasible_and_invalid():
    assert enumerate_multisets(7, 5, 36, 2, 8) == []
    with pytest.raises(ValueError):
        enumerate_multisets(4, 5, 36, 2, 8)
    with pytest.raises(ValueError):
        enumerate_multisets(10, 5, 36, 0, 8)


def test_contraction_edges():
    assert not rings_join(5, 36, None)
    assert not any(rings_join(a, b, None) for a, b in ((8, 12), (8, 21), (12, 21)))
    assert not contraction_diameter_at_most_2((8, 12, 21))
    assert rings_join(5, 10, None) and not rings_join(5, 26, None) and not rings_join(10, 26, None)
    assert not contraction_diameter_at_most_2((5, 10, 26))
    assert not contraction_diameter_at_most_2((26, 10, 5))  # parts in any order
    assert rings_join(5, 5, 1)  # equal parts: quotient 1
    assert contraction_diameter_at_most_2((5, 5))
    # a path 5 - 10 - 20: the ends meet through the middle part
    assert contraction_diameter_at_most_2((5, 10, 20), ratio_cap=2)


def test_contraction_ratio_cap():
    assert rings_join(5, 30, None) and contraction_diameter_at_most_2((5, 30), ratio_cap=None)
    assert not rings_join(5, 30, 4) and not contraction_diameter_at_most_2((5, 30), ratio_cap=4)
    assert rings_join(5, 20, 4) and not rings_join(5, 25, 4)


def test_feasibility_default_instance_empty():
    survey = contraction_feasibility()
    assert survey.feasible == ()
    assert survey.examined == 363
    assert survey.ratio_cap == 4


def test_feasibility_uncapped_counterexample():
    survey = contraction_feasibility(ratio_cap=None)
    assert survey.feasible == ((5, 6, 30),)


def test_feasibility_cap_monotone():
    capped = set(contraction_feasibility(ratio_cap=4).feasible)
    loose = set(contraction_feasibility(ratio_cap=None).feasible)
    assert capped <= loose
    small_capped = set(contraction_feasibility(15, 5, 10, 2, 3, ratio_cap=2).feasible)
    small_loose = set(contraction_feasibility(15, 5, 10, 2, 3, ratio_cap=None).feasible)
    assert small_capped <= small_loose


def test_feasibility_small_instance():
    survey = contraction_feasibility(15, 5, 10, 2, 3)
    assert set(survey.feasible) == {(5, 5, 5), (5, 10)}
    assert survey.examined == 4


def test_audit_degree7_confirms():
    report = nonexistence_case_audit(7)
    assert report.verdict == "nonexistence-confirmed"
    assert report.all_pass
    assert report.moore_bound == 86
    assert report.order == 82
    assert report.implied_optimal_order == 80
    by_name = {e.name: e for e in report.entries}
    assert by_name["gamma2_spanning"].values["remainder"] == 82 % 5 == 2
    assert by_name["gamma0_spanning"].values["remainder"] == 82 % 8 == 2
    single = by_name["gamma1_spanning_single"]
    assert single.values["m"] == 41 and single.values["solutions"] == 0
    assert by_name["gamma1_spanning_multi"].values["examined"] == 363
    assert by_name["gamma2_gamma1_span"].values["combined"] == 70
    mixed = by_name["gamma2_gamma1_gamma0_span"].values
    assert mixed["forcedModuli"] == [12]
    assert mixed["forcedComponentOrder"] == 24
    assert mixed["gamma2Candidates"] == [10]
    assert sorted(mixed["splits"]) == [(24, 48), (48, 24)]
    assert mixed["perSideRequired"] == [24, 24]


def test_audit_other_degree_inconclusive():
    report = nonexistence_case_audit(6)
    assert report.verdict == "inconclusive"
    assert report.implied_optimal_order is None
    statuses = {e.name: e.status for e in report.entries}
    assert statuses["gamma2_gamma1_span"] == "out-of-scope"
    assert statuses["optimality"] == "out-of-scope"
    # the generic arithmetic entries still run
    assert statuses["gamma2_spanning"] == "pass"
    assert statuses["gamma1_spanning_single"] == "pass"


def test_audit_budget_stop_claims_no_optimum(capsys):
    """A cap search stopped by its node budget refutes nothing, so the audit
    states no optimal order, its optimality entry does not pass and the
    command exits with the budget status."""
    report = nonexistence_case_audit(7, node_budget=10)
    assert report.verdict == "inconclusive"
    assert report.exhausted is False
    assert report.implied_optimal_order is None
    payload = report.to_dict()
    assert payload["impliedOptimalOrder"] is None
    optimality = {e["name"]: e for e in payload["entries"]}["optimality"]
    assert optimality["status"] == "fail"
    text = report.to_text()
    assert "implied optimum" not in text
    assert "[FAIL        ] optimality" in text
    assert main(["audit", "--d", "7", "--budget", "10"]) == 3
    capsys.readouterr()
    full = nonexistence_case_audit(7)
    assert full.exhausted is True
    assert full.implied_optimal_order == 80


def test_audit_validation():
    with pytest.raises(ValueError):
        nonexistence_case_audit(3)


def test_audit_serialization():
    report = nonexistence_case_audit(7)
    payload = report.to_dict()
    assert payload["verdict"] == "nonexistence-confirmed"
    assert payload["mooreBound"] == 86
    assert len(payload["entries"]) == 9
    text = report.to_text()
    assert "86" in text and "82" in text and "80" in text


def test_audit_provenance():
    """Entries whose verdict rests on the two-step reach constants or on the
    known degree-7 facts are imported; every other entry is computed, the
    out-of-scope ones too, since they read no constant."""
    imported = {"gamma2_gamma1_span", "gamma2_gamma0_span", "gamma2_gamma1_gamma0_span", "optimality"}
    report7 = nonexistence_case_audit(7)
    assert {e.name: e.provenance for e in report7.entries} == {
        "gamma2_spanning": "computed",
        "gamma1_spanning_single": "computed",
        "gamma1_spanning_multi": "computed",
        "gamma0_spanning": "computed",
        "gamma2_gamma1_span": "imported",
        "gamma2_gamma0_span": "imported",
        "gamma1_gamma0_span": "computed",
        "gamma2_gamma1_gamma0_span": "imported",
        "optimality": "imported",
    }
    assert {e["name"] for e in report7.to_dict()["entries"] if e["provenance"] == "imported"} == imported
    assert "  [PASS        ] optimality (imported): " in report7.to_text()
    assert "  [PASS        ] gamma2_spanning (computed): " in report7.to_text()
    report6 = nonexistence_case_audit(6)
    assert [(e.name, e.status, e.provenance) for e in report6.entries] == [
        ("gamma2_spanning", "pass", "computed"),
        ("gamma1_spanning_single", "pass", "computed"),
        ("gamma1_spanning_multi", "pass", "computed"),
        ("gamma0_spanning", "pass", "computed"),
        ("gamma2_gamma1_span", "out-of-scope", "computed"),
        ("gamma2_gamma0_span", "out-of-scope", "computed"),
        ("gamma1_gamma0_span", "out-of-scope", "computed"),
        ("gamma2_gamma1_gamma0_span", "out-of-scope", "computed"),
        ("optimality", "out-of-scope", "computed"),
    ]
