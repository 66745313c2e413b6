"""Tests of the benchmark's own parts: the reference enumerator and the checker.

Run with ``python3 -m pytest bench -q`` from the repository root.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

workloads.import_package()

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

REFERENCE = json.loads(reference.REFERENCE_FILE.read_text())


@pytest.mark.parametrize(
    "d,m",
    [(4, m) for m in range(5, 12)]
    + [(5, m) for m in range(7, 20)]
    + [(6, m) for m in range(12, 30)]
    + [(7, 35), (7, 41)],
)
def test_enumerator_matches_brute_force(d, m):
    assert reference.enumerate_full(d, m) == reference.brute_force(d, m)


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_stored_reference_matches_enumerator_at_the_cap(d):
    m = reference.cap(d)
    expected = [f"phi {m}: " + ",".join(map(str, t)) for t in reference.enumerate_full(d, m)]
    assert REFERENCE[f"{d},{m}"] == expected


def test_affine_certificates_of_the_records():
    m, b1 = workloads.RECORD_SPECS[0]
    assert checks.affine_certificate(m, b1, workloads.RECORD_SPECS[1][1]) == (32, 62)
    assert checks.affine_certificate(m, b1, workloads.RECORD_SPECS[2][1]) == (69, 37)


def d8_m45_answer(solutions):
    return {
        "op": "search_offsets",
        "input": "d=8,m=45,find-all",
        "solutions": [[45, [int(x) for x in s.split(": ")[1].split(",")]] for s in solutions],
        "exhausted": True,
    }


def test_dropped_solution_counts_as_failed():
    workload = workloads.WORKLOADS["scan-offcap"]
    checker = checks.Checker(workload, workload.build(0))
    full = REFERENCE["8,45"]
    assert checks.tally(checker.check_round([d8_m45_answer(full)])) == (1, 0, True)
    doctored = full[:100] + full[101:]
    assert checks.tally(checker.check_round([d8_m45_answer(doctored)])) == (1, 1, False)


@pytest.fixture(scope="module")
def certify_checker():
    workload = workloads.WORKLOADS["certify"]
    inputs = workload.build(1)
    return inputs, checks.Checker(workload, inputs)


def test_wrong_diameter_counts_as_failed(certify_checker):
    _inputs, checker = certify_checker
    right = {"op": "diameter", "input": "record-1", "value": 3}
    assert checks.tally(checker.check_round([right])) == (1, 0, True)
    assert checks.tally(checker.check_round([{**right, "value": 4}])) == (1, 1, False)


def test_swapped_isomorphism_map_counts_as_failed(certify_checker):
    from bipmoore import structure

    inputs, checker = certify_checker
    item = next(i for i in inputs.items if i.label == "record-2-relabelled-swapped")
    mapping = structure.find_isomorphism(inputs.record1, item.graph)
    rows = sorted([v[0], v[1], w[0], w[1]] for v, w in mapping.items())
    answer = {"op": "find_isomorphism", "input": item.label, "map": rows}
    assert checks.tally(checker.check_round([answer])) == (1, 0, True)
    swapped = [list(r) for r in rows]
    swapped[0][2:], swapped[1][2:] = swapped[1][2:], swapped[0][2:]
    assert checks.tally(checker.check_round([{**answer, "map": swapped}])) == (1, 1, False)


def test_certify_round_answers_pass(certify_checker):
    inputs, checker = certify_checker
    workload = workloads.WORKLOADS["certify"]
    answers = workload.answers(inputs, workload.round(inputs))
    attempted, failed, correct = checks.tally(checker.check_round(answers))
    assert (failed, correct) == (0, True)
    assert attempted == len(answers) > 0


def test_perturbation_make_up_is_the_same_for_every_seed():
    for seed in (1, 2, 3):
        drawn = workloads.perturbations(random.Random(seed))
        counts = [workloads.haar_four_cycles(m, offsets) for _s, m, offsets in drawn]
        assert tuple(counts) == workloads.PERTURBED_FOUR_CYCLES


def test_probe_covers_every_span_metric():
    extras = {
        "search.shard_max_share",
        "search.parallel_speedup",
        "search.pool_start_s",
        "cli.import_s",
        "trace.overhead_share",
    }
    assert set(run.LAYER_UNITS) - extras <= set(run.probe_metrics(1))


def test_scaled_round_sums_each_calls_median():
    rounds = [
        ("a", 0.0, 0.0, [(3.0, 2.5), (1.0, 1.0)]),
        ("a", 0.0, 0.0, [(2.0, 2.0), (4.0, 3.0)]),
        ("a", 0.0, 0.0, [(7.0, 2.0), (2.0, 2.0)]),
        ("b", 0.0, 0.0, [(0.1, 0.1)]),  # other answers, other calls: left out
    ]
    wall, cpu = run.scaled_round(rounds)
    assert (wall, cpu) == pytest.approx((run.LOOP_REF_S * 5.0, run.LOOP_REF_S * 4.0))
