"""Search engine: completeness, symmetry handling, determinism, budgets."""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import random
import signal
import subprocess
import sys
import threading
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from bipmoore import circulant, search
from bipmoore.circulant import (
    PhiSpec,
    diameter_at_most_3,
    difference_mask,
    format_spec,
    pair_masks,
    shift_mask,
    two_step_residues,
)
from bipmoore.search import SearchTask, max_m, search_offsets
from oracles import bound_only_search_oracle, naive_coverage_solutions


def test_degree4_modulus11_unique_solution():
    report = search_offsets(SearchTask(d=4, m=11))
    assert [s.offsets for s in report.solutions] == [(4,)]
    assert report.exhausted
    assert report.counters.solutions_found == 1


def test_degree7_modulus41_empty():
    report = search_offsets(SearchTask(d=7, m=41))
    assert report.solutions == ()
    assert report.exhausted
    assert report.counters.nodes_visited > 0


@pytest.mark.parametrize(
    "d, m, solutions, nodes, by_bound, by_symmetry",
    [
        (5, 19, 1, 43, 37, 28),
        (6, 29, 0, 420, 374, 225),
        (7, 41, 0, 3489, 3164, 1766),
        (8, 55, 0, 29971, 27625, 14653),
        (9, 71, 0, 269709, 251110, 131641),
        (5, 17, 4, 43, 33, 28),
        (6, 25, 14, 754, 641, 326),
        (8, 45, 210, 297040, 260874, 134041),
    ],
)
def test_pinned_counters(d, m, solutions, nodes, by_bound, by_symmetry):
    """Exact work counts of the bound-only oracle, as the engine measured
    them before forward checking: any change to the oracle shows here."""
    found, counters = bound_only_search_oracle(d, m)
    assert counters == (solutions, nodes, by_bound, by_symmetry)
    assert len(found) == solutions


ENGINE_COUNTERS = [
    (5, 19, 1, 6, 4, 36),
    (6, 29, 0, 24, 20, 91),
    (7, 41, 0, 87, 72, 190),
    (8, 55, 0, 434, 349, 351),
    (9, 71, 0, 2142, 1775, 595),
    (5, 17, 4, 10, 3, 28),
    (6, 25, 14, 73, 39, 66),
    (8, 45, 210, 13415, 10970, 232),
    (10, 89, 0, 12411, 10217, 946),
    (11, 109, 0, 67437, 56817, 1431),
]


@pytest.mark.parametrize(
    "d, m, solutions, nodes, by_bound, by_symmetry",
    ENGINE_COUNTERS,
    ids=[f"d{d}-m{m}" for d, m, *_ in ENGINE_COUNTERS],
)
def test_engine_pinned_counters(d, m, solutions, nodes, by_bound, by_symmetry):
    """Exact work counts of the forward-checking engine: it is deterministic,
    so any change in pruning or enumeration order shows here. The sum-of-gains
    test has no slack to act on at the cap; the support test and the suffix
    cut act at and off it."""
    report = search_offsets(SearchTask(d=d, m=m))
    c = report.counters
    assert (c.solutions_found, c.nodes_visited, c.pruned_by_bound, c.pruned_by_symmetry) == (
        solutions,
        nodes,
        by_bound,
        by_symmetry,
    )
    assert 0 <= c.pruned_by_bound <= c.nodes_visited
    assert len(report.solutions) == solutions
    assert report.exhausted


@pytest.mark.parametrize(
    "d, m, by_bound",
    [(d, m, by_bound) for d, m, _, _, by_bound, _ in ENGINE_COUNTERS],
    ids=[f"d{d}-m{m}" for d, m, *_ in ENGINE_COUNTERS],
)
def test_rule_deaths_sum_to_bound_prunes(d, m, by_bound):
    """Every bound prune is counted once by the rule that killed the node:
    the waste filter, the sum of gains or support. The report's counters
    are the sum of its shards'."""
    c = search_offsets(SearchTask(d=d, m=m)).counters
    assert c.pruned_by_filter + c.pruned_by_gains + c.pruned_by_support == c.pruned_by_bound == by_bound


RULE_DEATHS = [
    (SearchTask(d=10, m=89), 4359, 0, 5858),
    (SearchTask(d=8, m=45), 10172, 446, 352),
    (SearchTask(d=9, m=65, mode="find-first"), 8333, 2137, 2310),
]


@pytest.mark.parametrize(
    "task, by_filter, by_gains, by_support",
    RULE_DEATHS,
    ids=[f"d{t.d}-m{t.m}-{t.mode}" for t, *_ in RULE_DEATHS],
)
def test_rule_deaths(task, by_filter, by_gains, by_support):
    """Deaths per rule, pinned: at the cap the sum of gains has no slack to
    act on, off it all three rules kill nodes. They stay out of the JSON."""
    report = search_offsets(task)
    c = report.counters
    assert (c.pruned_by_filter, c.pruned_by_gains, c.pruned_by_support) == (by_filter, by_gains, by_support)
    assert set(report.to_json_dict()["counters"]) == {
        "nodesVisited",
        "prunedByBound",
        "prunedBySymmetry",
        "solutionsFound",
        "budgetStops",
    }


@pytest.mark.parametrize(
    "d, m",
    [(d, m) for d in range(4, 8) for m in range(max(5, d), d * d - d)]
    + [(8, 45), (8, 47), (8, 49), (8, 51), (8, 52), (8, 53), (8, 54), (8, 55)]
    + [(9, 66), (9, 67), (9, 68), (9, 69), (9, 70), (9, 71), (10, 89)]
    + [pytest.param(d, m, marks=pytest.mark.slow) for d, m in [(10, m) for m in range(80, 89)] + [(11, 109)]],
)
def test_engine_matches_bound_only_oracle(d, m):
    """Dropping candidates by slack and nodes by the sum of gains or by
    support never loses a solution the bound-only walk finds, nor adds one."""
    found, _ = bound_only_search_oracle(d, m)
    report = search_offsets(SearchTask(d=d, m=m))
    assert [s.offsets for s in report.solutions] == found
    assert report.exhausted


def _support_case(rng: random.Random, fewest: int, most: int, spare: int):
    """A seeded node: modulus, residues still uncovered, a sorted live list of
    ``fewest`` to ``most`` (candidate, mask against the node's shifts) pairs
    and the number ``r`` of offsets still to place, from 2 to 4 with at least
    ``spare`` candidates to spare."""
    m = rng.randint(10, 30)
    offsets = rng.sample(range(2, m - 1), rng.randint(0, 2))
    shifts = PhiSpec(m, offsets).shifts
    uncovered = (1 << m) - 1 & ~difference_mask(m, shifts)
    rest = [w for w in range(2, m - 1) if w not in offsets]
    live = [(w, shift_mask(m, w, shifts)) for w in sorted(rng.sample(rest, rng.randint(fewest, min(most, len(rest)))))]
    return m, uncovered, live, rng.randint(2, min(4, len(live) - spare))


def _union_and_differences(chosen, m: int) -> tuple[int, int]:
    """The union of the chosen pairs' masks, and the residues ``+-(f2 - f1)``
    of their values."""
    union = diffs = 0
    for _, mask in chosen:
        union |= mask
    for (f1, _), (f2, _) in combinations(chosen, 2):
        diffs |= 1 << (f2 - f1) % m | 1 << (f1 - f2) % m
    return union, diffs


def _covers(chosen, uncovered: int, m: int) -> bool:
    """Whether the chosen pairs cover ``uncovered`` with their masks and the
    residues ``+-(f2 - f1)`` of their pairs."""
    union, diffs = _union_and_differences(chosen, m)
    return not uncovered & ~(union | diffs)


def test_support_rule_never_prunes_a_coverable_node():
    """``_support_cut`` never kills a node (returns 0) when some ``r`` of its
    live candidates cover every uncovered residue with their masks and
    pairwise differences, checked by brute force over the ``r``-subsets on
    seeded small cases. The rule must also kill a fair share of the nodes,
    and enough nodes must be coverable, for the check to show anything."""
    rng = random.Random(13)
    cases, pruned, coverable_cases = 5000, 0, 0
    for _ in range(cases):
        m, uncovered, live, r = _support_case(rng, 2, 6, 0)
        coverable = any(_covers(chosen, uncovered, m) for chosen in combinations(live, r))
        unsupported = search._support_cut(uncovered, live, r, m, 1) == 0
        assert not (coverable and unsupported), (m, live, r)
        pruned += unsupported
        coverable_cases += coverable
    assert pruned > cases // 5
    assert coverable_cases > cases // 5


def test_support_cut_never_drops_a_coverable_suffix():
    """A node's children from index ``i`` on take all ``r`` offsets from the
    suffix ``live[i:]``, and ``_support_cut`` places only the children before
    the first suffix that fails the support test. On seeded small nodes,
    brute force over the ``r``-subsets shows that no suffix from the cut on
    holds a cover. Each suffix tested alone shows that the test is monotone,
    so that once one suffix fails every shorter one fails too, and that the
    cut is the first failing suffix. Enough cases must cut inside the loop,
    and enough must place a last child that still covers, for the check to
    show anything."""
    rng = random.Random(14)
    cases, inside, tight = 3000, 0, 0
    for _ in range(cases):
        m, uncovered, live, r = _support_case(rng, 3, 8, 1)
        count = len(live) - r + 1
        cut = search._support_cut(uncovered, live, r, m, count)
        # first[i]: whether some cover's smallest candidate is live[i].
        first = [False] * count
        for chosen in combinations(range(len(live)), r):
            if _covers([live[j] for j in chosen], uncovered, m):
                first[chosen[0]] = True
        case = (m, live, r, cut)
        assert 0 <= cut <= count, case
        assert not any(first[cut:]), case
        fails = [search._support_cut(uncovered, live[i:], r, m, 1) == 0 for i in range(count)]
        assert fails == sorted(fails), case
        assert cut == (fails.index(True) if True in fails else count), case
        inside += 0 < cut < count
        tight += cut > 0 and first[cut - 1]
    assert inside > cases // 4
    assert tight > cases // 4


def test_support_cut_where_the_difference_pass_starts():
    """``_support_cut`` builds a suffix's differences only once at most
    ``r*(r-1)`` uncovered residues lie outside its union. Seeded nodes put
    exactly ``r*(r-1)`` outside the union of a random suffix, drawn half the
    time from that suffix's differences, so the test at that count goes
    both ways. The cut is the first suffix that fails the support test as
    brute force over its masks and value pairs reads it, the test is
    monotone, and no suffix from the cut on holds a cover."""
    rng = random.Random(15)
    cases, passed, failed = 0, 0, 0
    while cases < 2000:
        m, uncovered, live, r = _support_case(rng, 3, 8, 1)
        most, count = r * (r - 1), len(live) - r + 1
        j = rng.randrange(count)
        union, diffs = _union_and_differences(live[j:], m)
        pool = [t for t in range(1, m) if not union >> t & 1 and (rng.random() < 0.5 or diffs >> t & 1)]
        if len(pool) < most:
            continue
        cases += 1
        uncovered = uncovered & union | sum(1 << t for t in rng.sample(pool, most))
        cut = search._support_cut(uncovered, live, r, m, count)
        supported = []
        for i in range(count):
            union, diffs = _union_and_differences(live[i:], m)
            outside = uncovered & ~union
            supported.append(outside.bit_count() <= most and not outside & ~diffs)
        case = (m, uncovered, live, r, cut)
        assert supported == sorted(supported, reverse=True), case
        assert cut == sum(supported), case
        assert not any(_covers(chosen, uncovered, m) for chosen in combinations(live[cut:], r)), case
        passed += supported[j]
        failed += not supported[j]
    assert passed > cases // 5
    assert failed > cases // 5


@pytest.mark.parametrize("m", range(5, 12))
def test_degree4_agrees_with_naive_enumerator(m):
    expected = naive_coverage_solutions(4, m)
    report = search_offsets(SearchTask(d=4, m=m))
    assert {s.offsets for s in report.solutions} == expected
    assert report.exhausted


@pytest.mark.parametrize("m", range(5, 20))
def test_degree5_agrees_with_naive_enumerator(m):
    expected = naive_coverage_solutions(5, m)
    report = search_offsets(SearchTask(d=5, m=m))
    assert {s.offsets for s in report.solutions} == expected
    assert report.exhausted


@pytest.mark.parametrize("m", range(6, 30))
def test_degree6_agrees_with_naive_enumerator(m):
    expected = naive_coverage_solutions(6, m)
    report = search_offsets(SearchTask(d=6, m=m))
    assert {s.offsets for s in report.solutions} == expected
    assert report.exhausted


def test_solutions_are_canonical_sorted_unique():
    report = search_offsets(SearchTask(d=5, m=16))
    offsets = [s.offsets for s in report.solutions]
    assert offsets == sorted(set(offsets))
    for s in report.solutions:
        assert s.offsets <= s.negated().offsets


def test_negated_solutions_also_cover():
    for task in (SearchTask(d=4, m=11), SearchTask(d=5, m=19)):
        for s in search_offsets(task).solutions:
            assert diameter_at_most_3(s.negated())


def test_worker_count_determinism():
    base = search_offsets(SearchTask(d=6, m=25)).to_json_dict()
    for workers in (2, 8):
        assert search_offsets(SearchTask(d=6, m=25), workers=workers).to_json_dict() == base


def test_json_fields_exclude_wall_time():
    payload = search_offsets(SearchTask(d=4, m=11)).to_json_dict()
    assert set(payload) == {"task", "solutions", "counters", "exhausted"}
    assert payload["solutions"] == ["phi 11: 4"]


def test_find_first_mode():
    report = search_offsets(SearchTask(d=5, m=16, mode="find-first"))
    full = search_offsets(SearchTask(d=5, m=16))
    assert len(report.solutions) <= 1
    if full.solutions:
        assert report.solutions[0] == full.solutions[0]
        assert not report.exhausted


ORACLE_FIND_FIRST_COUNTERS = [
    (5, 17, "phi 17: 3,11", 10, 8, 0),
    (6, 25, "phi 25: 2,7,11", 27, 23, 0),
    (7, 39, "phi 39: 3,12,17,32", 475, 444, 27),
    (8, 45, "phi 45: 2,4,11,17,25", 2638, 2464, 0),
]


@pytest.mark.parametrize(
    "d, m, witness, nodes, by_bound, by_symmetry",
    ORACLE_FIND_FIRST_COUNTERS,
    ids=[f"d{d}-m{m}" for d, m, *_ in ORACLE_FIND_FIRST_COUNTERS],
)
def test_find_first_counters(d, m, witness, nodes, by_bound, by_symmetry):
    """The bound-only oracle's find-first counters, as the engine measured
    them before forward checking, and the engine's witness is the oracle's."""
    found, counters = bound_only_search_oracle(d, m, mode="find-first")
    assert [format_spec(PhiSpec(m, t)) for t in found] == [witness]
    assert counters == (1, nodes, by_bound, by_symmetry)
    report = search_offsets(SearchTask(d=d, m=m, mode="find-first"))
    assert [format_spec(s) for s in report.solutions] == [witness]


ENGINE_FIND_FIRST_COUNTERS = [
    (5, 17, "phi 17: 3,11", 2, 0, 1),
    (6, 25, "phi 25: 2,7,11", 4, 1, 0),
    (7, 39, "phi 39: 3,12,17,32", 17, 9, 1),
    (8, 45, "phi 45: 2,4,11,17,25", 72, 52, 0),
]


@pytest.mark.parametrize(
    "d, m, witness, nodes, by_bound, by_symmetry",
    ENGINE_FIND_FIRST_COUNTERS,
    ids=[f"d{d}-m{m}" for d, m, *_ in ENGINE_FIND_FIRST_COUNTERS],
)
def test_engine_find_first_counters(d, m, witness, nodes, by_bound, by_symmetry):
    """Find-first reads shards in order and stops at the first one with a
    solution: the counters cover exactly the shards up to it."""
    task = SearchTask(d=d, m=m, mode="find-first")
    report = search_offsets(task)
    c = report.counters
    assert [format_spec(s) for s in report.solutions] == [witness]
    assert (c.solutions_found, c.nodes_visited, c.pruned_by_bound, c.pruned_by_symmetry) == (
        1,
        nodes,
        by_bound,
        by_symmetry,
    )
    assert report.exhausted is False
    assert report.solutions[0] == search_offsets(SearchTask(d=d, m=m)).solutions[0]
    assert search_offsets(task, workers=2).to_json_dict() == report.to_json_dict()
    assert multiprocessing.active_children() == []


def test_find_first_budget_worker_determinism():
    """Budget-stopped shards before the deciding one: the same report at any
    worker count."""
    # 71 nodes for each of the 21 shards that run: the first shard, which
    # holds the smallest witness, needs 72, so a later shard decides.
    task = SearchTask(d=8, m=45, mode="find-first", node_budget=1491)
    report = search_offsets(task)
    assert report.counters.budget_stops > 0
    assert len(report.solutions) == 1
    for workers in (2, 3):
        assert search_offsets(task, workers=workers).to_json_dict() == report.to_json_dict()


def test_find_first_worker_determinism_degree9():
    """Find-first at d=9, m=65 cuts the pool off at the deciding shard; the
    report is the serial one."""
    task = SearchTask(d=9, m=65, mode="find-first")
    report = search_offsets(task)
    assert [format_spec(s) for s in report.solutions] == ["phi 65: 5,9,27,34,50,53"]
    for workers in (2, 3):
        assert search_offsets(task, workers=workers).to_json_dict() == report.to_json_dict()
        assert multiprocessing.active_children() == []


def test_dead_shards_counted_not_run():
    """Shard values beyond m - a_1 are symmetry prunes counted by the planner;
    the budget is split over the shards that run."""
    _, jobs, (planned, solutions, exhausted) = search._plan(SearchTask(d=9, m=71, node_budget=100))
    assert [v for v, _ in jobs] == list(range(2, 36))
    assert (planned.pruned_by_symmetry, planned.nodes_visited, solutions, exhausted) == (34, 0, [], True)
    assert [budget for _, budget in jobs] == [3] * 32 + [2] * 2
    _, jobs, (planned, _, _) = search._plan(SearchTask(d=9, m=71, prefix=(30,)))
    assert [v for v, _ in jobs] == list(range(31, 42))
    assert planned.pruned_by_symmetry == 69 - 41


def test_root_built_once_per_task(monkeypatch):
    """The planner lists each task's root candidates once, and its shards
    read windows of that list: ``shift_mask`` runs once per root candidate
    and three or four times for the prefix node's ``difference_mask``."""
    calls = []
    counted = shift_mask

    def counting(*args):
        calls.append(args)
        return counted(*args)

    monkeypatch.setattr(circulant, "shift_mask", counting)
    monkeypatch.setattr(search, "shift_mask", counting)
    for d in range(5, 11):
        search_offsets(SearchTask(d=d, m=d * d - d - 1))
    # 286 root candidates, 2..m-2 for each m, and 3 calls per difference_mask.
    assert len(calls) == 304
    calls.clear()
    search_offsets(SearchTask(d=9, m=71, prefix=(30,)))
    # Root candidates 31..41, and 4 calls for the shifts -1, 0, 1, 30.
    assert len(calls) == 15


def _recording_work(monkeypatch, run=True) -> list:
    """Record each in-process ``_work`` call as ``(shards, state, results)``;
    with ``run=False`` every shard reads as an empty, exhausted result and
    none is run."""
    calls = []
    work = search._work

    def recording(shards, state, lock=None):
        if run:
            results = work(shards, state, lock)
        else:
            results = {i: (search.SearchCounters(), [], True) for i in range(len(shards))}
        calls.append((shards, list(state), results))
        return results

    monkeypatch.setattr(search, "_work", recording)
    return calls


@pytest.mark.parametrize(
    "task",
    [
        SearchTask(d=9, m=71),
        SearchTask(d=9, m=65, mode="find-first"),
        SearchTask(d=8, m=45, node_budget=1491),
        SearchTask(d=9, m=71, prefix=(30,)),
        SearchTask(d=5, m=19, prefix=(5, 8)),
        SearchTask(d=11, m=109),
    ],
    ids=lambda task: f"d{task.d}-m{task.m}-{task.mode}-prefix{len(task.prefix)}",
)
def test_shards_are_the_plans_in_order(task, monkeypatch):
    """The shard list of a call is each task's shard jobs in shard order,
    all on the task's one root and marked with the task's last index, and
    the cutoff starts at the last shard."""
    calls = _recording_work(monkeypatch, run=False)
    later = SearchTask(d=7, m=41)
    _, jobs, _ = search._plan(task)
    _, later_jobs, _ = search._plan(later)
    search._search([task, later], 1)
    (shards, state, _), = calls
    total = len(jobs) + len(later_jobs)
    assert [(root.task, v, budget, last) for root, v, budget, last in shards] == [
        (task, v, budget, len(jobs) - 1) for v, budget in jobs
    ] + [(later, v, budget, total - 1) for v, budget in later_jobs]
    assert len({id(root) for root, *_ in shards[: len(jobs)]}) <= 1
    assert state == [0, total - 1]


def test_find_first_solution_sets_cutoff_to_its_shard(monkeypatch):
    """The smallest d=9, m=65 witness lies in shard a_1 = 5, the fourth: its
    solution lowers the cutoff to it, no later shard runs, and a scan that
    reaches m=65 returns no report past it."""
    calls = _recording_work(monkeypatch)
    report = search_offsets(SearchTask(d=9, m=65, mode="find-first"))
    (shards, state, results), = calls
    assert [v for _, v, _, _ in shards[:4]] == [2, 3, 4, 5]
    assert state == [5, 3]
    assert sorted(results) == [0, 1, 2, 3]
    assert [bool(solutions) for _, solutions, _ in results.values()] == [False, False, False, True]
    assert [format_spec(s) for s in report.solutions] == ["phi 65: 5,9,27,34,50,53"]
    calls.clear()
    result = max_m(9, 60, 66)
    (shards, state, results), = calls
    before = sum(root.task.m == 66 for root, _, _, _ in shards)
    assert state[1] == before + 3
    assert max(results) == before + 3
    assert list(result.reports) == [66, 65]


def test_budget_stop_runs_every_shard_of_its_task(monkeypatch):
    """A budget-stopped shard lowers the cutoff to the last shard of its task:
    every shard of that task runs, no shard of a later task does, and the
    call returns no report past it. Find-first cuts at the deciding shard
    even after budget stops, as the shards run one by one do."""
    calls = _recording_work(monkeypatch)
    budgeted = SearchTask(d=8, m=45, node_budget=1491)
    reports = search._search([budgeted, SearchTask(d=7, m=41)], 1)
    (shards, state, results), = calls
    _, jobs, _ = search._plan(budgeted)
    assert state[1] == len(jobs) - 1
    assert sorted(results) == list(range(len(jobs)))
    assert [report.task for report in reports] == [budgeted]
    assert reports[0].counters.budget_stops > 0
    calls.clear()
    root, jobs, _ = search._plan(SearchTask(d=8, m=45, mode="find-first", node_budget=1491))
    search_offsets(root.task)
    (_, state, results), = calls
    deciding = state[1]
    assert results[deciding][1] and not any(results[i][1] for i in range(deciding))
    assert sum(results[i][0].budget_stops for i in range(deciding)) > 0
    assert [results[i] for i in range(deciding + 1)] == [
        search._run_shard(root, *job, i, None) for i, job in enumerate(jobs[: deciding + 1])
    ]


class _CutoffDroppedOnRead(list):
    """Shared state ``[counter, cutoff]`` whose cutoff reads 0 from its
    ``drop_on``-th read on."""

    def __init__(self, drop_on: int) -> None:
        super().__init__([0, 10])
        self.reads, self.drop_on = 0, drop_on

    def __getitem__(self, i):
        self.reads += 1
        return 0 if self.reads >= self.drop_on else super().__getitem__(i)


def test_shard_past_cutoff_gives_up_within_64_placements():
    """A shard reads the shared cutoff before its first placement and after
    every 64th, and gives up, unexhausted, once the cutoff lies below its
    index."""
    root, _, _ = search._plan(SearchTask(d=9, m=71))
    job = (4, None)  # 306 nodes when left to run
    counters, _, exhausted = search._run_shard(root, *job, 5, [0, 4])
    assert (counters.nodes_visited, exhausted) == (0, False)
    counters, _, exhausted = search._run_shard(root, *job, 5, _CutoffDroppedOnRead(3))
    assert (counters.nodes_visited, exhausted) == (128, False)
    assert counters.budget_stops == 0
    counters, _, exhausted = search._run_shard(root, *job, 5, [0, 5])
    assert (counters.nodes_visited, exhausted) == (306, True)


def test_budget_and_cutoff_read_fall_due_on_one_count():
    """A budgeted shard stops at its budget, reads the cutoff before its first
    placement and after every 64th, and when both fall due on one count the
    budget stops it without reading the cutoff."""
    root, _, _ = search._plan(SearchTask(d=9, m=71))
    counters, _, exhausted = search._run_shard(root, 4, 100, 5, [0, 5])
    assert (counters.nodes_visited, exhausted, counters.budget_stops) == (100, False, 1)
    counters, _, exhausted = search._run_shard(root, 4, 200, 5, _CutoffDroppedOnRead(3))
    assert (counters.nodes_visited, exhausted, counters.budget_stops) == (128, False, 0)
    shared = _CutoffDroppedOnRead(2)
    counters, _, exhausted = search._run_shard(root, 4, 64, 5, shared)
    assert (counters.nodes_visited, exhausted, counters.budget_stops) == (64, False, 1)
    assert shared.reads == 1


@pytest.fixture
def spy(monkeypatch):
    """Watches multi-worker calls: ``started`` holds each child process
    started (each ``after_start`` hook runs after every start), ``arrays``
    each shared counter-and-cutoff array made, and ``results`` the shard
    results of the caller's ``_work`` and of each child's report."""
    caller = os.getpid()
    spy = SimpleNamespace(started=[], after_start=[], arrays=[], results=[])
    make_array, recv, work = multiprocessing.RawArray, multiprocessing.connection.Connection.recv, search._work

    class CountingProcess(multiprocessing.Process):
        def start(self):
            super().start()
            spy.started.append(self)
            for hook in spy.after_start:
                hook()

    def array(*args, **kwargs):
        spy.arrays.append(shared := make_array(*args, **kwargs))
        return shared

    def recording_recv(self):
        spy.results.append(outcome := recv(self))
        return outcome

    def recording_work(*args):
        results = work(*args)
        if os.getpid() == caller:
            spy.results.append(dict(results))  # before the children's are added
        return results

    monkeypatch.setattr(multiprocessing, "Process", CountingProcess)
    monkeypatch.setattr(multiprocessing, "RawArray", array)
    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", recording_recv)
    monkeypatch.setattr(search, "_work", recording_work)
    return spy


def test_caller_runs_beside_one_child_per_extra_worker(spy):
    """A call with ``workers`` workers starts ``min(workers, shards) - 1``
    children, more than the cores here, and the caller and its children
    take every shard from the shared counter exactly once."""
    max_m(9, 60, 71, workers=2)
    assert len(spy.started) == 1
    taken = [index for results in spy.results for index in results]
    assert len(taken) == len(set(taken))
    for task, children in [(SearchTask(d=9, m=71), 3), (SearchTask(d=6, m=20, prefix=(9,)), 1)]:
        spy.started.clear()
        spy.results.clear()
        search_offsets(task, workers=4)
        assert len(spy.started) == children
        assert len(spy.results) == children + 1
        taken = [index for results in spy.results for index in results]
        assert sorted(taken) == list(range(len(search._plan(task)[1])))
    assert multiprocessing.active_children() == []


def test_interrupted_scan_leaves_no_child(spy):
    """Ctrl-C in the caller of a two-worker scan drops the cutoff below every
    index, so the running shards give up, and the child is joined before
    the interrupt leaves the call."""
    timers = []

    def interrupt_soon():
        if not timers:
            timers.append(threading.Timer(0.2, os.kill, (os.getpid(), signal.SIGINT)))
            timers[0].start()

    spy.after_start.append(interrupt_soon)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        max_m(10, 79, 89, workers=2)  # about 10 s when left to run
    assert time.perf_counter() - started < 5
    timers[0].join()
    assert multiprocessing.active_children() == []
    (shared,) = spy.arrays
    assert shared[1] == -1


@pytest.mark.parametrize(
    "exit_code, error, message",
    [(None, ValueError, "shard failed in a child"), (7, RuntimeError, "exited with code 7")],
    ids=["raises", "exits"],
)
def test_child_failure_reaches_the_caller(exit_code, error, message, monkeypatch):
    """A child whose shard raises passes the exception to the caller, and a
    child that dies without reporting makes the call name its exit code;
    either way the call ends promptly with no child left."""
    caller = os.getpid()
    run_shard = search._run_shard

    def failing_in_a_child(root, v, budget, index, shared):
        if os.getpid() == caller:
            # Hold the caller until a child has taken a shard.
            deadline = time.monotonic() + 5
            while shared[0] < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
        elif exit_code is None:
            raise ValueError(message)
        else:
            os._exit(exit_code)
        return run_shard(root, v, budget, index, shared)

    monkeypatch.setattr(search, "_run_shard", failing_in_a_child)
    started = time.perf_counter()
    with pytest.raises(error, match=message):
        search_offsets(SearchTask(d=8, m=45), workers=2)
    assert time.perf_counter() - started < 5
    assert multiprocessing.active_children() == []


def test_tables_built_once_per_modulus():
    pair_masks.cache_clear()
    search_offsets(SearchTask(d=8, m=45))
    assert pair_masks.cache_info().misses == 1
    max_m(8, 52, 53)
    assert pair_masks.cache_info().misses == 3


def test_budget_interrupts():
    """The shard budgets sum to the task's budget, so no search overshoots it."""
    for d, m, budget in ((7, 41, 50), (9, 71, 10)):
        report = search_offsets(SearchTask(d=d, m=m, node_budget=budget))
        assert not report.exhausted
        assert report.counters.budget_stops > 0
        assert report.counters.nodes_visited <= budget


def test_prefix_membership_checks():
    for offsets in (
        (4, 7, 16, 27, 38, 52, 62, 81),
        (4, 16, 30, 43, 51, 62, 71, 89),
        (11, 15, 21, 28, 37, 40, 45, 63),
    ):
        report = search_offsets(SearchTask(d=11, m=95, prefix=offsets))
        assert [s.offsets for s in report.solutions] == [offsets]


def test_partial_prefix():
    report = search_offsets(SearchTask(d=5, m=19, prefix=(5,)))
    assert [s.offsets for s in report.solutions] == [(5, 8)]


@pytest.mark.parametrize("m", range(7, 20))
def test_fully_pinned_prefix(m):
    """A fully pinned pair is kept exactly when it covers and is canonical;
    no node is placed, and a covering non-canonical pair is one symmetry
    prune. The planner settles the pair itself and plans no shard job."""
    for pair in combinations(range(2, m - 1), 2):
        task = SearchTask(d=5, m=m, prefix=pair)
        _, jobs, planned = search._plan(task)
        assert jobs == []
        report = search_offsets(task)
        assert report == search._merge(task, [planned])
        full = two_step_residues(PhiSpec(m, pair)).full
        canonical = pair <= tuple(sorted(m - a for a in pair))
        c = report.counters
        assert [s.offsets for s in report.solutions] == ([pair] if full and canonical else [])
        assert c.nodes_visited == 0
        assert c.solutions_found == int(full and canonical)
        assert c.pruned_by_symmetry == int(full and not canonical)
        assert report.exhausted


def test_task_validation():
    with pytest.raises(ValueError):
        SearchTask(d=3, m=5)
    with pytest.raises(ValueError):
        SearchTask(d=4, m=12)  # above d*d - d - 1
    with pytest.raises(ValueError):
        SearchTask(d=4, m=4)
    with pytest.raises(ValueError):
        SearchTask(d=7, m=41, mode="weird")
    with pytest.raises(ValueError):
        SearchTask(d=7, m=41, prefix=(9, 3))
    with pytest.raises(ValueError):
        SearchTask(d=7, m=41, node_budget=0)
    with pytest.raises(ValueError):
        search_offsets(SearchTask(d=4, m=11), workers=0)


def test_max_m_degree4():
    result = max_m(4, 5, 11)
    assert result.best_m == 11
    assert [format_spec(w) for w in result.witnesses] == ["phi 11: 4"]
    assert result.conclusive


def test_max_m_degree5():
    result = max_m(5, 5, 19)
    assert result.best_m == 19
    assert len(result.witnesses) >= 1
    assert result.witnesses[0] == PhiSpec(19, (5, 8))


def test_max_m_no_solution_range():
    result = max_m(6, 29, 29)
    assert result.best_m is None
    assert result.conclusive
    assert result.verified_down_to == 29


def test_max_m_range_below_the_degree_scans_nothing():
    """Moduli below the degree host too few offsets: no modulus is scanned,
    and an empty scan is conclusive with nothing verified."""
    result = max_m(7, 5, 6)
    assert result.reports == {}
    assert result.best_m is None
    assert result.conclusive
    assert result.verified_down_to is None


def test_max_m_medium_degrees_regression():
    # frozen from conclusive downward scans; witnesses re-verified by BFS
    from bipmoore.circulant import build_phi_spec
    from bipmoore.graphs import diameter

    expected = {6: 27, 7: 39, 8: 51}
    for d, best in expected.items():
        result = max_m(d, 5, d * d - d - 1)
        assert result.best_m == best
        assert result.conclusive
        assert diameter(build_phi_spec(result.witnesses[0])) == 3


def test_max_m_budget_inconclusive():
    result = max_m(7, 41, 41, node_budget=1)
    assert result.best_m is None
    assert not result.conclusive
    # The counters of a budget-stopped scan move with the budget split and
    # the pruning rules; the max-m output shows none of them.
    result = max_m(9, 60, 71, node_budget=2000)
    assert result.best_m is None and not result.conclusive
    assert list(result.reports) == [71]
    report = result.reports[71]
    assert not report.exhausted
    assert report.counters.to_dict() == {
        "nodesVisited": 797,
        "prunedByBound": 644,
        "prunedBySymmetry": 595,
        "solutionsFound": 0,
        "budgetStops": 10,
    }


@pytest.mark.parametrize(
    "d, low, high, budget",
    [(9, 60, 71, None), (8, 40, 55, None), (7, 30, 41, None), (9, 60, 71, 2000), (8, 40, 55, 500)],
)
def test_max_m_worker_determinism(d, low, high, budget, spy):
    """One shared state per scan, whatever the worker count: the payload and
    every modulus's counters match the serial scan, the children are gone
    when the call returns and the cutoff is dropped below every index by
    then."""

    def outcome(workers):
        result = max_m(d, low, high, node_budget=budget, workers=workers)
        per_m = {m: report.counters.to_dict() for m, report in result.reports.items()}
        return json.dumps(result.to_json_dict()), per_m

    serial = outcome(1)
    assert spy.arrays == spy.started == []
    for workers in (2, 3):
        assert outcome(workers) == serial
        assert len(spy.arrays) == 1
        assert spy.arrays.pop()[1] == -1
        assert multiprocessing.active_children() == []
    if (d, budget) == (9, None):
        assert len(json.loads(serial[0])["perM"]) == 7


def test_max_m_validation():
    with pytest.raises(ValueError):
        max_m(4, 5, 12)
    with pytest.raises(ValueError):
        max_m(4, 4, 11)


def _run_cold(*args: str) -> str:
    """Run a fresh interpreter with ``src`` on its path and arguments
    ``args``; its stdout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def test_one_worker_process_never_loads_the_pool_stack():
    """Import, a one-worker search and scan, the audit and an isomorphism
    leave ``multiprocessing`` and ``concurrent.futures`` unloaded."""
    code = """
import sys
import bipmoore
from bipmoore.caseanalysis import nonexistence_case_audit
from bipmoore.circulant import build_phi_spec, parse_spec
from bipmoore.search import SearchTask, max_m, search_offsets
from bipmoore.structure import find_isomorphism
from bipmoore.witnesses import KNOWN_DEGREE11_SPECS

search_offsets(SearchTask(d=7, m=41))
max_m(7, 37, 41)
nonexistence_case_audit(7)
record = build_phi_spec(parse_spec(KNOWN_DEGREE11_SPECS[0]))
assert find_isomorphism(record, record) is not None
print(sorted(name for name in ("multiprocessing", "concurrent.futures") if name in sys.modules))
"""
    assert _run_cold("-c", code).strip() == "[]"


def test_cold_pooled_search_matches_one_worker():
    """The first two-worker call of a process imports ``multiprocessing`` on
    demand, and never ``concurrent.futures``: it returns the one-worker
    report and leaves no live child behind."""
    code = """
import json
import sys
from bipmoore.search import SearchTask, search_offsets

assert "multiprocessing" not in sys.modules
pooled = search_offsets(SearchTask(d=8, m=45), workers=2).to_json_dict()
import multiprocessing
print(json.dumps([pooled, multiprocessing.active_children() == [], "concurrent.futures" in sys.modules]))
"""
    pooled, reaped, futures_loaded = json.loads(_run_cold("-c", code))
    assert pooled == search_offsets(SearchTask(d=8, m=45)).to_json_dict()
    assert reaped
    assert not futures_loaded


def test_spawned_workers_match_one_worker(tmp_path):
    """Under the ``spawn`` start method, the default on macOS and Windows,
    children re-import the search and still give the one-worker payloads.
    Spawn re-imports the main module, so the check runs from a script file."""
    script = tmp_path / "spawned.py"
    script.write_text(
        """
import multiprocessing
from bipmoore.search import SearchTask, max_m, search_offsets

if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    task = SearchTask(d=8, m=45)
    assert search_offsets(task, workers=2).to_json_dict() == search_offsets(task).to_json_dict()
    assert max_m(7, 30, 41, workers=3).to_json_dict() == max_m(7, 30, 41).to_json_dict()
    assert multiprocessing.active_children() == []
    print("ok")
"""
    )
    assert _run_cold(str(script)).strip() == "ok"
