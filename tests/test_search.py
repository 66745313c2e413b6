"""Search engine: completeness, symmetry handling, determinism, budgets."""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path

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
    "d, m",
    [(d, m) for d in range(4, 8) for m in range(max(5, d), d * d - d)]
    + [(8, 45), (8, 47), (8, 49), (8, 51), (8, 52), (8, 53), (8, 54), (8, 55)]
    + [(9, 66), (9, 67), (9, 68), (9, 69), (9, 70), (9, 71), (10, 89)],
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
    ``fewest`` to ``most`` (candidate, mask against the node's shifts, gain)
    triples and the number ``r`` of offsets still to place, from 2 to 4 with
    at least ``spare`` candidates to spare."""
    m = rng.randint(10, 30)
    offsets = rng.sample(range(2, m - 1), rng.randint(0, 2))
    shifts = PhiSpec(m, offsets).shifts
    uncovered = (1 << m) - 1 & ~difference_mask(m, shifts)
    rest = [w for w in range(2, m - 1) if w not in offsets]
    live = []
    for w in sorted(rng.sample(rest, rng.randint(fewest, min(most, len(rest))))):
        mask = shift_mask(m, w, shifts)
        live.append((w, mask, (mask & uncovered).bit_count()))
    return m, uncovered, live, rng.randint(2, min(4, len(live) - spare))


def _covers(chosen, uncovered: int, m: int) -> bool:
    """Whether the chosen triples cover ``uncovered`` with their masks and the
    residues ``+-(f2 - f1)`` of their pairs."""
    c = 0
    for _, mask, _ in chosen:
        c |= mask
    for (f1, _, _), (f2, _, _) in combinations(chosen, 2):
        c |= 1 << (f2 - f1) % m | 1 << (f1 - f2) % m
    return not uncovered & ~c


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
    # 71 nodes for each of the 42 shard values: the first shard, which holds
    # the smallest witness, needs 72, so a later shard decides.
    task = SearchTask(d=8, m=45, mode="find-first", node_budget=2982)
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
    the budget is still split over every shard value."""
    _, jobs, (planned, solutions, exhausted) = search._plan(SearchTask(d=9, m=71, node_budget=100))
    assert [v for v, _ in jobs] == list(range(2, 36))
    assert (planned.pruned_by_symmetry, planned.nodes_visited, solutions, exhausted) == (34, 0, [], True)
    assert [budget for _, budget in jobs] == [2] * 32 + [1] * 2
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


class _FlagRaisedOnRead:
    """A stop flag that reads raised from its ``raise_on``-th read on."""

    def __init__(self, raise_on: int) -> None:
        self.reads, self.raise_on = 0, raise_on

    def is_set(self) -> bool:
        self.reads += 1
        return self.reads >= self.raise_on


def test_stop_flag_read_every_64_placements(monkeypatch):
    """A shard reads the pool's stop flag before its first placement and
    after every 64th, and gives up, unexhausted, once it reads it raised."""
    monkeypatch.setattr(search, "_stop_flag", None)
    root, _, _ = search._plan(SearchTask(d=9, m=71))
    job = (4, None)  # 306 nodes when left to run
    raised = threading.Event()
    raised.set()
    search._set_stop_flag(raised)
    counters, _, exhausted = search._run_shard(root, *job)
    assert (counters.nodes_visited, exhausted) == (0, False)
    search._set_stop_flag(_FlagRaisedOnRead(3))
    counters, _, exhausted = search._run_shard(root, *job)
    assert (counters.nodes_visited, exhausted) == (128, False)
    assert counters.budget_stops == 0
    search._set_stop_flag(threading.Event())
    counters, _, exhausted = search._run_shard(root, *job)
    assert (counters.nodes_visited, exhausted) == (306, True)


@pytest.mark.parametrize(
    "task",
    [
        SearchTask(d=9, m=71),
        SearchTask(d=9, m=65, mode="find-first"),
        SearchTask(d=8, m=45, node_budget=2982),
        SearchTask(d=9, m=71, prefix=(30,)),
        SearchTask(d=5, m=19, prefix=(5, 8)),
        SearchTask(d=11, m=109),
    ],
    ids=lambda task: f"d{task.d}-m{task.m}-{task.mode}-prefix{len(task.prefix)}",
)
def test_batches_are_the_plan_in_order(task):
    """A task's pool jobs, concatenated, are its shard jobs in shard order,
    and there are at most ``BATCHES_PER_WORKER * workers + 1`` of them."""
    _, jobs, _ = search._plan(task)
    for workers in (1, 2, 3, 8):
        batches = search._batches(task, jobs, workers)
        assert all(batches)
        assert [job for batch in batches for job in batch] == jobs
        assert len(batches) <= search.BATCHES_PER_WORKER * workers + 1


def test_find_first_batch_ends_after_first_solution_shard():
    """The smallest d=9, m=65 witness lies in shard a_1 = 5: a batch of every
    shard runs shards 2 to 5 and no more."""
    root, jobs, _ = search._plan(SearchTask(d=9, m=65, mode="find-first"))
    results = search._run_batch(root, jobs)
    assert [bool(solutions) for _, solutions, _ in results] == [False, False, False, True]
    assert [format_spec(s) for s in results[-1][1]] == ["phi 65: 5,9,27,34,50,53"]


def test_batch_runs_every_budget_stopped_shard():
    """Budget-stopped shards do not end a find-first batch: it runs each of
    them, as the shards run one by one do, up to the deciding shard."""
    root, jobs, _ = search._plan(SearchTask(d=8, m=45, mode="find-first", node_budget=2982))
    results = search._run_batch(root, jobs)
    deciding = len(results) - 1
    assert results[deciding][1] and not any(solutions for _, solutions, _ in results[:deciding])
    assert sum(counters.budget_stops for counters, _, _ in results[:deciding]) > 0
    assert results == [search._run_shard(root, *job) for job in jobs[: deciding + 1]]


def test_stop_flag_ends_batch(monkeypatch):
    """Once the stop flag reads raised, the shard running gives up within 64
    placements and the batch runs no further shard."""
    monkeypatch.setattr(search, "_stop_flag", None)
    root, jobs, _ = search._plan(SearchTask(d=9, m=71))
    search._set_stop_flag(_FlagRaisedOnRead(3))
    results = search._run_batch(root, jobs)
    counters, _, exhausted = results[-1]
    assert len(results) < len(jobs)
    assert not exhausted
    assert sum(c.nodes_visited for c, _, _ in results) <= 128 + 64 * (len(results) - 1)


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


@pytest.mark.parametrize(
    "d, low, high, budget",
    [(9, 60, 71, None), (8, 40, 55, None), (7, 30, 41, None), (9, 60, 71, 2000), (8, 40, 55, 500)],
)
def test_max_m_worker_determinism(d, low, high, budget, monkeypatch):
    """One pool per scan, whatever the worker count: the payload and every
    modulus's counters match the serial scan, the pool's workers are gone
    when the call returns and the stop flag is raised by then."""
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)

    def outcome(workers):
        result = max_m(d, low, high, node_budget=budget, workers=workers)
        per_m = {m: report.counters.to_dict() for m, report in result.reports.items()}
        return json.dumps(result.to_json_dict()), per_m

    serial = outcome(1)
    assert pools == []
    for workers in (2, 3):
        assert outcome(workers) == serial
        assert len(pools) == 1
        assert pools.pop()["initargs"][0].is_set()
        assert multiprocessing.active_children() == []
    if (d, budget) == (9, None):
        assert len(json.loads(serial[0])["perM"]) == 7


def test_max_m_validation():
    with pytest.raises(ValueError):
        max_m(4, 5, 12)
    with pytest.raises(ValueError):
        max_m(4, 4, 11)


def _run_cold(code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` on its path; its stdout."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )
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
    assert _run_cold(code).strip() == "[]"


def test_cold_pooled_search_matches_one_worker():
    """The first pooled call of a process imports the pool stack on demand:
    it returns the one-worker report and leaves no live child behind."""
    code = """
import json
import sys
from bipmoore.search import SearchTask, search_offsets

assert "multiprocessing" not in sys.modules
pooled = search_offsets(SearchTask(d=8, m=45), workers=2).to_json_dict()
import multiprocessing
print(json.dumps([pooled, multiprocessing.active_children() == []]))
"""
    pooled, reaped = json.loads(_run_cold(code))
    assert pooled == search_offsets(SearchTask(d=8, m=45)).to_json_dict()
    assert reaped
