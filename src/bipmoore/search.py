"""Exhaustive enumeration of offset tuples with full two-step residue coverage.

A phi graph is its connection set ``B = FIXED_SHIFTS + offsets``, and it has
diameter at most 3 iff the differences ``B - B`` cover ``Z_m``. The search
walks ascending offset tuples ``a_1 < ... < a_{d-3}`` over ``[2, m-2]``,
growing ``B`` one offset at a time with a bitmask of ``B - B``. It checks
forward: a node whose ``B`` has ``k`` shifts carries its live candidates
``w``, each with the mask ``+-(w - b)`` over every ``b`` in ``B`` of the
residues it would add. Placing an offset extends every mask by one pair.
Pruning is:

* by an admissibility bound: the ``r`` offsets still to place can add at
  most ``r*2k + r*(r-1)`` new residues, two per shift in ``B`` and two per
  pair of new offsets. The node's **slack** is
  ``covered + r*2k + r*(r-1) - m``; it must stay non-negative;
* by waste: a candidate's **waste** is the allowance ``2 * |B|`` minus the
  new residues its mask adds. The wastes of the ``r`` offsets that complete
  a tuple sum to at most the slack, and a candidate's waste never decreases
  as offsets are added: its mask gains at most two residues, the allowance
  grows by two and the coverage only grows. So every candidate whose waste
  exceeds the slack is dropped for the whole subtree, and a node dies when
  fewer live candidates remain than offsets still to place. Placing a live
  candidate lowers the slack by its waste, so every placed leaf is a full
  cover;
* by the sum of gains: a candidate's **gain** is the number of new residues
  its mask adds, kept beside it when the live list is filtered. Each of the
  ``r`` offsets still to place adds at most its gain at this node plus two
  for every offset placed between this node and it, so a node dies when its
  ``r`` largest live gains plus ``r*(r-1)`` fall short of the residues still
  uncovered. Put in wastes, the ``r`` smallest wastes exceed the slack; at
  the cap the slack is 0 and the test is void;
* by support: the ``r`` offsets still to place come from the live list, so
  each uncovered residue must lie in a live candidate's mask or be
  ``+-(f2 - f1)`` for two live candidates. A node with ``r >= 2`` dies when
  more than ``r*(r-1)`` uncovered residues lie outside the union of the live
  masks, or when one of those is no such difference. The test holds at and
  off the cap;
* by the support of suffixes: a node's children from index ``i`` on take
  all ``r`` of its offsets from ``live[i:]``, and a shorter suffix has a
  smaller union and fewer differences. So the node's loop stops at the
  first suffix that fails the support test, and the children past that cut
  are never placed (``_support_cut``, which also runs the node's own test);
* by the negation symmetry: a tuple and its negation mod ``m`` describe
  isomorphic graphs, so only canonical tuples (``circulant.canonicalize``)
  are kept, and candidates beyond ``m - a_1``, which would force a
  larger-than-negation tuple, are never listed.

A node's children are placed and tested in the node's own loop: the loop
counts each child, filters its live list and runs the tests above, accepts
leaves and recurses only into children that live, so a dead node costs no
recursive call.

Sharding is by the value of the first free offset position. Shards whose
value already exceeds ``m - a_1`` hold nothing canonical: they are counted
as symmetry prunes where the search is planned and never run. Shards are
read in ascending order and each walks its subtree lexicographically, so
the merged solution list is sorted as it is built. ``find-first`` stops the
shard that finds a solution and reads no shard after it: the report holds
the smallest canonical solution and the work of the shards up to it. A
node budget is split across all shard values so that the shard budgets sum
to it. Reports are byte-identical for any worker count.

Every search, and every ``max_m`` scan, runs through one generator of
merged reports, and every shard runs through one loop, ``_run_batch``, over
consecutive shards of one task. One worker runs each task's shards as one
batch. With more than one worker the call starts one process pool, and a
pool job is a batch of consecutive shards: each batch holds about a
``1 / (4 * workers)`` share of its task's estimated size, so the many
small shards at the end of the order travel together. The batches of every
modulus are queued at once, in order, so workers do not idle at a modulus
boundary. A find-first batch ends after its first shard with a solution.
When the reader stops reading, it raises a stop flag shared with the
workers, whose shards give up within 64 placements and whose batches run no
further shard, and shuts the pool down before the call returns, so every
worker has been reaped by then. ``multiprocessing`` and
``concurrent.futures`` are imported by the first call that starts a pool,
so a process that runs one worker never loads them.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import comb

from .bounds import max_m_upper_bound
from .circulant import FIXED_SHIFTS, PhiSpec, canonicalize, format_spec

MODES = ("find-all", "find-first")

#: How many pool jobs per worker ``_batches`` cuts a task into, about.
BATCHES_PER_WORKER = 4


@dataclass(frozen=True)
class SearchTask:
    """One enumeration job: degree, modulus, mode, optional prefix and budget.

    ``prefix`` pins the first offsets (useful for manual sharding); the
    engine then enumerates the remaining positions.
    """

    d: int
    m: int
    mode: str = "find-all"
    prefix: tuple[int, ...] = ()
    node_budget: int | None = None

    def __post_init__(self) -> None:
        cap = max_m_upper_bound(self.d)
        if not 5 <= self.m <= cap:
            raise ValueError(f"modulus must lie in [5, {cap}] for degree {self.d}")
        if self.d - 3 > self.m - 3:
            raise ValueError(f"not enough distinct offsets in [2, {self.m - 2}]")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        prefix = tuple(self.prefix)
        if len(prefix) > self.d - 3:
            raise ValueError("prefix longer than the offset tuple")
        for a, b in zip(prefix, prefix[1:]):
            if b <= a:
                raise ValueError("prefix must be strictly increasing")
        for a in prefix:
            if not 2 <= a <= self.m - 2:
                raise ValueError(f"prefix offset {a} outside [2, {self.m - 2}]")
        object.__setattr__(self, "prefix", prefix)
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node budget must be positive")


@dataclass
class SearchCounters:
    """Work accounting.

    ``nodes_visited`` counts offset placements beyond the prefix; only live
    candidates before their node's support cut are placed, so the children
    past the cut count in neither ``nodes_visited`` nor ``pruned_by_bound``.
    ``pruned_by_bound`` counts placed nodes that died because too few live
    candidates remained to finish the tuple, their largest gains fell short
    or they could not support the residues still uncovered, so it never
    exceeds ``nodes_visited``, and
    ``1 - pruned_by_bound / nodes_visited`` is the share of placed nodes
    that were leaves or went on to place a child. ``pruned_by_symmetry``
    counts the candidates beyond ``m - a_1`` (once per shard), the shard
    values beyond it (one each) and the full-coverage leaves larger than
    their negation. ``budget_stops`` counts shards cut by the node budget.
    """

    nodes_visited: int = 0
    pruned_by_bound: int = 0
    pruned_by_symmetry: int = 0
    solutions_found: int = 0
    budget_stops: int = 0

    def add(self, other: SearchCounters) -> None:
        self.nodes_visited += other.nodes_visited
        self.pruned_by_bound += other.pruned_by_bound
        self.pruned_by_symmetry += other.pruned_by_symmetry
        self.solutions_found += other.solutions_found
        self.budget_stops += other.budget_stops

    def to_dict(self) -> dict:
        return {
            "nodesVisited": self.nodes_visited,
            "prunedByBound": self.pruned_by_bound,
            "prunedBySymmetry": self.pruned_by_symmetry,
            "solutionsFound": self.solutions_found,
            "budgetStops": self.budget_stops,
        }


@dataclass(frozen=True)
class SearchReport:
    task: SearchTask
    solutions: tuple[PhiSpec, ...]
    counters: SearchCounters
    exhausted: bool

    def to_json_dict(self) -> dict:
        """Deterministic JSON payload."""
        return {
            "task": {
                "d": self.task.d,
                "m": self.task.m,
                "mode": self.task.mode,
                "prefix": list(self.task.prefix),
                "nodeBudget": self.task.node_budget,
            },
            "solutions": [format_spec(s) for s in self.solutions],
            "counters": self.counters.to_dict(),
            "exhausted": self.exhausted,
        }

    def to_text(self) -> str:
        c = self.counters
        state = "exhausted" if self.exhausted else "partial"
        lines = [f"{c.solutions_found} solutions, {state}"]
        lines += [f"  {format_spec(spec)}" for spec in self.solutions]
        lines.append(
            f"nodes {c.nodes_visited}, bound prunes {c.pruned_by_bound},"
            f" symmetry prunes {c.pruned_by_symmetry}"
        )
        return "\n".join(lines)


class _StopShard(Exception):
    """Internal unwind for budget exhaustion / find-first early stop / stop flag."""


#: The stop flag of the pool this process works for, set by the pool's
#: initializer in each worker; None in every other process.
_stop_flag = None


def _set_stop_flag(flag) -> None:
    """Pool initializer: remember the flag the reader raises when it stops reading."""
    global _stop_flag
    _stop_flag = flag


@lru_cache(maxsize=2)
def _pair_masks(m: int) -> list[int]:
    """``pair[t]``: the residues ``+-t``, the two differences of shifts ``t``
    apart. A negative ``t`` reads the same mask, since ``pair[-t]`` is
    ``pair[m - t]``. Built once per modulus per process."""
    return [(1 << t) | (1 << (-t % m)) for t in range(m)]


def _support_cut(uncovered: int, live: list, r: int, m: int, count: int) -> int:
    """How many of a node's first ``count`` children to place; 0 means the
    node dies. The node has ``r`` offsets still to place from its ``live``
    (candidate, mask, gain) triples, and they must cover ``uncovered``.

    A candidate set fails the support test when more than ``r*(r-1)``
    uncovered residues lie outside the union of its masks, or when one of
    those is no difference ``+-(f2 - f1)`` of two of its values. Child ``i``
    and every later one take all ``r`` offsets from ``live[i:]``, and the
    test is monotone in ``i``. One backward pass grows the suffix from the
    last candidate with its union and difference set (``vals`` and ``negs``
    hold its values ``f`` and ``m - f``; a new, smaller value ``w`` adds
    ``f - w`` and ``m - (f - w)``) and stops at the first suffix that
    passes, from index ``count - 1`` down. Offsets lie in ``[2, m-2]``, so
    ``0 < f - w < m`` and every difference is one of the ``m`` bits.
    """
    union = diffs = vals = negs = 0
    most = r * (r - 1)
    for i in range(len(live) - 1, -1, -1):
        w, x, _ = live[i]
        union |= x
        diffs |= vals >> w | negs << w
        vals |= 1 << w
        negs |= 1 << m - w
        if i < count:
            outside = uncovered & ~union
            if outside.bit_count() <= most and not outside & ~diffs:
                return i + 1
    return 0


def _run_shard(args: tuple[SearchTask, int | None, int | None]) -> tuple[SearchCounters, list[PhiSpec], bool]:
    """Explore the subtree where the first free position takes ``shard_value``.

    ``shard_value`` is None when the prefix pins every offset: the prefix is
    then the only candidate and no node is placed. A shard value beyond
    ``m - a_1`` never reaches here (see ``_plan``).
    """
    task, shard_value, budget = args
    m, d = task.m, task.d
    pair = _pair_masks(m)
    # bound_add[k]: most residues the d - k shifts still to add to k can add.
    bound_add = [(d - k) * 2 * k + (d - k) * (d - k - 1) for k in range(d + 1)]
    full = (1 << m) - 1
    counters = SearchCounters()
    solutions: list[PhiSpec] = []
    find_first = task.mode == "find-first"
    stop = _stop_flag

    prefix = task.prefix
    sym_cap = m - (prefix[0] if prefix else shard_value)

    # The connection set of the walk's current node and its coverage; the
    # prefix is not counted as nodes.
    shifts = [*FIXED_SHIFTS, *prefix]
    covered = 1
    for i, s in enumerate(shifts):
        for t in shifts[:i]:
            covered |= pair[s - t]

    def accept() -> None:
        spec = PhiSpec(m, tuple(shifts[len(FIXED_SHIFTS) :]))
        if canonicalize(spec) == spec:
            counters.solutions_found += 1
            solutions.append(spec)
            if find_first:
                raise _StopShard
        else:
            counters.pruned_by_symmetry += 1

    def expand(covered: int, live: list, count: int) -> None:
        # Place each of the first ``count`` live (candidate, mask against
        # shifts, gain) triples of the current node and test the child in this
        # loop: only children that live are expanded in turn.
        k = len(shifts) + 1
        r = d - k
        for i in range(count):
            if budget is not None and counters.nodes_visited >= budget:
                counters.budget_stops += 1
                raise _StopShard
            if stop is not None and not counters.nodes_visited & 63 and stop.is_set():
                raise _StopShard
            counters.nodes_visited += 1
            v, mask_v, _ = live[i]
            shifts.append(v)
            if r == 0:
                accept()
            else:
                child_covered = covered | mask_v
                missing = m - child_covered.bit_count()
                room = bound_add[k] - missing
                least = 2 * k - room
                uncovered = full ^ child_covered
                child = [
                    (w, x, g)
                    for w, mw, _ in live[i + 1 :]
                    if (g := ((x := mw | pair[w - v]) & uncovered).bit_count()) >= least
                ]
                # Only candidates followed by enough live ones to finish the tuple.
                count = len(child) - r + 1
                if count > 0 and r > 1:
                    # Sum of gains, void with no slack, then support, which
                    # also cuts the child's loop. With one offset left every
                    # live candidate completes a cover.
                    if room > 0:
                        gains = sorted(g for _, _, g in child)
                        if sum(gains[-r:]) + r * (r - 1) < missing:
                            count = 0
                    if count > 0:
                        count = _support_cut(uncovered, child, r, m, count)
                if count > 0:
                    expand(child_covered, child, count)
                else:
                    counters.pruned_by_bound += 1
            shifts.pop()

    exhausted = True
    v = shard_value
    try:
        if v is None:
            if covered.bit_count() == m:
                accept()
        else:
            k = len(shifts)
            if k + 1 < d:
                # Candidates beyond m - a_1 are never listed.
                counters.pruned_by_symmetry += (m - 2) - sym_cap
            # The prefix node's live candidates from v on; the shard places only v.
            # A candidate's waste, 2k minus its gain, may not exceed the slack.
            least = 2 * k - (covered.bit_count() + bound_add[k] - m)
            uncovered = full ^ covered
            live = []
            for w in range(v, sym_cap + 1):
                mw = 0
                for b in shifts:
                    mw |= pair[w - b]
                if (g := (mw & uncovered).bit_count()) >= least:
                    live.append((w, mw, g))
            if live and live[0][0] == v and len(live) >= d - k:
                expand(covered, live, 1)
    except _StopShard:
        # A find-first stop after the only candidate of a pinned prefix
        # leaves nothing unvisited.
        exhausted = v is None
    return counters, solutions, exhausted


def _plan(task: SearchTask) -> tuple[list[tuple[SearchTask, int | None, int | None]], int]:
    """The task's shard jobs in shard order, and how many shard values lie
    beyond ``m - a_1`` and so are counted here instead of run."""
    if len(task.prefix) == task.d - 3:
        shard_values: list[int | None] = [None]
    else:
        start = task.prefix[-1] + 1 if task.prefix else 2
        shard_values = list(range(start, task.m - 1))
    if task.node_budget is None:
        budgets = [None] * len(shard_values)
    else:
        share, extra = divmod(task.node_budget, max(1, len(shard_values)))
        budgets = [share + (i < extra) for i in range(len(shard_values))]
    jobs = []
    for v, budget in zip(shard_values, budgets):
        a1 = task.prefix[0] if task.prefix else v
        if v is None or v <= task.m - a1:
            jobs.append((task, v, budget))
    return jobs, len(shard_values) - len(jobs)


def _shard_size(task: SearchTask, v: int | None) -> int:
    """A deterministic size estimate of shard ``v``: the ways to choose the
    offsets left after ``v`` from the candidates in ``(v, m - a_1]``, plus
    one."""
    if v is None:
        return 1
    a1 = task.prefix[0] if task.prefix else v
    return comb(task.m - a1 - v, task.d - 4 - len(task.prefix)) + 1


def _batches(jobs: list, workers: int) -> list[list]:
    """A task's shard jobs cut, in order, into runs of consecutive shards,
    each closed once it holds ``1 / (BATCHES_PER_WORKER * workers)`` of the
    task's estimated size; so at most ``BATCHES_PER_WORKER * workers + 1``."""
    sizes = [_shard_size(task, v) for task, v, _ in jobs]
    share = sum(sizes)
    batches: list[list] = [[]]
    held = 0
    for job, size in zip(jobs, sizes):
        batches[-1].append(job)
        held += size
        if held * BATCHES_PER_WORKER * workers >= share:
            batches.append([])
            held = 0
    return [batch for batch in batches if batch]


def _run_batch(jobs: list) -> list[tuple[SearchCounters, list[PhiSpec], bool]]:
    """Run consecutive shard jobs of one task in order; their results.

    A find-first batch ends after its first shard with a solution, and every
    batch ends once the pool's stop flag is raised. A budget-stopped shard
    does not end it.
    """
    results = []
    for job in jobs:
        results.append(result := _run_shard(job))
        if result[1] and job[0].mode == "find-first" or _stop_flag is not None and _stop_flag.is_set():
            break
    return results


def _reports(tasks: list[SearchTask], workers: int) -> Iterator[SearchReport]:
    """Each task's merged report, in task order.

    One worker runs each task's shards as one batch. With ``workers > 1``
    one pool serves every task, and every task's batches are queued at
    once, in order. Close the generator once done reading
    (``contextlib.closing``): closing raises the stop flag, cancels what is
    still queued and waits for the workers to exit.
    """
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    plans = [_plan(task) for task in tasks]
    if workers == 1 or sum(len(jobs) for jobs, _ in plans) <= 1:
        for task, (jobs, dead) in zip(tasks, plans):
            yield _merge(task, _run_batch(jobs), dead)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    stop = multiprocessing.Event()
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_set_stop_flag, initargs=(stop,))
    try:
        queued = [[pool.submit(_run_batch, batch) for batch in _batches(jobs, workers)] for jobs, _ in plans]
        for task, (_, dead), futures in zip(tasks, plans, queued):
            yield _merge(task, chain.from_iterable(future.result() for future in futures), dead)
    finally:
        stop.set()
        pool.shutdown(cancel_futures=True)


def search_offsets(task: SearchTask, workers: int = 1) -> SearchReport:
    """Enumerate canonical offset tuples with full coverage for ``task``.

    Returns the canonical, sorted, duplicate-free solution list together
    with work counters. ``exhausted`` is True only when the task's whole
    candidate space was visited. A pool started for ``workers > 1`` is shut
    down before the call returns.
    """
    with closing(_reports([task], workers)) as reports:
        return next(reports)


def _merge(task: SearchTask, results, dead: int) -> SearchReport:
    """Fold shard results in order; find-first stops after the first shard
    with a solution. The ``dead`` shards come last and are counted only when
    every shard before them was read."""
    counters = SearchCounters()
    solutions: list[PhiSpec] = []
    exhausted = True
    for shard_counters, shard_solutions, shard_exhausted in results:
        counters.add(shard_counters)
        solutions.extend(shard_solutions)
        exhausted = exhausted and shard_exhausted
        if task.mode == "find-first" and solutions:
            break
    else:
        counters.pruned_by_symmetry += dead
    return SearchReport(task=task, solutions=tuple(solutions), counters=counters, exhausted=exhausted)


@dataclass(frozen=True)
class MaxMResult:
    """A downward scan: the find-first report of each modulus scanned, from
    ``m_high`` down. Only the last report can hold a solution or a budget
    stop, since the scan ends at the first of either."""

    d: int
    m_low: int
    m_high: int
    reports: dict[int, SearchReport] = field(hash=False)

    @property
    def _last(self) -> SearchReport | None:
        return next(reversed(self.reports.values()), None)

    @property
    def best_m(self) -> int | None:
        last = self._last
        return last.task.m if last is not None and last.solutions else None

    @property
    def witnesses(self) -> tuple[PhiSpec, ...]:
        last = self._last
        return last.solutions if last is not None else ()

    @property
    def conclusive(self) -> bool:
        """False when a budget stopped the scan before a witness was found."""
        last = self._last
        return last is None or bool(last.solutions) or not last.counters.budget_stops

    @property
    def verified_down_to(self) -> int | None:
        """Smallest modulus in the contiguous range below m_high proven solution-free."""
        settled = [m for m, rep in self.reports.items() if not (rep.solutions or rep.counters.budget_stops)]
        return min(settled, default=None)

    def to_json_dict(self) -> dict:
        """Deterministic JSON payload."""
        return {
            "d": self.d,
            "from": self.m_low,
            "to": self.m_high,
            "bestM": self.best_m,
            "witnesses": [format_spec(w) for w in self.witnesses],
            "conclusive": self.conclusive,
            "perM": [
                {
                    "m": m,
                    "solutions": [format_spec(s) for s in rep.solutions],
                    "exhausted": rep.exhausted,
                }
                for m, rep in self.reports.items()
            ],
        }

    def to_text(self) -> str:
        span = f"[{self.m_low}, {self.m_high}]"
        if self.best_m is not None:
            lines = [f"largest modulus in {span} with a witness: {self.best_m}"]
            return "\n".join(lines + [f"  {format_spec(w)}" for w in self.witnesses])
        if self.conclusive:
            return f"no witness for any modulus in {span}"
        return "inconclusive: budget ran out before the range was settled"


def max_m(
    d: int,
    m_low: int,
    m_high: int,
    node_budget: int | None = None,
    workers: int = 1,
) -> MaxMResult:
    """Largest modulus in ``[m_low, m_high]`` admitting a full-coverage tuple.

    Scans downward with a find-first search per modulus, all run through
    one pool when ``workers > 1``, and stops at the first hit. Moduli below
    the degree cannot host enough distinct offsets and are skipped. If a
    budget runs out before a modulus is settled the scan stops and the
    result is marked inconclusive.
    """
    cap = max_m_upper_bound(d)
    if not 5 <= m_low <= m_high <= cap:
        raise ValueError(f"need 5 <= m_low <= m_high <= {cap}")
    reports: dict[int, SearchReport] = {}
    tasks = [
        SearchTask(d=d, m=m, mode="find-first", node_budget=node_budget)
        for m in range(m_high, max(m_low, d) - 1, -1)
    ]
    with closing(_reports(tasks, workers)) as scan:
        for report in scan:
            reports[report.task.m] = report
            if report.solutions or report.counters.budget_stops:
                break
    return MaxMResult(d=d, m_low=m_low, m_high=m_high, reports=reports)
