"""Exhaustive enumeration of offset tuples with full two-step residue coverage.

A phi graph is its connection set ``B = FIXED_SHIFTS + offsets``, and it has
diameter at most 3 iff the differences ``B - B`` cover ``Z_m``. The search
walks ascending offset tuples ``a_1 < ... < a_{d-3}`` over ``[2, m-2]``,
growing ``B`` one offset at a time with a bitmask of ``B - B``. It checks
forward: a node whose ``B`` has ``k`` shifts carries its live candidates as
``(w, mask)`` pairs, the mask holding ``+-(w - b)`` over every ``b`` in ``B``,
the residues ``w`` would add. Placing an offset extends every mask by one pair.
The masks are ``circulant``'s: a task's root reads ``difference_mask`` and
``shift_mask``, and a placement ors in one ``pair_masks`` entry.
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
  its mask adds. Each of the ``r`` offsets still to place adds at most its
  gain at this node plus two for every offset placed between this node and
  it, so a node dies when its ``r`` largest live gains plus ``r*(r-1)`` fall
  short of the residues still uncovered. Put in wastes, the ``r`` smallest
  wastes exceed the slack; at the cap the slack is 0 and the test is void,
  so the gains are counted only for a node with slack;
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
  are never placed (``_support_cut``, which also runs the node's own test).
  It grows only the suffix's union until at most ``r*(r-1)`` uncovered
  residues lie outside it, and builds the difference set only from there,
  so most nodes it kills never build one;
* by the negation symmetry: a tuple and its negation mod ``m`` describe
  isomorphic graphs, so only canonical tuples (``circulant.canonicalize``)
  are kept, and candidates beyond ``m - a_1``, which would force a
  larger-than-negation tuple, are never listed.

A node's children are placed and tested in the node's own loop: the loop
counts each child, filters its live list and runs the tests above, accepts
leaves and recurses only into children that live, so a dead node costs no
recursive call. The shard keeps its node count and its death count per rule
in local integers, written to its ``SearchCounters`` when it ends, and
tests the node count against one threshold, the next count at which the
node budget or the read of the workers' cutoff (below) falls due.

Sharding is by the value ``v`` of the first free offset position. The
planner builds each task's root once: the prefix node's shifts, its
coverage and its live candidates up to the largest ``m - a_1`` of any
shard, with the pair table and the bound table that every shard reads.
Each shard runs from the root's window ``[v, m - a_1]``, found by
bisection. Shards whose value already exceeds ``m - a_1`` hold nothing
canonical: the planner counts them as symmetry prunes, and they are never
run. A fully pinned
prefix is a leaf that the planner settles in the calling process, with no
shard at all. The planner's result is read after every shard's. Shards are
read in ascending order and each walks its subtree lexicographically, so
the merged solution list is sorted as it is built. ``find-first`` stops the
shard that finds a solution and reads no shard after it: the report holds
the smallest canonical solution and the work of the shards up to it. A
node budget is split across the shards that run so that the shard budgets
sum to it. Reports are byte-identical for any worker count.

Every search, and every ``max_m`` scan, runs its shards through one loop,
``_work``. The shards of all its tasks form one list, in task and shard
order. A worker takes the next index from a shared counter and runs that
shard, and stops once the counter passes a shared cutoff, the last shard
the reader will read. A find-first solution lowers the cutoff to its own
shard, and a budget stop to the last shard of its task, which is where
``max_m`` stops. A shard beyond the cutoff gives up within 64 placements.
The reader merges the results in shard order and returns the reports up
to the task that holds the cutoff. The calling process is worker 0 and
runs the loop itself. Each further worker, at most one per shard, is a
plain child process that runs the same loop over the shared counter and
cutoff and sends back its results, or the exception that stopped it,
through a one-way pipe; a child that dies without reporting makes the call
raise an error naming its exit code. On any exit, an exception or an
interrupt included, the cutoff drops below every index before each child
is joined, so every worker has been reaped when the call returns.
``multiprocessing`` is imported by the first call that starts a child, so
a process that runs one worker never loads it.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from itertools import chain

from .bounds import max_m_upper_bound
from .circulant import FIXED_SHIFTS, PhiSpec, canonicalize, difference_mask, format_spec, pair_masks, shift_mask

MODES = ("find-all", "find-first")


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
        if PhiSpec(self.m, prefix).offsets != prefix:
            raise ValueError("prefix must be strictly increasing")
        object.__setattr__(self, "prefix", prefix)
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node budget must be positive")


@dataclass
class SearchCounters:
    """Work accounting.

    ``nodes_visited`` counts offset placements beyond the prefix; only live
    candidates before their node's support cut are placed, so the children
    past the cut count in neither ``nodes_visited`` nor ``pruned_by_bound``.
    ``pruned_by_bound`` counts placed nodes that died, so it never exceeds
    ``nodes_visited``, and ``1 - pruned_by_bound / nodes_visited`` is the
    share of placed nodes that were leaves or went on to place a child. It
    is the sum of three death counts, one per rule, tested in this order:
    ``pruned_by_filter`` counts nodes left with too few live candidates to
    finish the tuple after the waste filter, ``pruned_by_gains`` those whose
    largest gains fell short and ``pruned_by_support`` those that could not
    support the residues still uncovered. The three are not yet in the JSON
    or the text report. ``pruned_by_symmetry`` counts the candidates beyond
    ``m - a_1`` (once per shard), the shard values beyond it (one each) and
    the full-coverage leaves larger than their negation. ``budget_stops``
    counts shards cut by the node budget.
    """

    nodes_visited: int = 0
    pruned_by_bound: int = 0
    pruned_by_symmetry: int = 0
    solutions_found: int = 0
    budget_stops: int = 0
    pruned_by_filter: int = 0
    pruned_by_gains: int = 0
    pruned_by_support: int = 0

    def add(self, other: SearchCounters) -> None:
        self.nodes_visited += other.nodes_visited
        self.pruned_by_bound += other.pruned_by_bound
        self.pruned_by_symmetry += other.pruned_by_symmetry
        self.solutions_found += other.solutions_found
        self.budget_stops += other.budget_stops
        self.pruned_by_filter += other.pruned_by_filter
        self.pruned_by_gains += other.pruned_by_gains
        self.pruned_by_support += other.pruned_by_support

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
    """Internal unwind for budget exhaustion / find-first early stop / cutoff."""


def _support_cut(uncovered: int, live: list, r: int, m: int, count: int) -> int:
    """How many of a node's first ``count`` children to place; 0 means the
    node dies. The node has ``r`` offsets still to place from its ``live``
    (candidate, mask) pairs, and they must cover ``uncovered``.

    A candidate set fails the support test when more than ``r*(r-1)``
    uncovered residues lie outside the union of its masks, or when one of
    those is no difference ``+-(f2 - f1)`` of two of its values. Child ``i``
    and every later one take all ``r`` offsets from ``live[i:]``, and the
    test is monotone in ``i``. A backward pass grows the suffix's union from
    the last candidate until, from index ``count - 1`` down, at most
    ``r*(r-1)`` uncovered residues lie outside it. Only then does it build
    the suffix's difference set (``vals`` and ``negs`` hold its values ``f``
    and ``m - f``; a new, smaller value ``w`` adds ``f - w`` and
    ``m - (f - w)``), and it goes on growing both until the first suffix
    whose outside residues are all differences. Most nodes that die here
    die in the first phase and never build a difference set. Offsets lie in
    ``[2, m-2]``, so ``0 < f - w < m`` and every difference is one of the
    ``m`` bits.
    """
    outside = uncovered
    most = r * (r - 1)
    for j in range(len(live) - 1, -1, -1):
        outside &= ~live[j][1]
        if j < count and outside.bit_count() <= most:
            break
    else:
        return 0
    diffs = vals = negs = 0
    for w, _ in live[:j:-1]:
        diffs |= vals >> w | negs << w
        vals |= 1 << w
        negs |= 1 << m - w
    for i in range(j, -1, -1):
        w, x = live[i]
        outside &= ~x
        diffs |= vals >> w | negs << w
        vals |= 1 << w
        negs |= 1 << m - w
        if not outside & ~diffs:
            return i + 1
    return 0


@dataclass(frozen=True)
class _Root:
    """A task's prefix node, built once by ``_plan`` and shared by its shards,
    with the task's constants that every shard reads.

    ``shifts`` is the prefix's connection set and ``covered`` its coverage.
    ``live`` holds its live (candidate, mask) pairs, ascending, from the
    first shard value up to the largest ``m - a_1`` of any shard. ``pair``
    is ``circulant.pair_masks(m)``, and ``bound_add[k]`` the most residues
    the ``d - k`` shifts still to add to a set of ``k`` can add."""

    task: SearchTask
    shifts: tuple[int, ...]
    covered: int
    live: list
    pair: list[int]
    bound_add: list[int]


def _sym_cap(task: SearchTask, v: int) -> int:
    """``m - a_1`` in shard ``v``: no canonical tuple there holds a larger offset."""
    return task.m - (task.prefix[0] if task.prefix else v)


def _accept(spec: PhiSpec, counters: SearchCounters, solutions: list[PhiSpec]) -> bool:
    """Settle a full-coverage leaf: a solution when canonical, else a symmetry
    prune. True when it is kept."""
    if canonicalize(spec) == spec:
        counters.solutions_found += 1
        solutions.append(spec)
        return True
    counters.pruned_by_symmetry += 1
    return False


def _run_shard(
    root: _Root, v: int, budget: int | None, index: int, shared
) -> tuple[SearchCounters, list[PhiSpec], bool]:
    """Explore the subtree where the first free position takes ``v``.

    The shard's live list is the root's window ``[v, m - a_1]``, found by
    bisection, and the shard places only ``v``. A shard value beyond
    ``m - a_1`` never reaches here (see ``_plan``). Unless ``shared`` is
    None, shard ``index`` gives up once the workers' cutoff ``shared[1]``
    falls below it, read before its first placement and after every 64th.
    The node count is held in a local and tested against ``due``, the next
    count at which the budget or that read falls due; when both do, the
    budget stops the shard.
    """
    m, d = root.task.m, root.task.d
    pair, bound_add = root.pair, root.bound_add
    full = (1 << m) - 1
    counters = SearchCounters()
    solutions: list[PhiSpec] = []
    find_first = root.task.mode == "find-first"
    # The connection set of the walk's current node; the prefix is not
    # counted as nodes.
    shifts = list(root.shifts)
    nodes = by_filter = by_gains = by_support = due = 0

    def expand(covered: int, live: list, count: int) -> None:
        # Place each of the first ``count`` live (candidate, mask against
        # shifts) pairs of the current node and test the child in this loop:
        # only children that live are expanded in turn.
        nonlocal nodes, by_filter, by_gains, by_support, due
        k = len(shifts) + 1
        r = d - k
        for i in range(count):
            if nodes == due:
                # The budget first, then the cutoff read; ``due`` moves on to
                # the next count at which either falls due, -1 for never.
                if nodes == budget:
                    counters.budget_stops += 1
                    raise _StopShard
                if shared is None:
                    due = -1 if budget is None else budget
                elif shared[1] < index:
                    raise _StopShard
                else:
                    due = nodes + 64 if budget is None else min(nodes + 64, budget)
            nodes += 1
            v, mask_v = live[i]
            shifts.append(v)
            if r == 0:
                if _accept(PhiSpec(m, tuple(shifts[len(FIXED_SHIFTS) :])), counters, solutions) and find_first:
                    raise _StopShard
            else:
                child_covered = covered | mask_v
                missing = m - child_covered.bit_count()
                room = bound_add[k] - missing
                least = 2 * k - room
                uncovered = full ^ child_covered
                child = [
                    (w, x) for w, mw in live[i + 1 :] if ((x := mw | pair[w - v]) & uncovered).bit_count() >= least
                ]
                # Only candidates followed by enough live ones to finish the
                # tuple; with one offset left every live candidate completes
                # a cover. Then the sum of gains, void with no slack, and
                # support, which also cuts the child's loop.
                count = len(child) - r + 1
                if count < 1:
                    by_filter += 1
                elif (
                    r > 1
                    and room > 0
                    and sum(sorted([(x & uncovered).bit_count() for _, x in child])[-r:]) + r * (r - 1) < missing
                ):
                    by_gains += 1
                elif r > 1 and not (count := _support_cut(uncovered, child, r, m, count)):
                    by_support += 1
                else:
                    expand(child_covered, child, count)
            shifts.pop()

    sym_cap = _sym_cap(root.task, v)
    if len(shifts) + 1 < d:
        # Candidates beyond m - a_1 are never listed.
        counters.pruned_by_symmetry += (m - 2) - sym_cap
    live = root.live[bisect_left(root.live, (v,)) : bisect_left(root.live, (sym_cap + 1,))]
    try:
        if live and live[0][0] == v and len(live) >= d - len(shifts):
            expand(root.covered, live, 1)
        exhausted = True
    except _StopShard:
        exhausted = False
    counters.nodes_visited = nodes
    counters.pruned_by_filter, counters.pruned_by_gains, counters.pruned_by_support = by_filter, by_gains, by_support
    counters.pruned_by_bound = by_filter + by_gains + by_support
    return counters, solutions, exhausted


def _plan(task: SearchTask) -> tuple[_Root, list[tuple[int, int | None]], tuple[SearchCounters, list[PhiSpec], bool]]:
    """The task's root, its shard jobs ``(v, budget)`` in shard order, and the
    planner's own result, which ``_merge`` folds in after the shards'.

    A fully pinned prefix is a leaf, settled here, and runs no shard.
    Otherwise the result counts the shard values beyond ``m - a_1`` as
    symmetry prunes: they hold nothing canonical and are never run. The
    budget is split over the shards that run.
    """
    m, d, prefix = task.m, task.d, task.prefix
    shifts = PhiSpec(m, prefix).shifts
    k = len(shifts)
    covered = difference_mask(m, shifts)
    pair = pair_masks(m)
    bound_add = [(d - j) * 2 * j + (d - j) * (d - j - 1) for j in range(d + 1)]
    if k == d:
        counters, solutions = SearchCounters(), []
        if covered.bit_count() == m:
            _accept(PhiSpec(m, prefix), counters, solutions)
        return _Root(task, shifts, covered, [], pair, bound_add), [], (counters, solutions, True)
    start = prefix[-1] + 1 if prefix else 2
    # A candidate's waste, 2k minus its gain, may not exceed the slack.
    least = 2 * k - (covered.bit_count() + bound_add[k] - m)
    live = [
        (w, x)
        for w in range(start, _sym_cap(task, start) + 1)
        if ((x := shift_mask(m, w, shifts)) & ~covered).bit_count() >= least
    ]
    values = range(start, m - 1)
    runs = [v for v in values if v <= _sym_cap(task, v)]
    if task.node_budget is None:
        budgets = [None] * len(runs)
    else:
        share, extra = divmod(task.node_budget, max(1, len(runs)))
        budgets = [share + (i < extra) for i in range(len(runs))]
    root = _Root(task, shifts, covered, live, pair, bound_add)
    planned = SearchCounters(pruned_by_symmetry=len(values) - len(runs))
    return root, list(zip(runs, budgets)), (planned, [], True)


def _work(shards: list, state, lock=None) -> dict[int, tuple[SearchCounters, list[PhiSpec], bool]]:
    """Run shards in order, each the next index of the shared counter
    ``state[0]``, until that index passes the shared cutoff ``state[1]``;
    their results by index.

    A find-first shard with a solution lowers the cutoff to its own index,
    and a budget-stopped shard to the last shard of its task. ``lock``
    guards both values when workers share them; without one the caller is
    the only worker, so no shard runs beyond the cutoff and none polls it.
    """
    results = {}
    while True:
        with lock or nullcontext():
            i = state[0]
            state[0] = i + 1
        if i > state[1]:
            return results
        root, v, budget, last = shards[i]
        results[i] = counters, solutions, _ = _run_shard(root, v, budget, i, state if lock else None)
        found = solutions and root.task.mode == "find-first"
        if found or counters.budget_stops:
            with lock or nullcontext():
                state[1] = min(state[1], i if found else last)


def _child(shards: list, state, lock, writer) -> None:
    """A child worker: ``_work`` over the call's shards, whose results, or the
    exception that stopped it, go back through ``writer``. A failing child
    drops the cutoff below every index, so the other workers stop too."""
    try:
        outcome = _work(shards, state, lock)
    except BaseException as exc:
        state[1] = -1
        outcome = exc
    # The send fails only once the caller has left and closed its end.
    with writer, suppress(OSError):
        writer.send(outcome)


def _search(tasks: list[SearchTask], workers: int) -> list[SearchReport]:
    """The merged reports of ``tasks``, in order, up to the task that holds
    the cutoff: every task's when no shard lowered it.

    The shards of all tasks form one list in task and shard order. The
    calling process is worker 0 and runs ``_work`` over it; each further
    worker, up to one per shard, is a child process that shares the counter
    and the cutoff and sends its results back through a pipe. On any exit
    the cutoff drops below every index, so the shards still running give
    up, before every child is joined.
    """
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    plans = [_plan(task) for task in tasks]
    shards = []
    for root, jobs, _ in plans:
        last = len(shards) + len(jobs) - 1
        shards += [(root, v, budget, last) for v, budget in jobs]
    state = [0, len(shards) - 1]
    extra = min(workers, len(shards)) - 1
    if extra < 1:
        results = _work(shards, state)
    else:
        import multiprocessing

        # Raw shared values under a lock held only in ``_work``'s ``with``
        # blocks: an interrupt cannot leave that lock held, as it can one
        # taken inside a synchronized array's Python-level accessor.
        shared, lock = multiprocessing.RawArray("q", state), multiprocessing.Lock()
        children, readers = [], []
        try:
            for _ in range(extra):
                reader, writer = multiprocessing.Pipe(duplex=False)
                readers.append(reader)
                with writer:
                    child = multiprocessing.Process(target=_child, args=(shards, shared, lock, writer))
                    child.start()
                children.append(child)
            results = _work(shards, shared, lock)
            for child, reader in zip(children, readers):
                try:
                    outcome = reader.recv()
                except EOFError:
                    child.join()
                    raise RuntimeError(f"a search worker exited with code {child.exitcode} before it reported") from None
                if isinstance(outcome, BaseException):
                    raise outcome
                results.update(outcome)
            state = shared[:]
        finally:
            shared[1] = -1
            for reader in readers:
                reader.close()
            for child in children:
                child.join()
    reports: list[SearchReport] = []
    end = 0
    for root, jobs, planned in plans:
        start, end = end, end + len(jobs)
        reports.append(_merge(root.task, chain((results[i] for i in range(start, end)), [planned])))
        if end > state[1]:
            break
    return reports


def search_offsets(task: SearchTask, workers: int = 1) -> SearchReport:
    """Enumerate canonical offset tuples with full coverage for ``task``.

    Returns the canonical, sorted, duplicate-free solution list together
    with work counters. ``exhausted`` is True only when the task's whole
    candidate space was visited. Every child process started for
    ``workers > 1`` is joined before the call returns.
    """
    return _search([task], workers)[0]


def _merge(task: SearchTask, results) -> SearchReport:
    """Fold shard results in order, the planner's last; find-first stops after
    the first result with a solution, so the planner's count of shard values
    beyond ``m - a_1`` is folded in only when every shard was read."""
    counters = SearchCounters()
    solutions: list[PhiSpec] = []
    exhausted = True
    for shard_counters, shard_solutions, shard_exhausted in results:
        counters.add(shard_counters)
        solutions.extend(shard_solutions)
        exhausted = exhausted and shard_exhausted
        if task.mode == "find-first" and solutions:
            break
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

    Scans downward with a find-first search per modulus, all run by the
    same workers when ``workers > 1``, and stops at the first hit. Moduli
    below the degree cannot host enough distinct offsets and are skipped.
    If a budget runs out before a modulus is settled the scan stops and the
    result is marked inconclusive.
    """
    cap = max_m_upper_bound(d)
    if not 5 <= m_low <= m_high <= cap:
        raise ValueError(f"need 5 <= m_low <= m_high <= {cap}")
    tasks = [
        SearchTask(d=d, m=m, mode="find-first", node_budget=node_budget)
        for m in range(m_high, max(m_low, d) - 1, -1)
    ]
    reports = {report.task.m: report for report in _search(tasks, workers)}
    return MaxMResult(d=d, m_low=m_low, m_high=m_high, reports=reports)
