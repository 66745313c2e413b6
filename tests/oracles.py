"""Independent reference implementations used to validate the library.

Everything here deliberately avoids the library's bitset internals: plain
dictionaries, deques and quadruple loops only, so agreement is meaningful.
The one exception is ``bound_only_search_oracle``, the search engine's
previous algorithm, which keeps its own residue masks as plain integers.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from bipmoore.graphs import LEFT, RIGHT, BipartiteGraph, Vertex

INFINITE = float("inf")


def adjacency_dict(g: BipartiteGraph) -> dict[Vertex, list[Vertex]]:
    adj: dict[Vertex, list[Vertex]] = {v: [] for v in g.vertices()}
    for i in range(g.n_left):
        for j in g.left_neighbors(i):
            adj[(LEFT, i)].append((RIGHT, j))
            adj[(RIGHT, j)].append((LEFT, i))
    return adj


def bfs_oracle(g: BipartiteGraph, source: Vertex) -> dict[Vertex, float]:
    adj = adjacency_dict(g)
    dist: dict[Vertex, float] = {v: INFINITE for v in adj}
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == INFINITE:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def diameter_oracle(g: BipartiteGraph) -> float:
    best = 0
    for v in g.vertices():
        dist = bfs_oracle(g, v)
        ecc = max(dist.values())
        if ecc == INFINITE:
            return INFINITE
        best = max(best, ecc)
    return best


def girth_oracle(g: BipartiteGraph) -> float:
    """Shortest cycle via: for each edge, shortest alternative path + 1."""
    best = INFINITE
    for i in range(g.n_left):
        for j in g.left_neighbors(i):
            adj = adjacency_dict(g)
            adj[(LEFT, i)].remove((RIGHT, j))
            adj[(RIGHT, j)].remove((LEFT, i))
            dist: dict[Vertex, float] = {v: INFINITE for v in adj}
            dist[(LEFT, i)] = 0
            queue = deque([(LEFT, i)])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if dist[w] == INFINITE:
                        dist[w] = dist[u] + 1
                        queue.append(w)
            if dist[(RIGHT, j)] + 1 < best:
                best = dist[(RIGHT, j)] + 1
    return best


def four_cycles_oracle(g: BipartiteGraph) -> set[tuple[tuple[int, int], tuple[int, int]]]:
    """All 4-cycles as ((x1, x2), (y1, y2)) with both pairs ascending."""
    out = set()
    for i1, i2 in combinations(range(g.n_left), 2):
        for j1, j2 in combinations(range(g.n_right), 2):
            if (
                g.has_edge(i1, j1)
                and g.has_edge(i1, j2)
                and g.has_edge(i2, j1)
                and g.has_edge(i2, j2)
            ):
                out.add(((i1, i2), (j1, j2)))
    return out


def pairwise_labels_oracle(g: BipartiteGraph) -> dict[tuple[tuple[int, int], tuple[int, int]], str]:
    """4-cycle labels by the pairwise rule, keyed like ``four_cycles_oracle``.

    A cycle's label is the longest path it shares with any other cycle
    through one of its vertices: ``|L & L'| * |R & R'|`` for left pairs L, L'
    and right pairs R, R', maximized over those cycles (``s0`` for none).
    """
    cycles = [
        (left, right)
        for left in combinations(range(g.n_left), 2)
        for right in combinations(
            sorted(set(g.left_neighbors(left[0])) & set(g.left_neighbors(left[1]))), 2
        )
    ]
    through: dict[Vertex, list[int]] = {}
    for k, (left, right) in enumerate(cycles):
        for v in [(LEFT, i) for i in left] + [(RIGHT, j) for j in right]:
            through.setdefault(v, []).append(k)
    labels = {}
    for k, (left, right) in enumerate(cycles):
        others = {o for i in left for o in through[(LEFT, i)]}
        others |= {o for j in right for o in through[(RIGHT, j)]}
        others.discard(k)
        longest = max(
            (len(set(left) & set(cycles[o][0])) * len(set(right) & set(cycles[o][1])) for o in others),
            default=0,
        )
        labels[(left, right)] = ("s0", "s1", "s2")[longest]
    return labels


def pair_invariant_oracle(g: BipartiteGraph) -> tuple:
    """Per-side histograms of common-neighbour counts over same-side vertex
    pairs, counted by nested index loops over neighbour sets, as a sorted
    side pair (the shape ``structure._pair_invariant`` returns)."""
    adj = adjacency_dict(g)
    left = [set(adj[(LEFT, i)]) for i in range(g.n_left)]
    right = [set(adj[(RIGHT, j)]) for j in range(g.n_right)]

    def side_hist(sets: list[set]) -> tuple:
        hist: dict[int, int] = {}
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                common = len(sets[a] & sets[b])
                hist[common] = hist.get(common, 0) + 1
        return tuple(sorted(hist.items()))

    return tuple(sorted((side_hist(left), side_hist(right))))


def components_oracle(groups) -> set[frozenset]:
    """Connected components by breadth-first search, where each group of
    items joins all of its members."""
    adj: dict = {}
    for group in groups:
        for a in group:
            adj.setdefault(a, set()).update(group)
    seen: set = set()
    out = set()
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        comp, queue = {start}, deque([start])
        while queue:
            for b in adj[queue.popleft()]:
                if b not in seen:
                    seen.add(b)
                    comp.add(b)
                    queue.append(b)
        out.add(frozenset(comp))
    return out


def diameter_at_most_oracle(g: BipartiteGraph, bound: int) -> bool:
    """Whether every vertex reaches every other within ``bound`` steps.

    Breadth-first search from each vertex, stopping at the first vertex that
    leaves some vertex farther away. Neighbour lists are read from the graph
    once, when first needed.
    """
    adj: dict[Vertex, list[Vertex]] = {}
    for source in g.vertices():
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if dist[u] == bound:
                continue
            if u not in adj:
                adj[u] = g.neighbors(u)
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) < g.order:
            return False
    return True


def naive_coverage_solutions(d: int, m: int) -> set[tuple[int, ...]]:
    """Canonical offset tuples whose graphs have BFS diameter at most 3.

    No pruning, no residue arithmetic: every tuple is built as a graph and
    measured by breadth-first search.
    """
    from bipmoore.circulant import PhiSpec, build_phi_spec

    n_offsets = d - 3
    found: set[tuple[int, ...]] = set()
    for offsets in combinations(range(2, m - 1), n_offsets):
        if diameter_at_most_oracle(build_phi_spec(PhiSpec(m, offsets)), 3):
            negated = tuple(sorted(m - a for a in offsets))
            found.add(min(offsets, negated))
    return found


def count_multisets_oracle(total: int, lo: int, hi: int, n_min: int, n_max: int) -> int:
    """Count part multisets by dynamic programming over part values."""
    table = [[0] * (total + 1) for _ in range(n_max + 1)]
    table[0][0] = 1
    for p in range(lo, hi + 1):
        for k in range(1, n_max + 1):
            row, prev = table[k], table[k - 1]
            for s in range(p, total + 1):
                row[s] += prev[s - p]
    return sum(table[k][total] for k in range(n_min, n_max + 1))


def random_bipartite(rng, n_left: int, n_right: int, p: float) -> BipartiteGraph:
    lists = [
        [j for j in range(n_right) if rng.random() < p] for _ in range(n_left)
    ]
    return BipartiteGraph.from_neighbor_lists(lists, n_right)


class _FirstSolution(Exception):
    """Unwinds the bound-only walk at its first solution."""


def bound_only_search_oracle(d: int, m: int, mode: str = "find-all"):
    """The offset search as a bound-only walk, kept as the engine's reference.

    This is the walk ``bipmoore.search`` used before forward checking, run
    serially over the shards ``a_1 = 2, ..., m - 2``. Every offset is placed
    and counted as a node first; the node is then cut when the admissibility
    bound ``covered + r*(6 + 2k) + r*(r - 1) < m`` holds, with ``k`` offsets
    chosen and ``r`` still to place. Candidates beyond ``m - a_1`` are cut
    (and counted) at every extension, and a full-coverage leaf larger than
    its negation counts as a symmetry prune. ``find-first`` stops at the
    first solution.

    Returns the canonical solutions as sorted offset tuples and the counters
    ``(solutions_found, nodes_visited, pruned_by_bound, pruned_by_symmetry)``.
    """
    n = d - 3

    def mask(values) -> int:
        out = 0
        for value in values:
            out |= 1 << (value % m)
        return out

    units = {a: mask((a, -a, a + 1, -a - 1, a - 1, -a + 1)) for a in range(2, m - 1)}
    bound_add = [(n - k) * (6 + 2 * k) + (n - k) * (n - k - 1) for k in range(n + 1)]
    counts = {"solutions": 0, "nodes": 0, "bound": 0, "symmetry": 0}
    solutions: list[tuple[int, ...]] = []

    def place(v: int, chosen: list[int], covered: int, sym_cap: int) -> None:
        counts["nodes"] += 1
        new = covered | units[v]
        for b in chosen:
            new |= 1 << ((v - b) % m)
            new |= 1 << ((b - v) % m)
        chosen.append(v)
        k = len(chosen)
        if new.bit_count() + bound_add[k] < m:
            counts["bound"] += 1
        elif k == n:
            offsets = tuple(chosen)
            if offsets <= tuple(sorted(m - a for a in offsets)):
                counts["solutions"] += 1
                solutions.append(offsets)
                if mode == "find-first":
                    raise _FirstSolution
            else:
                counts["symmetry"] += 1
        else:
            for w in range(v + 1, m - 1):
                if w > sym_cap:
                    counts["symmetry"] += (m - 1) - w
                    break
                place(w, chosen, new, sym_cap)
        chosen.pop()

    base = mask((0, 1, -1, 2, -2))
    try:
        for a1 in range(2, m - 1):
            if a1 > m - a1:
                counts["symmetry"] += 1
            else:
                place(a1, [], base, m - a1)
    except _FirstSolution:
        pass
    return solutions, (counts["solutions"], counts["nodes"], counts["bound"], counts["symmetry"])
