"""Independent reference implementations used to validate the library.

Everything here deliberately avoids the library's bitset internals: plain
dictionaries, deques and quadruple loops only, so agreement is meaningful.
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


def naive_coverage_solutions(d: int, m: int) -> set[tuple[int, ...]]:
    """Canonical offset tuples whose graphs have BFS diameter at most 3.

    No pruning, no residue arithmetic: every tuple is built as a graph and
    measured with the dictionary BFS above.
    """
    from bipmoore.circulant import PhiSpec, build_phi_spec

    n_offsets = d - 3
    found: set[tuple[int, ...]] = set()
    for offsets in combinations(range(2, m - 1), n_offsets):
        spec = PhiSpec(m, offsets)
        g = build_phi_spec(spec)
        if diameter_oracle(g) <= 3:
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
