"""Independent reference implementations used to validate the library.

Everything here deliberately avoids the library's bitset internals: plain
dictionaries, deques and quadruple loops only, so agreement is meaningful.
The exceptions are earlier algorithms kept as references for their
replacements: ``bound_only_search_oracle``, the search engine's walk before
forward checking, which keeps its own residue masks as plain integers;
``decomposition_oracle``, the structure layer's walk over 4-cycle objects,
which reads common-neighbour counts from the graph's bitset rows;
``full_round_isomorphism``, the isomorphism search before it refined one
side at a time, over vertex id lists it builds from ``left_neighbors``; and
``verify_isomorphism_oracle``, the edge-by-edge map check before it read the
graph's stored neighbour lists, which reads the set bits of the rows.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import cache
from itertools import combinations, permutations, product

from bipmoore.graphs import LEFT, RIGHT, BipartiteGraph, Vertex, bits
from bipmoore.structure import (
    Decomposition,
    FourCycle,
    Gamma0Part,
    PhiComponent,
    ShortCycleSet,
    ThetaComponent,
)

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


def _cycle_edges(c: FourCycle) -> frozenset[tuple[int, int]]:
    return frozenset((i, j) for i in c.left for j in c.right)


def cycle_walk_oracle(g: BipartiteGraph) -> list[FourCycle]:
    """Every 4-cycle as an object, by left pair, then right pair."""
    return [
        FourCycle(left, right)
        for left in combinations(range(g.n_left), 2)
        for right in combinations(bits(g.left_rows[left[0]] & g.left_rows[left[1]]), 2)
    ]


def short_cycles_walk(cycles: list[FourCycle]) -> tuple[ShortCycleSet, dict[Vertex, int]]:
    """The cycle set of a walk, each left pair's common neighbors gathered
    from its cycles, and the cycles through each vertex, counted one cycle
    at a time and keyed in the order the walk first visits them."""
    common: dict[tuple[int, int], set[int]] = {}
    for c in cycles:
        common.setdefault(c.left, set()).update(c.right)
    pairs = tuple((a, b, tuple(sorted(js))) for (a, b), js in common.items())
    counts = Counter(v for c in cycles for v in c.vertices)
    return ShortCycleSet(pairs=pairs), dict(counts)


def _components_walk(groups) -> list[frozenset[Vertex]]:
    parent: dict[Vertex, Vertex] = {}

    def root(v: Vertex) -> Vertex:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for first, *rest in groups:
        r = root(first)
        for v in rest:
            parent[root(v)] = r
    members: dict[Vertex, set[Vertex]] = {}
    for v in parent:
        members.setdefault(root(v), set()).add(v)
    return sorted((frozenset(comp) for comp in members.values()), key=min)


def subgraph_components_oracle(cycles, indices):
    """The components of the union of the indexed cycles, in order of their
    least vertex, each with its edges and its cycle indices."""
    parts = _components_walk(cycles[k].vertices for k in indices)
    part_of = {v: idx for idx, part in enumerate(parts) for v in part}
    members: list[list[int]] = [[] for _ in parts]
    for k in indices:
        members[part_of[cycles[k].vertices[0]]].append(k)
    return [
        (part, frozenset(e for k in ks for e in _cycle_edges(cycles[k])), tuple(ks))
        for part, ks in zip(parts, members)
    ]


def _recognize_theta_walk(vertices, edges, n_cycles):
    degree: Counter[Vertex] = Counter()
    for i, j in edges:
        degree[(LEFT, i)] += 1
        degree[(RIGHT, j)] += 1
    branch = frozenset(v for v, d in degree.items() if d >= 3)
    ok = (
        len(vertices) == 5
        and n_cycles == 3
        and sorted(degree[v] for v in vertices) == [2, 2, 2, 3, 3]
    )
    return ok, branch


def recognize_phi_oracle(vertices, edges, comp_cycles):
    """Circulant recognition of a 1-path component by comparing the edge
    sets of every pair of its cycles."""
    m = len(comp_cycles)
    if m < 5 or len(vertices) != 2 * m or len(edges) != 3 * m:
        return False, None, (), ()
    on_count: Counter[Vertex] = Counter()
    for c in comp_cycles:
        for v in c.vertices:
            on_count[v] += 1
    if any(on_count[v] != 2 for v in vertices):
        return False, None, (), ()
    neighbors: dict[int, list[tuple[int, tuple[int, int]]]] = {k: [] for k in range(m)}
    for k1 in range(m):
        for k2 in range(k1 + 1, m):
            shared = _cycle_edges(comp_cycles[k1]) & _cycle_edges(comp_cycles[k2])
            if len(shared) == 1:
                (edge,) = shared
                neighbors[k1].append((k2, edge))
                neighbors[k2].append((k1, edge))
    if any(len(neighbors[k]) != 2 for k in range(m)):
        return False, None, (), ()
    order = [0]
    prev = -1
    cur = 0
    shared_edges: list[tuple[int, int]] = []
    for _ in range(m):
        (na, ea), (nb, eb) = sorted(neighbors[cur])
        if na == prev:
            nxt, edge = nb, eb
        elif nb == prev:
            nxt, edge = na, ea
        else:
            nxt, edge = na, ea
        shared_edges.append(edge)
        order.append(nxt)
        prev, cur = cur, nxt
    if order[-1] != 0 or len(set(order[:-1])) != m:
        return False, None, (), ()
    xs = [(LEFT, e[0]) for e in shared_edges]
    ys = [(RIGHT, e[1]) for e in shared_edges]
    if len(set(xs)) != m or len(set(ys)) != m:
        return False, None, (), ()
    expected: set[tuple[int, int]] = set()
    for i in range(m):
        nxt = (i + 1) % m
        expected.add((xs[i][1], ys[i][1]))
        expected.add((xs[i][1], ys[nxt][1]))
        expected.add((xs[nxt][1], ys[i][1]))
    if expected != set(edges):
        return False, None, (), ()
    return True, m, tuple(xs), tuple(ys)


def decomposition_oracle(g: BipartiteGraph) -> Decomposition:
    """``classify_and_decompose`` as a walk over 4-cycle objects.

    Every cycle is built and labelled on its own from its pairs' common
    counts and from a per-edge cycle counter; each labelled union is split
    by a union-find over vertex tuples, and every component's edges are
    gathered cycle by cycle. Circulant components are recognized by the
    pairwise cycle comparison of ``recognize_phi_oracle``.
    """
    cycles = cycle_walk_oracle(g)
    cycles_on_edge = Counter(e for c in cycles for e in _cycle_edges(c))

    def label(c: FourCycle) -> str:
        (i1, i2), (j1, j2) = c.left, c.right
        left_common = (g.left_rows[i1] & g.left_rows[i2]).bit_count()
        right_common = (g.right_rows[j1] & g.right_rows[j2]).bit_count()
        if max(left_common, right_common) > 2:
            return "s2"
        return "s1" if any(cycles_on_edge[e] > 1 for e in _cycle_edges(c)) else "s0"

    labels = tuple(label(c) for c in cycles)
    s2, s1, s0 = (
        tuple(k for k, lab in enumerate(labels) if lab == want) for want in ("s2", "s1", "s0")
    )
    gamma2 = tuple(
        ThetaComponent(vertices, *_recognize_theta_walk(vertices, edges, len(indices)))
        for vertices, edges, indices in subgraph_components_oracle(cycles, s2)
    )
    gamma1 = tuple(
        PhiComponent(
            vertices, *recognize_phi_oracle(vertices, edges, [cycles[k] for k in indices])
        )
        for vertices, edges, indices in subgraph_components_oracle(cycles, s1)
    )
    gamma0 = tuple(
        Gamma0Part(vertices) for vertices, _, _ in subgraph_components_oracle(cycles, s0)
    )

    v2, v1, v0 = (frozenset(v for k in ks for v in cycles[k].vertices) for ks in (s2, s1, s0))
    on_cycles = v2 | v1 | v0
    residue = frozenset(v for v in g.vertices() if v not in on_cycles)
    disjoint = not (v2 & v1 or v2 & v0 or v1 & v0)
    return Decomposition(
        cycles=short_cycles_walk(cycles)[0],
        labels=labels,
        s2=s2,
        s1=s1,
        s0=s0,
        v2=v2,
        v1=v1,
        v0=v0,
        gamma2=gamma2,
        gamma1=gamma1,
        gamma0=gamma0,
        residue=residue,
        disjoint=disjoint,
    )


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


def isomorphic_oracle(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    """Whether some bijection takes every edge of ``g1`` to an edge of
    ``g2``, trying every side-preserving and every side-swapping one.

    With equal edge counts such a bijection is an isomorphism. The cost is
    ``n_left! * n_right!`` per side choice, so only tiny graphs qualify.
    """
    if g1.edge_count != g2.edge_count:
        return False
    edges1 = [(i, j) for i in range(g1.n_left) for j in g1.left_neighbors(i)]
    for h in (g2, g2.transpose()):
        if (h.n_left, h.n_right) != (g1.n_left, g1.n_right):
            continue
        edges2 = {(i, j) for i in range(h.n_left) for j in h.left_neighbors(i)}
        for left in permutations(range(h.n_left)):
            for right in permutations(range(h.n_right)):
                if all((left[i], right[j]) in edges2 for i, j in edges1):
                    return True
    return False


def _id_lists(g: BipartiteGraph) -> list[list[int]]:
    """Neighbours by vertex id, left ``i`` and right ``n_left + j``, in
    ascending order, read from ``left_neighbors``."""
    lists: list[list[int]] = [[] for _ in range(g.order)]
    for i in range(g.n_left):
        for j in g.left_neighbors(i):
            lists[i].append(g.n_left + j)
            lists[g.n_left + j].append(i)
    return lists


def _full_round_refine(adj1, adj2, colors1, colors2):
    """Iterated neighbour-multiset refinement of every vertex at once; None
    when the palettes diverge, and a discrete palette returned at once."""
    n = len(colors1)
    while True:
        keys1 = [(c, tuple(sorted(colors1[u] for u in nbrs))) for c, nbrs in zip(colors1, adj1)]
        keys2 = [(c, tuple(sorted(colors2[u] for u in nbrs))) for c, nbrs in zip(colors2, adj2)]
        palette = {key: idx for idx, key in enumerate(sorted(set(keys1)))}
        if set(keys2) != set(palette):
            return None
        new1 = [palette[k] for k in keys1]
        new2 = [palette[k] for k in keys2]
        if Counter(new1) != Counter(new2):
            return None
        if len(palette) == n or len(palette) == len(set(colors1)):
            return new1, new2
        colors1, colors2 = new1, new2


def _full_round_match(adj1, adj2, colors1, colors2, cut):
    """The id map at the first leaf of the depth-first search, or None. The
    smallest non-singleton colour class, then the lowest colour, is split:
    its first vertex against each candidate in id order, with ``cut()``
    asked before each candidate after the first."""
    refined = _full_round_refine(adj1, adj2, colors1, colors2)
    if refined is None:
        return None
    colors1, colors2 = refined
    counts = Counter(colors1)
    split = [c for c, k in counts.items() if k > 1]
    if not split:
        position = {c: v for v, c in enumerate(colors2)}
        mapping = [position[c] for c in colors1]
        for v in range(len(colors1)):
            if sorted(mapping[u] for u in adj1[v]) != sorted(adj2[mapping[v]]):
                return None
        return mapping
    target = min(split, key=lambda c: (counts[c], c))
    fresh = max(max(colors1), max(colors2)) + 1
    v = colors1.index(target)
    for k, w in enumerate(u for u in range(len(colors2)) if colors2[u] == target):
        if k and cut():
            return None
        c1, c2 = list(colors1), list(colors2)
        c1[v] = c2[w] = fresh
        result = _full_round_match(adj1, adj2, c1, c2, cut)
        if result is not None:
            return result
    return None


def full_round_isomorphism(g1: BipartiteGraph, g2: BipartiteGraph) -> dict[Vertex, Vertex] | None:
    """The map the isomorphism search returned when each refinement round
    recoloured both sides, or None when the graphs are not isomorphic.

    The sides start as colours 0 and 1, and ``g2`` is tried with its sides
    kept, then swapped. The search is cut where ``pair_invariant_oracle``
    tells the graphs apart. There is no two-step gate: it only saves work.
    """
    if g1.order != g2.order or g1.edge_count != g2.edge_count:
        return None
    cut = cache(lambda: pair_invariant_oracle(g1) != pair_invariant_oracle(g2))
    adj1, adj2 = _id_lists(g1), _id_lists(g2)
    colors1 = [0] * g1.n_left + [1] * g1.n_right
    for k, (left2, right2) in enumerate(((0, 1), (1, 0))):
        if k and cut():
            return None
        colors2 = [left2] * g2.n_left + [right2] * g2.n_right
        mapping = _full_round_match(adj1, adj2, colors1, colors2, cut)
        if mapping is not None:
            vertex2 = list(g2.vertices())
            return {v: vertex2[w] for v, w in zip(g1.vertices(), mapping)}
    return None


def verify_isomorphism_oracle(
    g1: BipartiteGraph, g2: BipartiteGraph, mapping: dict[Vertex, Vertex]
) -> bool:
    """Edge-by-edge validation of a claimed isomorphism: the mapping must take
    exactly the vertices of ``g1`` onto exactly those of ``g2`` and every
    edge, read from ``g1``'s rows, onto an edge that ``has_edge`` confirms."""
    if set(mapping) != set(g1.vertices()) or set(mapping.values()) != set(g2.vertices()):
        return False
    if g1.order != g2.order or g1.edge_count != g2.edge_count:
        return False
    for i in range(g1.n_left):
        u = mapping[(LEFT, i)]
        for j in bits(g1.left_rows[i]):
            v = mapping[(RIGHT, j)]
            if u[0] == v[0]:
                return False
            li, rj = (u[1], v[1]) if u[0] == LEFT else (v[1], u[1])
            if not g2.has_edge(li, rj):
                return False
    return True


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


def singer_set(q: int) -> tuple[int, ...]:
    """Singer's planar difference set mod ``m = q*q + q + 1``, by algebra.

    ``q = p^h`` is a prime power, and ``GF(q^3)`` is ``GF(p)[x]`` modulo
    ``x^n - low(x)``, ``n = 3h``, for the first ``low`` (nonzero constant
    term) under which ``x`` has order ``q^3 - 1``: then the ring is a field
    and ``x`` a primitive element ``alpha``. The set holds the exponents
    ``i < m`` with ``Tr(alpha^i) = alpha^i + alpha^(iq) + alpha^(iq^2) = 0``.
    The trace is ``GF(q)``-linear and ``alpha^m`` generates ``GF(q)^*``, so
    the test depends on ``i mod m`` only, and the ``q + 1`` exponents form a
    line of ``PG(2, q)`` (Singer, Trans. AMS 43, 1938).
    """
    p = next(f for f in range(2, q + 1) if q % f == 0)
    n = 3 * next(h for h in range(1, q) if p**h == q)
    size = q**3 - 1
    for low in product(range(p), repeat=n):
        if not low[0]:
            continue
        # The coefficients of x^0, x^1, ..., lowest degree first.
        powers = [(1,) + (0,) * (n - 1)]
        while len(powers) < size:
            c = powers[-1]
            power = tuple((a + c[-1] * b) % p for a, b in zip((0,) + c[:-1], low))
            if power == powers[0]:
                break
            powers.append(power)
        else:
            break
    m = q * q + q + 1
    return tuple(
        i for i in range(m) if not any(sum(t) % p for t in zip(powers[i], powers[i * q % size], powers[i * q * q % size]))
    )


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


def two_step_residues_oracle(m: int, offsets: tuple[int, ...]) -> tuple[int, ...]:
    """The two-step residue counts of ``phi m: offsets`` by the written-out formula.

    The fixed shifts alone give ``0, 1, -1, 2, -2``; each offset ``a`` adds
    ``+-a``, ``+-(a + 1)`` and ``+-(a - 1)``; and every ordered pair of
    distinct offsets adds its difference. All are reduced mod m.
    """
    values = [0, 1, -1, 2, -2]
    for a in offsets:
        values += [a, -a, a + 1, -a - 1, a - 1, -a + 1]
    values += [a - b for a in offsets for b in offsets if a != b]
    counts = [0] * m
    for value in values:
        counts[value % m] += 1
    return tuple(counts)


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
