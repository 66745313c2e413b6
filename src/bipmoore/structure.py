"""Short-cycle structure of bipartite graphs: repeats, decomposition, certification.

Everything here targets diameter-3 analysis, where the short cycles are the
4-cycles. A 4-cycle is found as a same-side vertex pair with at least two
common neighbors; two 4-cycles are neighbors when they share a vertex, and
the shared part is always a path of length 0, 1 or 2. Cycles are labeled by
the longest path they share with any neighbor, which local counts decide: a
cycle shares a 2-path exactly when its left pair or its right pair has more
than two common neighbors, and otherwise shares a 1-path exactly when one of
its four edges lies on another 4-cycle. The labeled unions split the graph
into the component families checked by the structural observations, and an
exact isomorphism test backs the certification of distinct graphs.

The layer works per same-side pair, not per cycle. ``short_cycles`` stores
each left pair with its ``c >= 2`` common neighbors, closing ``C(c, 2)``
cycles; ``ShortCycleSet.cycles`` builds cycle objects only when asked. The
decomposition labels a pair's cycles ``s2`` at once when ``c > 2`` and adds
``c - 1`` to the cycle count of each of its ``2c`` edges; a pair with two
common neighbors is labeled from its right pair's common count and its four
edge counts. One list-based union-find over integer vertex ids joins both
the labeled unions and the repeat relation, and each component's vertex and
edge sets are built once, at the end.
``tests/oracles.py`` keeps the walk over cycle objects this replaced.

Integer vertex ids here are those of ``graphs.adjacency``: a vertex's
position in ``g.vertices()``, left ``i`` and right ``n_left + j``. Ids and
vertices are converted only through that list.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Container, Iterable
from dataclasses import dataclass, field
from itertools import combinations

from .bounds import moore_bound
from .graphs import LEFT, RIGHT, BipartiteGraph, Vertex, adjacency, bits


class BudgetError(RuntimeError):
    """Raised when an exact computation refuses an over-budget instance."""


def vertex_name(v: Vertex) -> str:
    return f"{v[0]}{v[1]}"


# ---------------------------------------------------------------------------
# Short cycles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourCycle:
    """A 4-cycle, stored once: left pair and right pair, each ascending."""

    left: tuple[int, int]
    right: tuple[int, int]

    @property
    def vertices(self) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        """Traversal order L-R-L-R."""
        return (
            (LEFT, self.left[0]),
            (RIGHT, self.right[0]),
            (LEFT, self.left[1]),
            (RIGHT, self.right[1]),
        )

    def repeat_pairs(self) -> tuple[tuple[Vertex, Vertex], tuple[Vertex, Vertex]]:
        """The two opposite-vertex pairs (distance 2 along the cycle)."""
        return (
            ((LEFT, self.left[0]), (LEFT, self.left[1])),
            ((RIGHT, self.right[0]), (RIGHT, self.right[1])),
        )

    def repeat_of(self, v: Vertex) -> Vertex:
        for a, b in self.repeat_pairs():
            if v == a:
                return b
            if v == b:
                return a
        raise ValueError(f"{v!r} does not lie on this cycle")


#: A left pair ``a < b`` with its ascending common neighbors, at least two.
_Pair = tuple[int, int, tuple[int, ...]]


@dataclass
class ShortCycleSet:
    """All 4-cycles of a graph, stored as the left pairs that close them,
    with per-vertex counts keyed in the order the cycles first visit them."""

    pairs: tuple[_Pair, ...]
    per_vertex_count: dict[Vertex, int]

    @property
    def cycles(self) -> tuple[FourCycle, ...]:
        """Every cycle, by left pair, then right pair; built on each access."""
        return tuple(FourCycle(left, right) for left, right in _cycles_of(self.pairs))


def _cycles_of(pairs: Iterable[_Pair]) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """The cycles the pairs close, as (left pair, right pair), in order."""
    return [((a, b), right) for a, b, js in pairs for right in combinations(js, 2)]


def short_cycles(g: BipartiteGraph) -> ShortCycleSet:
    """The left pairs with at least two common neighbors, ascending, and the
    number of 4-cycles through each vertex.

    Each pair vertex lies on all ``C(c, 2)`` cycles of its pair and each
    common neighbor on ``c - 1`` of them.
    """
    n_left = g.n_left
    rows = g.left_rows
    pairs: list[_Pair] = []
    # keyed by integer id in first-visit order
    counts: dict[int, int] = {}
    get = counts.get
    for a in range(n_left):
        row_a = rows[a]
        for b in range(a + 1, n_left):
            common = row_a & rows[b]
            if not common & (common - 1):
                continue
            low = common & -common
            high = common ^ low
            if not high & (high - 1):
                # Two common neighbors, one cycle: 94% of the pairs on the
                # degree-11 records and their perturbations, where this
                # branch makes the decomposition 12-16% faster than the
                # general one below.
                j1, j2 = js = (low.bit_length() - 1, high.bit_length() - 1)
                pairs.append((a, b, js))
                r1, r2 = n_left + j1, n_left + j2
                counts[a] = get(a, 0) + 1
                counts[r1] = get(r1, 0) + 1
                counts[b] = get(b, 0) + 1
                counts[r2] = get(r2, 0) + 1
                continue
            js = tuple(bits(common))
            pairs.append((a, b, js))
            c = len(js)
            on_pair = c * (c - 1) // 2
            r0 = n_left + js[0]
            counts[a] = get(a, 0) + on_pair
            counts[r0] = get(r0, 0) + c - 1
            counts[b] = get(b, 0) + on_pair
            for j in js[1:]:
                rj = n_left + j
                counts[rj] = get(rj, 0) + c - 1
    vertex = list(g.vertices())
    per_vertex_count = {vertex[x]: count for x, count in counts.items()}
    return ShortCycleSet(pairs=tuple(pairs), per_vertex_count=per_vertex_count)


def _root(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find ``parent``, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _join(parent: list[int], ids: list[int]) -> None:
    """Join ``ids`` into one set of the union-find ``parent``."""
    r = _root(parent, ids[0])
    for x in ids:
        x = _root(parent, x)
        if x != r:
            parent[x] = r


def _index(parts: Iterable[Iterable[Vertex]]) -> dict[Vertex, int]:
    """Each vertex of the given parts mapped to the position of its part."""
    return {v: idx for idx, part in enumerate(parts) for v in part}


# ---------------------------------------------------------------------------
# Repeats
# ---------------------------------------------------------------------------


@dataclass
class RepeatStructure:
    """The repeat relation induced by the short cycles.

    Minimal closed sets are the connected components of the relation, each
    lying inside a single partite set.
    """

    minimal_closed_sets: tuple[frozenset[Vertex], ...]


def repeat_structure(g: BipartiteGraph, cycles: ShortCycleSet) -> RepeatStructure:
    """Opposite vertices of a cycle are repeats: each left pair is joined,
    and so are all common neighbors of one pair. Sets ordered by least vertex."""
    n_left = g.n_left
    parent = list(range(g.order))
    for a, b, js in cycles.pairs:
        _join(parent, [a, b])
        _join(parent, [n_left + j for j in js])
    vertex_id = {v: x for x, v in enumerate(g.vertices())}
    members: dict[int, set[Vertex]] = {}
    for v in cycles.per_vertex_count:
        members.setdefault(_root(parent, vertex_id[v]), set()).add(v)
    sets = sorted((frozenset(s) for s in members.values()), key=min)
    return RepeatStructure(minimal_closed_sets=tuple(sets))


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


@dataclass
class ThetaComponent:
    vertices: frozenset[Vertex]
    edges: frozenset[tuple[int, int]]
    cycle_indices: tuple[int, ...]
    recognized: bool
    branch: frozenset[Vertex]  # degree >= 3 inside the component subgraph


@dataclass
class PhiComponent:
    vertices: frozenset[Vertex]
    edges: frozenset[tuple[int, int]]
    cycle_indices: tuple[int, ...]
    recognized: bool
    m_prime: int | None
    #: Cyclic labelings (host vertices in circulant order) when recognized.
    x_order: tuple[Vertex, ...] = ()
    y_order: tuple[Vertex, ...] = ()


@dataclass
class Gamma0Part:
    vertices: frozenset[Vertex]
    edges: frozenset[tuple[int, int]]
    cycle_indices: tuple[int, ...]


@dataclass
class Decomposition:
    """Labeled short-cycle structure of a graph.

    Cycle labels: ``s2`` when some neighbor intersection is a 2-path, that
    is when the cycle's left pair or right pair has more than two common
    neighbors; otherwise ``s1`` when the longest is a 1-path, that is when
    one of its four edges lies on another 4-cycle; ``s0`` otherwise. The
    gamma parts are the connected components of the unions of
    equally-labeled cycles; ``residue`` holds the vertices on no short
    cycle. ``disjoint`` reports whether the three vertex classes are
    pairwise disjoint (they are for genuine defect-4 graphs; a mixed pattern
    is data, not an error).
    """

    cycles: ShortCycleSet
    labels: tuple[str, ...]
    s2: tuple[int, ...]
    s1: tuple[int, ...]
    s0: tuple[int, ...]
    v2: frozenset[Vertex]
    v1: frozenset[Vertex]
    v0: frozenset[Vertex]
    gamma2: tuple[ThetaComponent, ...]
    gamma1: tuple[PhiComponent, ...]
    gamma0: tuple[Gamma0Part, ...]
    residue: frozenset[Vertex]
    disjoint: bool

    @property
    def gamma0_vertices(self) -> frozenset[Vertex]:
        return frozenset(v for part in self.gamma0 for v in part.vertices)

    def to_dict(self) -> dict:
        def names(vs) -> list[str]:
            return [vertex_name(v) for v in sorted(vs)]

        return {
            "cycles": [
                {"vertices": [vertex_name(v) for v in c.vertices], "label": label}
                for c, label in zip(self.cycles.cycles, self.labels)
            ],
            "s2": list(self.s2),
            "s1": list(self.s1),
            "s0": list(self.s0),
            "v2": names(self.v2),
            "v1": names(self.v1),
            "v0": names(self.v0),
            "gamma2": [
                {
                    "vertices": names(comp.vertices),
                    "recognized": comp.recognized,
                    "branch": names(comp.branch),
                }
                for comp in self.gamma2
            ],
            "gamma1": [
                {
                    "vertices": names(comp.vertices),
                    "recognized": comp.recognized,
                    "phiM": comp.m_prime,
                }
                for comp in self.gamma1
            ],
            "gamma0": names(self.gamma0_vertices),
            "residue": names(self.residue),
            "disjoint": self.disjoint,
        }


def _recognize_theta(
    vertices: frozenset[Vertex], edges: frozenset[tuple[int, int]], n_cycles: int
) -> tuple[bool, frozenset[Vertex]]:
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


def _recognize_phi(
    vertices: frozenset[Vertex],
    edges: frozenset[tuple[int, int]],
    comp_cycles: list[tuple[tuple[int, int], tuple[int, int]]],
) -> tuple[bool, int | None, tuple[Vertex, ...], tuple[Vertex, ...]]:
    """Match a 1-path component, from its (left, right) cycles, to the circulant pattern.

    Inside the pattern every vertex lies on exactly two cycles that share one
    edge each with their two neighbors; the shared edges chain into a single
    cyclic order, which yields the labeling; the labeling must transport all
    component edges onto the pattern.
    """
    m = len(comp_cycles)
    if m < 5 or len(vertices) != 2 * m or len(edges) != 3 * m:
        return False, None, (), ()
    on_count: Counter[Vertex] = Counter()
    for left, right in comp_cycles:
        on_count.update([(LEFT, i) for i in left] + [(RIGHT, j) for j in right])
    if any(on_count[v] != 2 for v in vertices):
        return False, None, (), ()
    # With every vertex on two cycles, no edge lies on more than two; two
    # cycles are neighbors when exactly one edge lies on both.
    cycles_on: dict[tuple[int, int], list[int]] = {}
    for k, (left, right) in enumerate(comp_cycles):
        for i in left:
            for j in right:
                cycles_on.setdefault((i, j), []).append(k)
    shared: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for edge, ks in cycles_on.items():
        if len(ks) == 2:
            shared.setdefault((ks[0], ks[1]), []).append(edge)
    neighbors: dict[int, list[tuple[int, tuple[int, int]]]] = {k: [] for k in range(m)}
    for (k1, k2), common in shared.items():
        if len(common) == 1:
            neighbors[k1].append((k2, common[0]))
            neighbors[k2].append((k1, common[0]))
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


_LABELS = ("s2", "s1", "s0")


def classify_and_decompose(g: BipartiteGraph) -> Decomposition:
    """Label every 4-cycle, split the graph into the labeled unions, and
    recognize their components. Total on any bipartite input; components that
    fail recognition are reported unrecognized, never raised.

    The work is keyed by left pair (see the module docstring). The
    union-find holds one block of vertex ids per label, since a vertex may
    lie on cycles of several labels.
    """
    cycle_set = short_cycles(g)
    pairs = cycle_set.pairs
    n_left, n_right = g.n_left, g.n_right
    n = n_left + n_right
    right_rows = g.right_rows

    on_edge = [0] * (n_left * n_right)
    for a, b, js in pairs:
        extra = len(js) - 1
        row_a, row_b = a * n_right, b * n_right
        for j in js:
            on_edge[row_a + j] += extra
            on_edge[row_b + j] += extra

    # Label each pair's cycles and join the pair's vertices in the label's
    # block of the union-find. A third common neighbor of either pair closes
    # a cycle sharing a 2-path; short of that, a cycle sharing an edge shares
    # a 1-path.
    parent = list(range(3 * n))
    pair_label: list[int] = []
    for a, b, js in pairs:
        if len(js) > 2:
            lab = 0
        else:
            j1, j2 = js
            row_a, row_b = a * n_right, b * n_right
            if (right_rows[j1] & right_rows[j2]).bit_count() > 2:
                lab = 0
            elif (
                on_edge[row_a + j1] > 1
                or on_edge[row_a + j2] > 1
                or on_edge[row_b + j1] > 1
                or on_edge[row_b + j2] > 1
            ):
                lab = 1
            else:
                lab = 2
        pair_label.append(lab)
        base = lab * n
        _join(parent, [base + a, base + b, *[base + n_left + j for j in js]])

    # Components in order of their first pair, which is the order of their
    # least (left) vertex; each gathers vertex ids, edge ids, cycle indices
    # and its pairs.
    labels: list[str] = []
    parts: tuple[dict[int, tuple[set[int], set[int], list[int], list[_Pair]]], ...] = ({}, {}, {})
    for pair, lab in zip(pairs, pair_label):
        a, b, js = pair
        key = _root(parent, lab * n + a)
        part = parts[lab].get(key)
        if part is None:
            part = parts[lab][key] = (set(), set(), [], [])
        ids, edge_ids, indices, comp_pairs = part
        comp_pairs.append(pair)
        ids.add(a)
        ids.add(b)
        row_a, row_b = a * n_right, b * n_right
        for j in js:
            ids.add(n_left + j)
            edge_ids.add(row_a + j)
            edge_ids.add(row_b + j)
        count = len(js) * (len(js) - 1) // 2
        indices.extend(range(len(labels), len(labels) + count))
        labels.extend([_LABELS[lab]] * count)

    vertex = list(g.vertices())
    built = [
        [
            (
                frozenset(vertex[x] for x in ids),
                frozenset(divmod(e, n_right) for e in edge_ids),
                tuple(indices),
                comp_pairs,
            )
            for ids, edge_ids, indices, comp_pairs in side.values()
        ]
        for side in parts
    ]
    gamma2 = tuple(
        ThetaComponent(vertices, edges, indices, *_recognize_theta(vertices, edges, len(indices)))
        for vertices, edges, indices, _ in built[0]
    )
    gamma1 = tuple(
        PhiComponent(
            vertices, edges, indices, *_recognize_phi(vertices, edges, _cycles_of(comp_pairs))
        )
        for vertices, edges, indices, comp_pairs in built[1]
    )
    gamma0 = tuple(Gamma0Part(*part[:3]) for part in built[2])

    s2, s1, s0 = (tuple(k for k, lab in enumerate(labels) if lab == want) for want in _LABELS)
    v2, v1, v0 = (frozenset().union(*(part[0] for part in side)) for side in built)
    on_cycles = v2 | v1 | v0
    residue = frozenset(v for v in vertex if v not in on_cycles)
    disjoint = not (v2 & v1 or v2 & v0 or v1 & v0)
    return Decomposition(
        cycles=cycle_set,
        labels=tuple(labels),
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


# ---------------------------------------------------------------------------
# Observation checks
# ---------------------------------------------------------------------------


@dataclass
class ObservationResult:
    name: str
    status: str  # "pass" | "fail" | "not-applicable"
    witness: object = None
    note: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness, "note": self.note}


@dataclass
class ObservationReport:
    """Outcome of the defect-4 structural consistency checks.

    The checks are necessary conditions: a pass is consistency with the
    defect-4 claim for the given degree, a fail refutes it with a concrete
    witness. On graphs whose order does not match defect 4 every entry is
    reported not-applicable rather than failed.
    """

    degree_claimed: int
    defect: int
    applicable: bool
    entries: tuple[ObservationResult, ...]

    @property
    def failures(self) -> tuple[ObservationResult, ...]:
        return tuple(e for e in self.entries if e.status == "fail")

    def to_dict(self) -> dict:
        return {
            "observations": [e.to_dict() for e in self.entries],
            "degreeClaimed": self.degree_claimed,
            "defect": self.defect,
            "applicable": self.applicable,
        }


_OBSERVATION_NAMES = (
    "no_edge_gamma2_gamma2",
    "no_edge_gamma2_gamma1",
    "no_edge_gamma2_gamma0",
    "gamma1_shift_invariance",
    "gamma1_gamma1_divisibility",
    "gamma0_size",
    "gamma2_gamma1_modularity",
    "gamma0_gamma1_modularity",
    "closed_set_divisibility",
)


def _edge_name(i: int, j: int) -> list[str]:
    return [vertex_name((LEFT, i)), vertex_name((RIGHT, j))]


def check_observations(g: BipartiteGraph, dec: Decomposition, d: int) -> ObservationReport:
    """Evaluate every structural observation for a claimed degree-``d``,
    diameter-3, defect-4 graph; witnesses accompany each failure."""
    target_defect = moore_bound(d, 3) - g.order if d >= 2 else None
    if d < 4 or target_defect != 4:
        note = f"defect {target_defect} != 4" if d >= 4 else f"degree {d} < 4"
        entries = tuple(
            ObservationResult(name, "not-applicable", note=note) for name in _OBSERVATION_NAMES
        )
        return ObservationReport(
            degree_claimed=d,
            defect=target_defect if target_defect is not None else -1,
            applicable=False,
            entries=entries,
        )

    edges = [(i, j) for i in range(g.n_left) for j in bits(g.left_rows[i])]
    theta_comp = _index(comp.vertices for comp in dec.gamma2)
    phi_comp = _index(comp.vertices for comp in dec.gamma1)
    gamma0_vertices = dec.gamma0_vertices
    branch_vertices = frozenset(v for comp in dec.gamma2 for v in comp.branch)
    nonbranch_vertices = frozenset(
        v for comp in dec.gamma2 for v in comp.vertices if v not in comp.branch
    )
    recognized_phi = [comp for comp in dec.gamma1 if comp.recognized]

    def first_edge(rule: Callable[[Vertex, Vertex], object]) -> tuple[list[str] | None, object]:
        """The first edge, in scan order, with ends ``a, b`` (left end first)
        for which ``rule(a, b)`` is truthy, named, with the rule's value."""
        for i, j in edges:
            u, v = (LEFT, i), (RIGHT, j)
            for a, b in ((u, v), (v, u)):
                hit = rule(a, b)
                if hit:
                    return _edge_name(i, j), hit
        return None, None

    def joined(comp_of: dict[Vertex, int]) -> list[tuple[tuple[int, int], list[str]]]:
        """Ascending pairs of distinct parts joined by an edge, each with its
        first joining edge in scan order."""
        example: dict[tuple[int, int], list[str]] = {}
        for i, j in edges:
            cu, cv = comp_of.get((LEFT, i)), comp_of.get((RIGHT, j))
            if cu is not None and cv is not None and cu != cv:
                example.setdefault((min(cu, cv), max(cu, cv)), _edge_name(i, j))
        return sorted(example.items())

    def ring_modularity(near: Container[Vertex], q: int, k_max: int) -> dict | None:
        """An edge from ``near`` to a recognized ring whose order m' is not
        q*k with 2 <= k <= k_max, with that m'."""

        def bad_order(a: Vertex, b: Vertex) -> int | None:
            if a not in near or b not in phi_comp:
                return None
            comp = dec.gamma1[phi_comp[b]]
            mp = comp.m_prime
            return mp if comp.recognized and (mp % q != 0 or not 2 <= mp // q <= k_max) else None

        edge, mp = first_edge(bad_order)
        return {"mPrime": mp, "edge": edge} if edge else None

    entries: list[ObservationResult] = []

    def skip(name: str, note: str) -> None:
        entries.append(ObservationResult(name, "not-applicable", note=note))

    def verdict(name: str, witness: object) -> None:
        entries.append(ObservationResult(name, "fail" if witness else "pass", witness=witness))

    both = "needs both unions nonempty"
    # no_edge_gamma2_gamma2: branch vertex to non-branch vertex of another component
    if len(dec.gamma2) < 2:
        skip("no_edge_gamma2_gamma2", "fewer than two 2-path components")
    else:
        edge, _ = first_edge(
            lambda a, b: a in branch_vertices and b in nonbranch_vertices
            and theta_comp[a] != theta_comp[b]
        )
        verdict("no_edge_gamma2_gamma2", edge)

    # no_edge_gamma2_gamma1: branch vertex to any 1-path-union vertex
    if not dec.gamma2 or not dec.gamma1:
        skip("no_edge_gamma2_gamma1", both)
    else:
        edge, _ = first_edge(lambda a, b: a in branch_vertices and b in phi_comp)
        verdict("no_edge_gamma2_gamma1", edge)

    # no_edge_gamma2_gamma0: non-branch vertex to a 0-path-union vertex
    if not dec.gamma2 or not gamma0_vertices:
        skip("no_edge_gamma2_gamma0", both)
    else:
        edge, _ = first_edge(lambda a, b: a in nonbranch_vertices and b in gamma0_vertices)
        verdict("no_edge_gamma2_gamma0", edge)

    # gamma1_shift_invariance: edges inside a recognized component are closed
    # under adding 1 to both circulant subscripts
    if not recognized_phi:
        skip("gamma1_shift_invariance", "no recognized circulant component")
    else:
        witness = None
        for comp in recognized_phi:
            mp = comp.m_prime
            xpos = {v: k for k, v in enumerate(comp.x_order)}
            ypos = {v: k for k, v in enumerate(comp.y_order)}
            offset_count: Counter[int] = Counter()
            offset_example: dict[int, tuple[int, int]] = {}
            for i, j in edges:
                u, v = (LEFT, i), (RIGHT, j)
                if u in xpos and v in ypos:
                    off = (ypos[v] - xpos[u]) % mp
                    offset_count[off] += 1
                    offset_example.setdefault(off, (i, j))
            bad = [off for off, cnt in offset_count.items() if cnt != mp]
            if bad:
                off = bad[0]
                witness = {
                    "offset": off,
                    "edge": _edge_name(*offset_example[off]),
                    "edgesWithOffset": offset_count[off],
                    "expected": mp,
                }
                break
        verdict("gamma1_shift_invariance", witness)

    # gamma1_gamma1_divisibility: joined components have orders m and k*m, k <= d-3
    if len(recognized_phi) < 2:
        skip("gamma1_gamma1_divisibility", "fewer than two recognized circulant components")
    else:
        witness = None
        rings = _index(comp.vertices if comp.recognized else () for comp in dec.gamma1)
        for (cu, cv), edge in joined(rings):
            small, big = sorted((dec.gamma1[cu].m_prime, dec.gamma1[cv].m_prime))
            if big % small != 0 or not 1 <= big // small <= d - 3:
                witness = {"mSmall": small, "mBig": big, "edge": edge}
                break
        verdict("gamma1_gamma1_divisibility", witness)

    # gamma0_size: |gamma0| = 8k with k >= 3 (degree-7 analysis only)
    if d != 7 or not gamma0_vertices:
        skip("gamma0_size", "degree-7 rule" if d != 7 else "0-path union empty")
    else:
        size = len(gamma0_vertices)
        verdict("gamma0_size", None if size % 8 == 0 and size // 8 >= 3 else {"size": size})

    # gamma2_gamma1_modularity: m' = 3k with 2 <= k <= d-2 when joined to a theta
    if not dec.gamma2 or not recognized_phi:
        skip("gamma2_gamma1_modularity", both)
    else:
        verdict("gamma2_gamma1_modularity", ring_modularity(theta_comp, 3, d - 2))

    # gamma0_gamma1_modularity: m' = 4k with 2 <= k <= d-4 when joined to gamma0
    if not gamma0_vertices or not recognized_phi:
        skip("gamma0_gamma1_modularity", both)
    else:
        verdict("gamma0_gamma1_modularity", ring_modularity(gamma0_vertices, 4, d - 4))

    # closed_set_divisibility: joined minimal closed repeat sets have dividing
    # sizes, except the branch/non-branch pair of one theta
    sets = repeat_structure(g, dec.cycles).minimal_closed_sets
    if len(sets) < 2:
        skip("closed_set_divisibility", "fewer than two minimal closed sets")
    else:
        witness = None
        theta_vertex_sets = [comp.vertices for comp in dec.gamma2 if comp.recognized]
        for (su, sv), edge in joined(_index(sets)):
            a, b = len(sets[su]), len(sets[sv])
            if a % b != 0 and b % a != 0 and sets[su] | sets[sv] not in theta_vertex_sets:
                witness = {"sizes": sorted((a, b)), "edge": edge}
                break
        verdict("closed_set_divisibility", witness)

    return ObservationReport(
        degree_claimed=d, defect=4, applicable=True, entries=tuple(entries)
    )


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _refine(
    adj1: list[list[int]], adj2: list[list[int]], colors1: list[int], colors2: list[int]
) -> tuple[list[int], list[int]] | None:
    """Iterated neighbor-multiset refinement; None when the palettes diverge."""
    n = len(colors1)
    while True:
        keys1 = [
            (colors1[v], tuple(sorted(colors1[u] for u in adj1[v]))) for v in range(n)
        ]
        keys2 = [
            (colors2[v], tuple(sorted(colors2[u] for u in adj2[v]))) for v in range(n)
        ]
        palette = {key: idx for idx, key in enumerate(sorted(set(keys1)))}
        if set(keys2) != set(palette):
            return None
        new1 = [palette[k] for k in keys1]
        new2 = [palette[k] for k in keys2]
        if Counter(new1) != Counter(new2):
            return None
        if len(set(new1)) == len(set(colors1)):
            return new1, new2
        colors1, colors2 = new1, new2


def _match(
    adj1: list[list[int]], adj2: list[list[int]], colors1: list[int], colors2: list[int]
) -> list[int] | None:
    refined = _refine(adj1, adj2, colors1, colors2)
    if refined is None:
        return None
    colors1, colors2 = refined
    counts = Counter(colors1)
    split = [c for c, k in counts.items() if k > 1]
    if not split:
        position = {c: v for v, c in enumerate(colors2)}
        mapping = [position[c] for c in colors1]
        n = len(colors1)
        for v in range(n):
            if sorted(mapping[u] for u in adj1[v]) != sorted(adj2[mapping[v]]):
                return None
        return mapping
    target = min(split, key=lambda c: (counts[c], c))
    fresh = max(max(colors1), max(colors2)) + 1
    v = next(u for u in range(len(colors1)) if colors1[u] == target)
    for w in (u for u in range(len(colors2)) if colors2[u] == target):
        c1 = list(colors1)
        c2 = list(colors2)
        c1[v] = fresh
        c2[w] = fresh
        result = _match(adj1, adj2, c1, c2)
        if result is not None:
            return result
    return None


def _pair_invariant(g: BipartiteGraph) -> tuple:
    """Sound isomorphism invariant: per-side distributions of common-neighbor
    counts over same-side vertex pairs, as an unordered side pair."""
    def side_hist(rows: tuple[int, ...]) -> tuple:
        hist = Counter((a & b).bit_count() for a, b in combinations(rows, 2))
        return tuple(sorted(hist.items()))

    return tuple(sorted((side_hist(g.left_rows), side_hist(g.right_rows))))


#: Largest vertex count ``find_isomorphism`` accepts.
MAX_ISO_ORDER = 500


def find_isomorphism(g1: BipartiteGraph, g2: BipartiteGraph) -> dict[Vertex, Vertex] | None:
    """Exact isomorphism witness (vertex bijection), or None.

    Uses iterated color refinement with individualization backtracking over
    ``graphs.adjacency`` ids. The sides start as two colors, and ``g2`` is
    tried with its sides kept, then swapped, so side-swapped matches are
    found; the first refinement round compares the side sizes and degrees.
    Instances above ``MAX_ISO_ORDER`` vertices are refused.
    """
    if g1.order > MAX_ISO_ORDER or g2.order > MAX_ISO_ORDER:
        raise BudgetError(f"isomorphism capped at {MAX_ISO_ORDER} vertices")
    if g1.order != g2.order or g1.edge_count != g2.edge_count:
        return None
    if _pair_invariant(g1) != _pair_invariant(g2):
        return None
    adj1, adj2 = adjacency(g1), adjacency(g2)
    colors1 = [0] * g1.n_left + [1] * g1.n_right
    for left2, right2 in ((0, 1), (1, 0)):
        mapping = _match(adj1, adj2, colors1, [left2] * g2.n_left + [right2] * g2.n_right)
        if mapping is not None:
            vertex2 = list(g2.vertices())
            return {v: vertex2[w] for v, w in zip(g1.vertices(), mapping)}
    return None


@dataclass(frozen=True)
class IsoCheck:
    """The isomorphism verdict on two graphs, with the witness bijection
    ``find_isomorphism`` found, if any."""

    mapping: dict[Vertex, Vertex] | None = field(hash=False)

    @property
    def isomorphic(self) -> bool:
        return self.mapping is not None

    def to_json_dict(self) -> dict:
        return {
            "isomorphic": self.isomorphic,
            "mapping": {vertex_name(v): vertex_name(w) for v, w in self.mapping.items()}
            if self.mapping
            else None,
        }

    def to_text(self) -> str:
        return "isomorphic" if self.isomorphic else "not isomorphic"

    def failures(self, isomorphic: bool = False, non_isomorphic: bool = False) -> list[str]:
        """One message per expectation given that the verdict contradicts."""
        out = []
        if isomorphic and not self.isomorphic:
            out.append("expected isomorphic")
        if non_isomorphic and self.isomorphic:
            out.append("expected non-isomorphic")
        return out


def check_isomorphism(g1: BipartiteGraph, g2: BipartiteGraph) -> IsoCheck:
    """Decide isomorphism the way the ``iso`` command reports it."""
    return IsoCheck(find_isomorphism(g1, g2))


def verify_isomorphism(
    g1: BipartiteGraph, g2: BipartiteGraph, mapping: dict[Vertex, Vertex]
) -> bool:
    """Independent edge-by-edge validation of a claimed isomorphism: the
    mapping must take exactly the vertices of ``g1`` onto exactly those of
    ``g2`` and every edge onto an edge."""
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
