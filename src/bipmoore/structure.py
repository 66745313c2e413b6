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

The layer works per same-side pair, not per cycle. Each left vertex's
partner mask (``partner_masks``) holds the other left vertices with which it
shares at least two neighbors. The masks take one saturating OR over the
rows of each vertex's neighbors, ``O(E)`` integer operations in all, and the
pairs are read from them without testing every left pair. ``short_cycles``
stores each left pair with its ``c >= 2`` common neighbors, closing
``C(c, 2)`` cycles, and counts nothing; ``ShortCycleSet.cycles`` and
``ShortCycleSet.per_vertex_count`` are derived from those records only when
asked. The decomposition labels a pair's cycles ``s2`` at once when
``c > 2``. A pair ``a, b`` with two common neighbors ``j1, j2`` is labeled
``s2`` when ``j1, j2`` have a third common neighbor, else ``s1`` when a
partner of ``a`` other than ``b``, or of ``b`` other than ``a``, is a
neighbor of ``j1`` or ``j2``: that partner closes another cycle through one
of the four edges. The labeled unions and the repeat relation are split by
one sweep over neighbour bitmasks (``_components``). Each component's
vertex set is read off its id bitmask, and it is recognized from the
label's neighbour bitmasks: a theta block by its degrees alone, a circulant
ring by a walk along its own pairs.
``tests/oracles.py`` keeps the walk over cycle objects this replaced.

The paper's rules for a defect-4 graph (the theta block's degrees, the
smallest ring order, the degree-7 size of the 0-path union, the ring orders
allowed beside a theta block and beside the 0-path union, and the
divisibility of joined rings) are stated once, in the "Defect-4 rules"
block below. The recognizers and ``check_observations`` apply them to a
graph; ``caseanalysis`` imports them to apply to hypothetical sizes.

``find_isomorphism`` refines one side per half-round: a side's new colours
depend only on the other side's, so recolouring both at once, as the
full-round search kept in ``tests/oracles.py`` does, repeats work.

The decomposition's integer vertex ids are those defined in ``graphs``'
module docstring. Ids and vertices are converted only through
``g.vertices()``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Container, Iterable
from dataclasses import dataclass, field
from functools import cache
from itertools import combinations

from .bounds import moore_bound
from .circulant import FIXED_SHIFTS
from .graphs import LEFT, RIGHT, BipartiteGraph, Sides, Vertex, bits, union


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
    """All 4-cycles of a graph, stored as the left pairs that close them.
    The cycles and the per-vertex counts are derived from the pairs."""

    pairs: tuple[_Pair, ...]

    @property
    def cycles(self) -> tuple[FourCycle, ...]:
        """Every cycle, by left pair, then right pair; built on each access."""
        return tuple(
            FourCycle((a, b), right) for a, b, js in self.pairs for right in combinations(js, 2)
        )

    @property
    def per_vertex_count(self) -> dict[Vertex, int]:
        """The number of cycles through each vertex, keyed in the order the
        cycles first visit them; built on each access.

        Each pair vertex lies on all ``C(c, 2)`` cycles of its pair and each
        common neighbor on ``c - 1`` of them.
        """
        counts: Counter[Vertex] = Counter()
        for a, b, js in self.pairs:
            c = len(js)
            on_pair = c * (c - 1) // 2
            counts[(LEFT, a)] += on_pair
            counts[(RIGHT, js[0])] += c - 1
            counts[(LEFT, b)] += on_pair
            for j in js[1:]:
                counts[(RIGHT, j)] += c - 1
        return dict(counts)


def partner_masks(g: BipartiteGraph) -> list[int]:
    """Each left vertex ``a``'s partner mask: the left bitmask of the
    vertices ``b != a`` with at least two neighbours in common with ``a``.

    A two-level saturating OR over the right rows of ``a``'s neighbours:
    ``once`` holds the vertices met at least once, ``twice`` those met at
    least twice. One pass of ``O(E)`` integer operations, whatever the order
    of the graph."""
    right_rows = g.right_rows
    partners = []
    for a, nbrs in enumerate(g.sides[0]):
        once = twice = 0
        for j in nbrs:
            row = right_rows[j]
            twice |= once & row
            once |= row
        partners.append(twice & ~(1 << a))
    return partners


def _pair_records(g: BipartiteGraph, partners: list[int]) -> tuple[_Pair, ...]:
    """The left pairs ``a < b`` with at least two common neighbors, by ``a``,
    then ``b``: each ``a``'s partners above it."""
    rows = g.left_rows
    pairs: list[_Pair] = []
    for a, mask in enumerate(partners):
        row_a = rows[a]
        for b in bits(mask & -(2 << a)):
            common = row_a & rows[b]
            low = common & -common
            high = common ^ low
            if not high & (high - 1):
                # Two common neighbors, one cycle: 94% of the pairs on the
                # degree-11 records and their perturbations.
                pairs.append((a, b, (low.bit_length() - 1, high.bit_length() - 1)))
            else:
                pairs.append((a, b, tuple(bits(common))))
    return tuple(pairs)


def short_cycles(g: BipartiteGraph) -> ShortCycleSet:
    """The left pairs with at least two common neighbors, ascending."""
    return ShortCycleSet(pairs=_pair_records(g, partner_masks(g)))


def _components(nbr: list[int]) -> list[int]:
    """The components of the graph with neighbour bitmask ``nbr[x]`` for each
    id ``x``, as id bitmasks in order of their least id; an id with no
    neighbour lies in none. Each is swept once, a frontier bitmask at a time."""
    comps: list[int] = []
    seen = 0
    for x, row in enumerate(nbr):
        if row and not seen >> x & 1:
            comp = frontier = 1 << x
            while frontier:
                frontier = union(bits(frontier), nbr) & ~comp
                comp |= frontier
            seen |= comp
            comps.append(comp)
    return comps


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
    """Opposite vertices of a cycle are repeats: each left pair is linked,
    and so are all common neighbors of one pair. Sets ordered by least vertex,
    which is their least id, since left ids precede right ids."""
    n_left, left_rows = g.n_left, g.left_rows
    nbr = [0] * g.order
    for a, b, js in cycles.pairs:
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
        common = (left_rows[a] & left_rows[b]) << n_left
        for j in js:
            nbr[n_left + j] |= common
    vertex = list(g.vertices())
    sets = (frozenset(vertex[x] for x in bits(comp)) for comp in _components(nbr))
    return RepeatStructure(minimal_closed_sets=tuple(sets))


# ---------------------------------------------------------------------------
# Defect-4 rules
# ---------------------------------------------------------------------------

#: Degrees inside a theta block, the component of a defect-4 graph's 2-path
#: union: a ``K_{2,3}``.
THETA_DEGREES = (2, 2, 2, 3, 3)
THETA_ORDER = len(THETA_DEGREES)
#: The smallest ring order m' of a circulant 1-path component.
MIN_RING_ORDER = 5
#: At degree 7 the 0-path union is made of closed repeat blocks of 8
#: vertices, at least three of them.
GAMMA0_BLOCK = 8
GAMMA0_MIN_ORDER = 3 * GAMMA0_BLOCK


def gamma0_size_ok(size: int) -> bool:
    """Whether a degree-7 0-path union may have ``size`` vertices."""
    return size % GAMMA0_BLOCK == 0 and size >= GAMMA0_MIN_ORDER


def ring_orders_beside_theta(d: int) -> range:
    """The ring orders m' of a 1-path component joined to a theta block:
    ``3k`` with ``2 <= k <= d - 2``."""
    return range(3 * 2, 3 * (d - 2) + 1, 3)


def ring_orders_beside_gamma0(d: int) -> range:
    """The ring orders m' of a 1-path component joined to the 0-path union:
    ``4k`` with ``2 <= k <= d - 4``."""
    return range(4 * 2, 4 * (d - 4) + 1, 4)


def ring_ratio_cap(d: int) -> int:
    """The largest quotient of the ring orders of two joined 1-path
    components at degree ``d``."""
    return d - 3


def rings_join(small: int, big: int, ratio_cap: int | None) -> bool:
    """Whether 1-path components of ring orders ``small <= big`` may be
    joined by an edge: ``small`` divides ``big``, with quotient at most
    ``ratio_cap`` unless it is None."""
    return big % small == 0 and (ratio_cap is None or big // small <= ratio_cap)


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


@dataclass
class ThetaComponent:
    vertices: frozenset[Vertex]
    recognized: bool
    branch: frozenset[Vertex]  # degree >= 3 inside the component subgraph


@dataclass
class PhiComponent:
    vertices: frozenset[Vertex]
    recognized: bool
    m_prime: int | None
    #: Cyclic labelings (host vertices in circulant order) when recognized.
    x_order: tuple[Vertex, ...] = ()
    y_order: tuple[Vertex, ...] = ()


@dataclass
class Gamma0Part:
    vertices: frozenset[Vertex]


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
            "gamma0": names(self.v0),
            "residue": names(self.residue),
            "disjoint": self.disjoint,
        }


def _recognize_theta(
    comp: int, nbr: list[int], vertex: list[Vertex]
) -> tuple[bool, frozenset[Vertex]]:
    """Whether a 2-path component is a theta block, with its branch vertices,
    those of degree at least 3 in the label's union ``nbr``.

    The degrees decide: five ids of degrees ``THETA_DEGREES`` span a
    ``K_{2,3}``, whose three cycles all carry the label.
    """
    degree = {x: nbr[x].bit_count() for x in bits(comp)}
    branch = frozenset(vertex[x] for x, k in degree.items() if k >= 3)
    return tuple(sorted(degree.values())) == THETA_DEGREES, branch


def _recognize_phi(
    comp: int, nbr: list[int], pairs: list[_Pair], n_left: int
) -> tuple[bool, int | None, tuple[Vertex, ...], tuple[Vertex, ...]]:
    """Match a 1-path component, from its pairs, to the circulant pattern.

    In the pattern on ``m >= MIN_RING_ORDER`` left ids ``x_k`` and right
    vertices ``y_k``, ``nbr[x_k]`` is ``{y_(k-1), y_k, y_(k+1)}``. Its cycles
    are the ``m`` pairs ``x_k, x_(k+1)`` with common neighbors
    ``y_k, y_(k+1)``: each left id lies on two of them, and neighbouring
    pairs share one left id and one right vertex. The walk starts at the first pair, steps first to the
    lower-index pair beside it, and reads each step's shared left id and
    right vertex as the next ``x_k`` and ``y_k``; the labeling holds when
    those fill the component and every ``nbr[x_k]`` matches the pattern.
    """
    m = len(pairs)
    if m < MIN_RING_ORDER or comp.bit_count() != 2 * m:
        return False, None, (), ()
    on: dict[int, list[int]] = {}
    for k, (a, b, _) in enumerate(pairs):
        on.setdefault(a, []).append(k)
        on.setdefault(b, []).append(k)
    if any(len(ks) != 2 for ks in on.values()):
        return False, None, (), ()
    a, b, _ = pairs[0]
    x, k = (a if on[a][1] < on[b][1] else b), 0
    xs, ys = [], []
    for _ in range(m):
        nxt = sum(on[x]) - k
        shared = set(pairs[k][2]).intersection(pairs[nxt][2])
        if len(shared) != 1:
            return False, None, (), ()
        xs.append(x)
        ys.append(shared.pop())
        a, b, _ = pairs[nxt]
        x, k = (b if x == a else a), nxt
    ids = 0
    for x, y in zip(xs, ys):
        ids |= 1 << x | 1 << (n_left + y)
    if ids != comp or any(
        nbr[x] != sum(1 << (n_left + ys[(k + s) % m]) for s in FIXED_SHIFTS)
        for k, x in enumerate(xs)
    ):
        return False, None, (), ()
    return True, m, tuple((LEFT, x) for x in xs), tuple((RIGHT, y) for y in ys)


_LABELS = ("s2", "s1", "s0")


def classify_and_decompose(g: BipartiteGraph) -> Decomposition:
    """Label every 4-cycle, split the graph into the labeled unions, and
    recognize their components. Total on any bipartite input; components that
    fail recognition are reported unrecognized, never raised.

    The work is keyed by left pair (see the module docstring). Each label
    has its own neighbour list over vertex ids, since a vertex may lie on
    cycles of several labels.
    """
    partners = partner_masks(g)
    pairs = _pair_records(g, partners)
    n_left = g.n_left
    left_rows, right_rows = g.left_rows, g.right_rows

    # Label each pair's cycles, number them, keep the 1-path pairs in
    # ``ring_pairs``, and link the pair's left ids to its common right ids in
    # the label's neighbour list.
    # A third common neighbor of either pair closes a cycle sharing a 2-path.
    # Short of that, a cycle sharing an edge shares a 1-path. With ``c == 2``,
    # edge ``(a, j)`` lies on another cycle exactly when
    # ``partners[a] & right_rows[j]`` holds a vertex besides ``b``, which it
    # always holds.
    nbrs: tuple[list[int], ...] = ([0] * g.order, [0] * g.order, [0] * g.order)
    ring_pairs: list[_Pair] = []
    labels: list[str] = []
    s_lists: tuple[list[int], ...] = ([], [], [])
    for pair in pairs:
        a, b, js = pair
        k = len(labels)
        ends = 1 << a | 1 << b
        if len(js) > 2:
            nbr = nbrs[0]
            for j in js:
                nbr[n_left + j] |= ends
            labels.extend([_LABELS[0]] * (len(js) * (len(js) - 1) // 2))
            s_lists[0].extend(range(k, len(labels)))
        else:
            j1, j2 = js
            row1, row2 = right_rows[j1], right_rows[j2]
            if (row1 & row2).bit_count() > 2:
                lab = 0
            else:
                either = row1 | row2
                lab = 1 if partners[a] & either != 1 << b or partners[b] & either != 1 << a else 2
            nbr = nbrs[lab]
            nbr[n_left + j1] |= ends
            nbr[n_left + j2] |= ends
            labels.append(_LABELS[lab])
            s_lists[lab].append(k)
            if lab == 1:
                ring_pairs.append(pair)
        common = (left_rows[a] & left_rows[b]) << n_left
        nbr[a] |= common
        nbr[b] |= common

    # Each label's components, in order of their least (left) id. A ring is
    # recognized from its pairs: a pair belongs to the component of its
    # vertex ``a``.
    vertex = list(g.vertices())
    theta, phi, zero = (_components(nbr) for nbr in nbrs)
    if len(phi) == 1:  # one component, as on the degree-11 records
        phi_pairs = [ring_pairs]
    else:
        comp_of = [0] * n_left
        for c, comp in enumerate(phi):
            for i in bits(comp & ((1 << n_left) - 1)):
                comp_of[i] = c
        phi_pairs = [[] for _ in phi]
        for pair in ring_pairs:
            phi_pairs[comp_of[pair[0]]].append(pair)

    def vertices_of(mask: int) -> frozenset[Vertex]:
        return frozenset(vertex[x] for x in bits(mask))

    gamma2 = tuple(
        ThetaComponent(vertices_of(comp), *_recognize_theta(comp, nbrs[0], vertex))
        for comp in theta
    )
    gamma1 = tuple(
        PhiComponent(vertices_of(comp), *_recognize_phi(comp, nbrs[1], ps, n_left))
        for comp, ps in zip(phi, phi_pairs)
    )
    gamma0 = tuple(Gamma0Part(vertices_of(comp)) for comp in zero)

    # Disjoint masks: their sum is their union.
    covered = m2, m1, m0 = sum(theta), sum(phi), sum(zero)
    v2, v1, v0 = (vertices_of(mask) for mask in covered)
    residue = vertices_of(~(m2 | m1 | m0) & ((1 << g.order) - 1))
    disjoint = not (m2 & m1 or m2 & m0 or m1 & m0)
    s2, s1, s0 = (tuple(ks) for ks in s_lists)
    return Decomposition(
        cycles=ShortCycleSet(pairs), labels=tuple(labels), s2=s2, s1=s1, s0=s0,
        v2=v2, v1=v1, v0=v0, gamma2=gamma2, gamma1=gamma1, gamma0=gamma0,
        residue=residue, disjoint=disjoint,
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

    edges = [(i, j) for i, nbrs in enumerate(g.sides[0]) for j in nbrs]
    theta_comp = _index(comp.vertices for comp in dec.gamma2)
    phi_comp = _index(comp.vertices for comp in dec.gamma1)
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

    def ring_modularity(near: Container[Vertex], allowed: Container[int]) -> dict | None:
        """An edge from ``near`` to a recognized ring whose order m' is not
        in ``allowed``, with that m'."""

        def bad_order(a: Vertex, b: Vertex) -> int | None:
            if a not in near or b not in phi_comp:
                return None
            comp = dec.gamma1[phi_comp[b]]
            return comp.m_prime if comp.recognized and comp.m_prime not in allowed else None

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
    if not dec.gamma2 or not dec.v0:
        skip("no_edge_gamma2_gamma0", both)
    else:
        edge, _ = first_edge(lambda a, b: a in nonbranch_vertices and b in dec.v0)
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

    # gamma1_gamma1_divisibility: joined components pass ``rings_join``
    if len(recognized_phi) < 2:
        skip("gamma1_gamma1_divisibility", "fewer than two recognized circulant components")
    else:
        witness = None
        rings = _index(comp.vertices if comp.recognized else () for comp in dec.gamma1)
        for (cu, cv), edge in joined(rings):
            small, big = sorted((dec.gamma1[cu].m_prime, dec.gamma1[cv].m_prime))
            if not rings_join(small, big, ring_ratio_cap(d)):
                witness = {"mSmall": small, "mBig": big, "edge": edge}
                break
        verdict("gamma1_gamma1_divisibility", witness)

    # gamma0_size: ``gamma0_size_ok`` (degree-7 analysis only)
    if d != 7 or not dec.v0:
        skip("gamma0_size", "degree-7 rule" if d != 7 else "0-path union empty")
    else:
        verdict("gamma0_size", None if gamma0_size_ok(len(dec.v0)) else {"size": len(dec.v0)})

    # gamma2_gamma1_modularity: a ring joined to a theta has an order in
    # ``ring_orders_beside_theta``
    if not dec.gamma2 or not recognized_phi:
        skip("gamma2_gamma1_modularity", both)
    else:
        verdict("gamma2_gamma1_modularity", ring_modularity(theta_comp, ring_orders_beside_theta(d)))

    # gamma0_gamma1_modularity: a ring joined to gamma0 has an order in
    # ``ring_orders_beside_gamma0``
    if not dec.v0 or not recognized_phi:
        skip("gamma0_gamma1_modularity", both)
    else:
        verdict("gamma0_gamma1_modularity", ring_modularity(dec.v0, ring_orders_beside_gamma0(d)))

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
    sides1: Sides, sides2: Sides, colors1: list[list[int]], colors2: list[list[int]], side: int
) -> tuple[list[list[int]], list[list[int]]] | None:
    """Refine both graphs in lockstep, one side a half-round, ``side`` first:
    each vertex by its colour and its neighbours' sorted colours. Stop after
    two half-rounds in a row that split nothing, or once the colouring is
    discrete, leaving a mismatch it hides to ``_match``. None on divergence.
    """
    colors1, colors2 = list(colors1), list(colors2)
    cells = [len(set(own)) for own in colors1]
    quiet = 0
    while quiet < 2:
        keys1, keys2 = (
            [(c, tuple(sorted(map(colors[1 - side].__getitem__, nbrs))))
             for c, nbrs in zip(colors[side], sides[side])]
            for colors, sides in ((colors1, sides1), (colors2, sides2))
        )
        count = Counter(keys1)
        if count.items() != Counter(keys2).items():  # compared in C, unlike Counter's ==
            return None
        palette = {key: idx for idx, key in enumerate(sorted(count))}
        colors1[side] = [palette[k] for k in keys1]
        colors2[side] = [palette[k] for k in keys2]
        quiet = quiet + 1 if len(palette) == cells[side] else 0
        cells[side] = len(palette)
        if cells == [len(own) for own in colors1]:
            break
        side = 1 - side
    return colors1, colors2


def _match(
    sides1: Sides, sides2: Sides, rows2: tuple[int, ...],
    colors1: list[list[int]], colors2: list[list[int]], side: int, cut: Callable[[], bool],
) -> tuple[list[int], list[int]] | None:
    """The left and right index maps at the first leaf of the depth-first
    search, or None. ``rows2`` are ``g2``'s left rows as ``sides2`` orients
    it. ``cut()`` is asked before each candidate after the first, at any
    depth, and ends the search when true."""
    refined = _refine(sides1, sides2, colors1, colors2, side)
    if refined is None:
        return None
    colors1, colors2 = refined
    split = [(k, s, c) for s in (0, 1) for c, k in Counter(colors1[s]).items() if k > 1]
    if not split:
        position = [{c: w for w, c in enumerate(own)} for own in colors2]
        left, right = ([at[c] for c in own] for at, own in zip(position, colors1))
        right_bits = [1 << w for w in right]
        matched = all(union(nbrs, right_bits) == rows2[w] for nbrs, w in zip(sides1[0], left))
        return (left, right) if matched else None
    _, side, target = min(split)
    own1, own2 = colors1[side], colors2[side]
    fresh = max(own1) + 1
    v = own1.index(target)
    marked1 = list(colors1)
    marked1[side] = own1[:v] + [fresh] + own1[v + 1:]
    for k, w in enumerate(u for u, c in enumerate(own2) if c == target):
        if k and cut():
            return None
        marked2 = list(colors2)
        marked2[side] = own2[:w] + [fresh] + own2[w + 1:]
        # Only ``v`` moved on its side, so the other side is recoloured first.
        result = _match(sides1, sides2, rows2, marked1, marked2, 1 - side, cut)
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


def _two_step_invariant(g: BipartiteGraph) -> tuple:
    """Sound isomorphism invariant: per-side sorted sizes of the two-step
    neighbourhoods ``N(N(v))``, one OR per edge over ``g.sides``, as an
    unordered side pair."""
    left, right = g.sides
    sizes = (
        tuple(sorted(union(nbrs, across).bit_count() for nbrs in lists))
        for lists, across in ((left, g.right_rows), (right, g.left_rows))
    )
    return tuple(sorted(sizes))


#: Largest vertex count ``find_isomorphism`` accepts.
MAX_ISO_ORDER = 500


def find_isomorphism(g1: BipartiteGraph, g2: BipartiteGraph) -> dict[Vertex, Vertex] | None:
    """Exact isomorphism witness (vertex bijection), or None.

    Each test runs only when the cheaper ones before it cannot decide:

    1. order and edge count;
    2. ``_two_step_invariant``, a gate that rejects most non-isomorphic
       pairs with no search;
    3. individualization-refinement over the graphs' ``sides`` lists.
       Vertices start coloured by degree, and ``g2`` is tried with
       its sides kept, then swapped (its lists swapped). Just before the
       search leaves its first branch (a second candidate at any depth, or
       the swapped start), ``_pair_invariant`` of both graphs is computed,
       once per call, and ends the search when they differ.

    The smallest non-singleton cell is split, ties going to the left side,
    then the lower colour: its first vertex against each candidate in index
    order. So the map is the first leaf of a fixed depth-first search.
    Instances above ``MAX_ISO_ORDER`` vertices are refused.
    """
    if g1.order > MAX_ISO_ORDER or g2.order > MAX_ISO_ORDER:
        raise BudgetError(f"isomorphism capped at {MAX_ISO_ORDER} vertices")
    if g1.order != g2.order or g1.edge_count != g2.edge_count:
        return None
    if _two_step_invariant(g1) != _two_step_invariant(g2):
        return None
    sides1, sides2 = g1.sides, g2.sides
    cut = cache(lambda: _pair_invariant(g1) != _pair_invariant(g2))
    start1, start2 = ([[len(nbrs) for nbrs in lists] for lists in pair] for pair in (sides1, sides2))
    for k, (frame, rows2) in enumerate(((sides2, g2.left_rows), (sides2[::-1], g2.right_rows))):
        if k and cut():
            return None
        maps = _match(sides1, frame, rows2, start1, start2[::-1] if k else start2, 0, cut)
        if maps is not None:
            named = zip((LEFT, RIGHT), (RIGHT, LEFT) if k else (LEFT, RIGHT), maps)
            return {(side, i): (name, w) for side, name, ws in named for i, w in enumerate(ws)}
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
    """Validation of a claimed isomorphism apart from the search: the
    mapping must take exactly the vertices of ``g1`` onto exactly those of
    ``g2``, and every edge onto an edge. Each left vertex's image picks the
    target row, and each edge is one side test and one bit test of it."""
    if set(mapping) != set(g1.vertices()) or set(mapping.values()) != set(g2.vertices()):
        return False
    if g1.order != g2.order or g1.edge_count != g2.edge_count:
        return False
    right_image = [mapping[(RIGHT, j)] for j in range(g1.n_right)]
    for i, nbrs in enumerate(g1.sides[0]):
        side, u = mapping[(LEFT, i)]
        row = (g2.left_rows if side == LEFT else g2.right_rows)[u]
        for j in nbrs:
            other, w = right_image[j]
            if other == side or not row >> w & 1:
                return False
    return True
