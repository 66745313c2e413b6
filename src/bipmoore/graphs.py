"""Immutable bipartite graphs with bitset adjacency and exact distance queries.

Vertices are addressed as ``(side, index)`` pairs with sides ``"L"`` and
``"R"``; indices are 0-based and dense on each side. Adjacency is stored as
one integer bitmask per left vertex (bit ``j`` set when ``(L, i) ~ (R, j)``)
together with the materialized transpose, so neighborhood unions, BFS
frontiers and common-neighbor counts are single integer operations.

``bfs_distances`` answers per-source questions. ``diameter`` needs no
source: it runs one all-sources sweep in which every vertex holds the set
of vertices within distance ``t`` as one integer, and each sweep ORs in the
neighbours' sets. A graph of diameter ``D`` with ``E`` edges costs
``(D + 1) * 2E`` integer ORs, about 8,400 for a 190-vertex 11-regular graph.

Graphs are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .bounds import DefectRecord
from .bounds import defect as defect_record

LEFT = "L"
RIGHT = "R"

#: Sentinel for "no finite distance"; compares greater than every hop count.
INF = float("inf")

Vertex = tuple[str, int]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int], n_out: int) -> tuple[int, ...]:
    out = [0] * n_out
    for i, row in enumerate(rows):
        bit = 1 << i
        for j in bits(row):
            out[j] |= bit
    return tuple(out)


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple bipartite graph: edges run only between the two sides.

    ``left_rows[i]`` has bit ``j`` set iff ``(L, i) ~ (R, j)``;
    ``right_rows`` is the edge-for-edge transpose.
    """

    n_left: int
    n_right: int
    left_rows: tuple[int, ...]
    right_rows: tuple[int, ...]

    @classmethod
    def from_neighbor_lists(
        cls, neighbor_lists: Sequence[Iterable[int]], n_right: int
    ) -> BipartiteGraph:
        """Build from per-left-vertex right-neighbor lists (duplicates rejected)."""
        if n_right < 0:
            raise ValueError("n_right must be nonnegative")
        rows = []
        for i, neighbors in enumerate(neighbor_lists):
            mask = 0
            count = 0
            for j in neighbors:
                if not 0 <= j < n_right:
                    raise ValueError(f"neighbor {j} of left vertex {i} out of range")
                mask |= 1 << j
                count += 1
            if mask.bit_count() != count:
                raise ValueError(f"duplicate edge at left vertex {i}")
            rows.append(mask)
        return cls(len(rows), n_right, tuple(rows), _transpose(rows, n_right))

    @classmethod
    def from_edges(
        cls, n_left: int, n_right: int, edges: Iterable[tuple[int, int]]
    ) -> BipartiteGraph:
        """Build from ``(i, j)`` pairs meaning ``(L, i) ~ (R, j)``."""
        lists: list[list[int]] = [[] for _ in range(n_left)]
        for i, j in edges:
            if not 0 <= i < n_left:
                raise ValueError(f"left index {i} out of range")
            lists[i].append(j)
        return cls.from_neighbor_lists(lists, n_right)

    @property
    def order(self) -> int:
        return self.n_left + self.n_right

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.left_rows)

    def left_neighbors(self, i: int) -> list[int]:
        return list(bits(self.left_rows[i]))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.left_rows[i] >> j & 1)

    def degree(self, v: Vertex) -> int:
        side, idx = self._check_vertex(v)
        row = self.left_rows[idx] if side == LEFT else self.right_rows[idx]
        return row.bit_count()

    def neighbors(self, v: Vertex) -> list[Vertex]:
        side, idx = self._check_vertex(v)
        if side == LEFT:
            return [(RIGHT, j) for j in bits(self.left_rows[idx])]
        return [(LEFT, i) for i in bits(self.right_rows[idx])]

    def vertices(self) -> Iterator[Vertex]:
        for i in range(self.n_left):
            yield (LEFT, i)
        for j in range(self.n_right):
            yield (RIGHT, j)

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.left_rows] + [
            row.bit_count() for row in self.right_rows
        ]

    def transpose(self) -> BipartiteGraph:
        """The same graph with the two sides swapped."""
        return BipartiteGraph(self.n_right, self.n_left, self.right_rows, self.left_rows)

    def _check_vertex(self, v: Vertex) -> Vertex:
        side, idx = v
        if side == LEFT and 0 <= idx < self.n_left:
            return v
        if side == RIGHT and 0 <= idx < self.n_right:
            return v
        raise ValueError(f"invalid vertex {v!r} for a {self.n_left}x{self.n_right} graph")


@dataclass(frozen=True)
class DistanceProfile:
    """Shortest-path hop counts from one source vertex.

    ``reachable_at_exactly_2`` holds the indices, on the source's own side,
    of vertices at distance exactly two.
    """

    source: Vertex
    left_distances: tuple[float, ...]
    right_distances: tuple[float, ...]
    eccentricity: float
    reachable_at_exactly_2: frozenset[int]

    def distance(self, v: Vertex) -> float:
        side, idx = v
        return self.left_distances[idx] if side == LEFT else self.right_distances[idx]


def bfs_distances(g: BipartiteGraph, source: Vertex) -> DistanceProfile:
    """Breadth-first distances from ``source``; unreachable vertices get ``INF``."""
    side, idx = g._check_vertex(source)
    left_dist = [INF] * g.n_left
    right_dist = [INF] * g.n_right
    if side == LEFT:
        frontier, on_left = 1 << idx, True
        left_dist[idx] = 0
    else:
        frontier, on_left = 1 << idx, False
        right_dist[idx] = 0
    seen_left = frontier if on_left else 0
    seen_right = 0 if on_left else frontier
    dist = 0
    while frontier:
        dist += 1
        if on_left:
            reached = 0
            for i in bits(frontier):
                reached |= g.left_rows[i]
            frontier = reached & ~seen_right
            seen_right |= frontier
            for j in bits(frontier):
                right_dist[j] = dist
        else:
            reached = 0
            for j in bits(frontier):
                reached |= g.right_rows[j]
            frontier = reached & ~seen_left
            seen_left |= frontier
            for i in bits(frontier):
                left_dist[i] = dist
        on_left = not on_left
    finite = [x for x in left_dist + right_dist if x != INF]
    ecc = max(finite) if finite else 0
    same_side = left_dist if side == LEFT else right_dist
    at_two = frozenset(k for k, x in enumerate(same_side) if x == 2)
    return DistanceProfile(
        source=source,
        left_distances=tuple(left_dist),
        right_distances=tuple(right_dist),
        eccentricity=ecc,
        reachable_at_exactly_2=at_two,
    )


def diameter(g: BipartiteGraph) -> float:
    """Largest eccentricity; ``INF`` for disconnected graphs.

    One sweep for all sources at once: ``reach[v]`` is the set of vertices
    within distance ``t`` of ``v``, one bit per vertex (left vertices first),
    and a sweep widens every set to the union of its neighbours' sets. The
    diameter is the first ``t`` at which every set is full; a sweep that
    changes nothing before then means the graph is disconnected. Cost:
    ``(D + 1) * 2E`` integer ORs for diameter ``D`` and ``E`` edges.
    """
    if g.order == 0:
        raise ValueError("diameter of the empty graph is undefined")
    full = (1 << g.order) - 1
    neighbors = [[g.n_left + j for j in bits(row)] for row in g.left_rows]
    neighbors += [list(bits(row)) for row in g.right_rows]
    reach = [1 << v for v in range(g.order)]
    t = 0
    while True:
        if all(r == full for r in reach):
            return t
        wider = []
        for r, adjacent in zip(reach, neighbors):
            for u in adjacent:
                r |= reach[u]
            wider.append(r)
        if wider == reach:
            return INF
        reach = wider
        t += 1


def girth(g: BipartiteGraph) -> float:
    """Length of a shortest cycle; ``INF`` for forests. Always even here."""
    best = INF
    for v in g.vertices():
        found = _shortest_cycle_through(g, v, best)
        if found < best:
            best = found
            if best == 4:
                break
    return best


def _shortest_cycle_through(g: BipartiteGraph, v: Vertex, cap: float) -> float:
    # BFS from v; the first level at which a new vertex is reached from two
    # distinct predecessors witnesses a closed walk of length 2*level, which
    # contains a cycle no longer than that.
    side, idx = v
    frontier = 1 << idx
    on_left = side == LEFT
    seen_left = frontier if on_left else 0
    seen_right = 0 if on_left else frontier
    level = 0
    while frontier:
        level += 1
        if 2 * level >= cap:
            return INF
        prev = frontier
        if on_left:
            reached = 0
            for i in bits(frontier):
                reached |= g.left_rows[i]
            frontier = reached & ~seen_right
            seen_right |= frontier
            for j in bits(frontier):
                if (g.right_rows[j] & prev).bit_count() >= 2:
                    return 2 * level
        else:
            reached = 0
            for j in bits(frontier):
                reached |= g.right_rows[j]
            frontier = reached & ~seen_left
            seen_left |= frontier
            for i in bits(frontier):
                if (g.left_rows[i] & prev).bit_count() >= 2:
                    return 2 * level
        on_left = not on_left
    return INF


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    degree: int | None
    min_degree: int
    max_degree: int


def regularity_check(g: BipartiteGraph) -> RegularityVerdict:
    """Report whether every vertex has the same degree, and which one."""
    degs = g.degrees()
    if not degs:
        return RegularityVerdict(True, None, 0, 0)
    lo, hi = min(degs), max(degs)
    if lo == hi:
        return RegularityVerdict(True, lo, lo, hi)
    return RegularityVerdict(False, None, lo, hi)


def _hops(x: float) -> int | str:
    return "infinite" if x == INF else int(x)


@dataclass(frozen=True)
class GraphCheck:
    """Regularity, diameter and girth of one graph, with its Moore defect
    when the graph is regular of degree >= 2 with finite diameter >= 2."""

    n_left: int
    n_right: int
    regularity: RegularityVerdict
    diameter: float
    girth: float
    defect: DefectRecord | None

    @property
    def order(self) -> int:
        return self.n_left + self.n_right

    def to_json_dict(self) -> dict:
        v = self.regularity
        return {
            "nLeft": self.n_left,
            "nRight": self.n_right,
            "order": self.order,
            "regular": v.regular,
            "degree": v.degree,
            "degreeRange": [v.min_degree, v.max_degree],
            "diameter": _hops(self.diameter),
            "girth": _hops(self.girth),
            "mooreBound": self.defect.moore_bound if self.defect else None,
            "defect": self.defect.defect if self.defect else None,
        }

    def to_text(self) -> str:
        v = self.regularity
        lines = [f"order {self.order} ({self.n_left}+{self.n_right})"]
        if v.regular:
            lines.append(f"regular, degree {v.degree}")
        else:
            lines.append(f"irregular, degrees {v.min_degree}..{v.max_degree}")
        lines.append(f"diameter {_hops(self.diameter)}")
        lines.append(f"girth {_hops(self.girth)}")
        if self.defect:
            lines.append(f"Moore bound {self.defect.moore_bound}, defect {self.defect.defect}")
        return "\n".join(lines)

    def failures(
        self,
        diameter: int | None = None,
        girth: int | None = None,
        degree: int | None = None,
        defect: int | None = None,
    ) -> list[str]:
        """One message per expectation given that the graph contradicts."""
        out = []
        if diameter is not None and _hops(self.diameter) != diameter:
            out.append(f"diameter {_hops(self.diameter)} != expected {diameter}")
        if girth is not None and _hops(self.girth) != girth:
            out.append(f"girth {_hops(self.girth)} != expected {girth}")
        if degree is not None and (not self.regularity.regular or self.regularity.degree != degree):
            out.append(f"not {degree}-regular")
        found = self.defect.defect if self.defect else None
        if defect is not None and found != defect:
            out.append(f"defect {found} != expected {defect}")
        return out


def check_graph(g: BipartiteGraph) -> GraphCheck:
    """Measure ``g`` the way the ``check`` command reports it."""
    verdict = regularity_check(g)
    diam = diameter(g)
    record = None
    if verdict.regular and verdict.degree is not None and verdict.degree >= 2 and diam != INF and diam >= 2:
        record = defect_record(verdict.degree, diam, g.order)
    return GraphCheck(g.n_left, g.n_right, verdict, diam, girth(g), record)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Adjacency-list format (bit-exact on rewrite): ASCII with LF line endings,
# first line "<nLeft> <nRight>", then for each left vertex one line
# "x<i>: <j_0> <j_1> ..." with strictly increasing 0-based right indices,
# single-space separated, no trailing space.


def format_adjacency(g: BipartiteGraph) -> str:
    lines = [f"{g.n_left} {g.n_right}"]
    for i in range(g.n_left):
        neighbors = g.left_neighbors(i)
        if neighbors:
            lines.append(f"x{i}: " + " ".join(str(j) for j in neighbors))
        else:
            lines.append(f"x{i}:")
    return "\n".join(lines) + "\n"


def parse_adjacency(text: str) -> BipartiteGraph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise ValueError("empty adjacency file")
    header = lines[0].split(" ")
    if len(header) != 2:
        raise ValueError("header must be '<nLeft> <nRight>'")
    try:
        n_left, n_right = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ValueError("header must hold two integers") from exc
    if n_left < 0 or n_right < 0:
        raise ValueError("vertex counts must be nonnegative")
    if len(lines) != n_left + 1:
        raise ValueError(f"expected {n_left} adjacency lines, found {len(lines) - 1}")
    rows: list[list[int]] = []
    for i, line in enumerate(lines[1:]):
        prefix = f"x{i}:"
        if not line.startswith(prefix):
            raise ValueError(f"line {i + 2}: expected prefix {prefix!r}")
        rest = line[len(prefix):]
        if rest == "":
            rows.append([])
            continue
        if not rest.startswith(" ") or rest.endswith(" "):
            raise ValueError(f"line {i + 2}: malformed spacing")
        neighbors = []
        for token in rest[1:].split(" "):
            if not token.isdigit():
                raise ValueError(f"line {i + 2}: bad index {token!r}")
            neighbors.append(int(token))
        if any(b <= a for a, b in zip(neighbors, neighbors[1:])):
            raise ValueError(f"line {i + 2}: indices must be strictly increasing")
        rows.append(neighbors)
    return BipartiteGraph.from_neighbor_lists(rows, n_right)


def write_adjacency(g: BipartiteGraph, path: str | Path) -> None:
    Path(path).write_bytes(format_adjacency(g).encode("ascii"))


def read_adjacency(path: str | Path) -> BipartiteGraph:
    return parse_adjacency(Path(path).read_bytes().decode("ascii"))


def parse_edge_list(text: str) -> BipartiteGraph:
    """Parse lines ``<i> <j>`` meaning ``(L, i) ~ (R, j)``; ``#`` starts a comment."""
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<i> <j>'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad integers") from exc
        if i < 0 or j < 0:
            raise ValueError(f"line {lineno}: negative index")
        if (i, j) in seen:
            raise ValueError(f"line {lineno}: duplicate edge {i} {j}")
        seen.add((i, j))
        edges.append((i, j))
    if not edges:
        raise ValueError("edge list holds no edges; cannot infer vertex counts")
    n_left = 1 + max(i for i, _ in edges)
    n_right = 1 + max(j for _, j in edges)
    return BipartiteGraph.from_edges(n_left, n_right, edges)
