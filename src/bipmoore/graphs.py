"""Immutable bipartite graphs with bitset adjacency and exact distance queries.

Vertices are addressed as ``(side, index)`` pairs with sides ``"L"`` and
``"R"``; indices are 0-based and dense on each side. Adjacency is stored as
one integer bitmask per left vertex (bit ``j`` set when ``(L, i) ~ (R, j)``)
together with the materialized transpose, so neighborhood unions, BFS
frontiers and common-neighbor counts are single integer operations.

A vertex's integer id is its position in ``vertices()``: left ``i`` is ``i``
and right ``j`` is ``n_left + j``. Every id bitmask in the package, here and
in ``structure``, uses these ids.

Each graph also carries its neighbour lists, ``sides``: each left vertex's
right neighbours, then each right vertex's left ones, by index on the other
side in ascending order. They are built once, by ``from_neighbor_lists``,
with the rows; they take no part in equality or hashing. The graph and
structure layers read them, and ``union`` ORs the rows picked by a list of
indices. ``girth`` walks breadth-first layers from each source
(``_layers``), each layer the ``union`` of the last one's rows less the
layer before it. ``diameter`` needs no source: it runs one all-sources
sweep in which every vertex holds the set of ids within distance ``t`` as
one integer, and each sweep widens every set by its ``sides`` neighbours'
sets. A graph of diameter ``D`` with ``E`` edges costs ``(D + 1) * 2E``
integer ORs, about 8,400 for a 190-vertex 11-regular graph.

Graphs are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .bounds import DefectRecord
from .bounds import defect as defect_record

LEFT = "L"
RIGHT = "R"

#: Sentinel for "no finite distance"; compares greater than every hop count.
INF = float("inf")

Vertex = tuple[str, int]

#: Each left vertex's right neighbours, then each right vertex's left ones.
Sides = tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def union(indices: Iterable[int], rows: Sequence[int]) -> int:
    """The OR of ``rows[i]`` over ``indices``."""
    out = 0
    for i in indices:
        out |= rows[i]
    return out


@dataclass(frozen=True)
class BipartiteGraph:
    """A simple bipartite graph: edges run only between the two sides.

    ``left_rows[i]`` has bit ``j`` set iff ``(L, i) ~ (R, j)``;
    ``right_rows`` is the edge-for-edge transpose. ``sides`` lists the same
    edges by index: ``sides[0][i]`` the set bits of ``left_rows[i]`` and
    ``sides[1][j]`` those of ``right_rows[j]``, ascending.
    """

    n_left: int
    n_right: int
    left_rows: tuple[int, ...]
    right_rows: tuple[int, ...]
    sides: Sides = field(compare=False, repr=False)

    @classmethod
    def from_neighbor_lists(
        cls, neighbor_lists: Sequence[Iterable[int]], n_right: int
    ) -> BipartiteGraph:
        """Build from per-left-vertex right-neighbor lists (duplicates rejected)."""
        if n_right < 0:
            raise ValueError("n_right must be nonnegative")
        rows = []
        right = [0] * n_right
        left_lists = []
        right_lists: list[list[int]] = [[] for _ in range(n_right)]
        for i, neighbors in enumerate(neighbor_lists):
            mask = 0
            bit = 1 << i
            nbrs = []
            for j in neighbors:
                if not 0 <= j < n_right:
                    raise ValueError(f"neighbor {j} of left vertex {i} out of range")
                mask |= 1 << j
                right[j] |= bit
                right_lists[j].append(i)
                nbrs.append(j)
            if mask.bit_count() != len(nbrs):
                raise ValueError(f"duplicate edge at left vertex {i}")
            rows.append(mask)
            nbrs.sort()
            left_lists.append(tuple(nbrs))
        return cls(
            len(rows), n_right, tuple(rows), tuple(right),
            (tuple(left_lists), tuple(map(tuple, right_lists))),
        )

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
        return list(self.sides[0][i])

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.left_rows[i] >> j & 1)

    def degree(self, v: Vertex) -> int:
        side, idx = self._check_vertex(v)
        row = self.left_rows[idx] if side == LEFT else self.right_rows[idx]
        return row.bit_count()

    def neighbors(self, v: Vertex) -> list[Vertex]:
        side, idx = self._check_vertex(v)
        if side == LEFT:
            return [(RIGHT, j) for j in self.sides[0][idx]]
        return [(LEFT, i) for i in self.sides[1][idx]]

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
        return BipartiteGraph(
            self.n_right, self.n_left, self.right_rows, self.left_rows, self.sides[::-1]
        )

    def _check_vertex(self, v: Vertex) -> Vertex:
        side, idx = v
        if side == LEFT and 0 <= idx < self.n_left:
            return v
        if side == RIGHT and 0 <= idx < self.n_right:
            return v
        raise ValueError(f"invalid vertex {v!r} for a {self.n_left}x{self.n_right} graph")


def _layers(g: BipartiteGraph, source: Vertex) -> Iterator[tuple[int, bool, int, int]]:
    """Yield ``(level, on_left, layer, prev)`` for each breadth-first layer
    from ``source``, level 0 first: ``layer`` holds the vertices at distance
    ``level``, on the left when ``on_left``, and ``prev`` the layer before
    (0 at level 0). A layer's neighbours lie in the layers just before and
    after it, so each layer is the last one's neighbourhood less ``prev``.
    """
    side, idx = source
    level, on_left, layer, prev = 0, side == LEFT, 1 << idx, 0
    while layer:
        yield level, on_left, layer, prev
        reached = union(bits(layer), g.left_rows if on_left else g.right_rows)
        level, on_left, layer, prev = level + 1, not on_left, reached & ~prev, layer


def _widen(reach: list[int], lists: Sequence[Sequence[int]], across: list[int]) -> list[int]:
    """Each set in ``reach`` ORed with its ``lists`` neighbours' sets in ``across``."""
    wider = []
    for r, nbrs in zip(reach, lists):
        for k in nbrs:
            r |= across[k]
        wider.append(r)
    return wider


def diameter(g: BipartiteGraph) -> float:
    """Largest eccentricity; ``INF`` for disconnected graphs.

    One sweep for all sources at once: ``reach_l[i]`` and ``reach_r[j]`` are
    the sets of vertex ids within distance ``t`` of ``(L, i)`` and ``(R, j)``,
    one bit per id, and a sweep widens each set by the union of its
    neighbours' sets on the other side. The diameter is the first ``t`` at
    which every set is full; a sweep that changes nothing before then means
    the graph is disconnected. Cost: ``(D + 1) * 2E`` integer ORs for
    diameter ``D`` and ``E`` edges, written inline: on low degrees a call
    per vertex costs more than the ORs it makes.
    """
    if g.order == 0:
        raise ValueError("diameter of the empty graph is undefined")
    full = (1 << g.order) - 1
    left, right = g.sides
    reach_l = [1 << i for i in range(g.n_left)]
    reach_r = [1 << v for v in range(g.n_left, g.order)]
    t = 0
    while True:
        if all(r == full for r in reach_l) and all(r == full for r in reach_r):
            return t
        wider_l = _widen(reach_l, left, reach_r)
        wider_r = _widen(reach_r, right, reach_l)
        if wider_l == reach_l and wider_r == reach_r:
            return INF
        reach_l, reach_r = wider_l, wider_r
        t += 1


def girth(g: BipartiteGraph) -> float:
    """Length of a shortest cycle; ``INF`` for forests. Always even here.

    A vertex first reached from two predecessors at some level closes a
    walk of length ``2 * level``, which contains a cycle no longer than that.
    """
    best = INF
    for v in g.vertices():
        for level, on_left, layer, prev in _layers(g, v):
            rows = g.left_rows if on_left else g.right_rows
            if any((rows[k] & prev).bit_count() >= 2 for k in bits(layer)):
                best = 2 * level
                break
            if 2 * (level + 1) >= best:
                break
        if best == 4:
            break
    return best


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

#: Most vertices a side the file parsers accept, checked before any build.
#: Each side's rows are bitmasks as wide as the other side, so a short file
#: can name a graph of up to ``n_left * n_right`` bits; the cap bounds it.
MAX_SIDE = 1 << 14


def decimal(token: str, signed: bool = True) -> int:
    """``token`` as an integer, when it is plain ASCII decimal digits, after
    one leading ``-`` if ``signed``; ValueError otherwise. ``int()`` alone
    also reads a ``+``, ``_`` separators, surrounding whitespace and
    non-ASCII digits, so every parser of outside text reads integers here."""
    digits = token[1:] if signed and token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a plain decimal integer: {token!r}")
    return int(token)


def format_adjacency(g: BipartiteGraph) -> str:
    lines = [f"{g.n_left} {g.n_right}"]
    for i, neighbors in enumerate(g.sides[0]):
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
        n_left, n_right = decimal(header[0]), decimal(header[1])
    except ValueError as exc:
        raise ValueError("header must hold two integers") from exc
    if not (0 <= n_left <= MAX_SIDE and 0 <= n_right <= MAX_SIDE):
        raise ValueError(f"vertex counts must lie in 0..{MAX_SIDE}")
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
            try:
                neighbors.append(decimal(token, signed=False))
            except ValueError:
                raise ValueError(f"line {i + 2}: bad index {token!r}") from None
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
            i, j = decimal(parts[0]), decimal(parts[1])
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
    if max(n_left, n_right) > MAX_SIDE:
        raise ValueError(f"vertex counts must lie in 0..{MAX_SIDE}")
    return BipartiteGraph.from_edges(n_left, n_right, edges)
