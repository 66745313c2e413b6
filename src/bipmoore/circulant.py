"""Builders for the circulant-style bipartite families and their residue test.

The central family is the graph on sides ``{x_i}`` and ``{y_i}`` (indices mod
``m``) with edges ``x_i ~ y_{i+b}`` for every shift ``b`` of the connection set
``B = FIXED_SHIFTS + offsets``. Two left vertices ``x_i`` and ``x_{i+r}`` share
a neighbour exactly when ``r`` is a difference ``s - t`` of shifts in ``B``, so
whether such a graph has diameter at most 3 reduces to whether these
two-step residues cover ``Z_m``, which is what the search engine enumerates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import BipartiteGraph

#: The shifts every phi graph has; its offsets add one shift each.
FIXED_SHIFTS = (-1, 0, 1)


@dataclass(frozen=True)
class PhiSpec:
    """A modulus plus distinct offsets in ``[2, m-2]``; degree is ``3 + len(offsets)``.

    Offsets are kept sorted ascending; input order is not significant.
    """

    m: int
    offsets: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.m < 5:
            raise ValueError("modulus must be at least 5")
        ordered = tuple(sorted(self.offsets))
        for a in ordered:
            if not 2 <= a <= self.m - 2:
                raise ValueError(f"offset {a} outside [2, {self.m - 2}]")
        if len(set(ordered)) != len(ordered):
            raise ValueError("offsets must be pairwise distinct")
        object.__setattr__(self, "offsets", ordered)

    @property
    def degree(self) -> int:
        return 3 + len(self.offsets)

    def negated(self) -> PhiSpec:
        """The spec with every offset replaced by its negation mod m."""
        return PhiSpec(self.m, tuple(self.m - a for a in self.offsets))


def canonicalize(spec: PhiSpec) -> PhiSpec:
    """Pick the lexicographically smaller of the spec and its negation.

    The two describe isomorphic graphs (negate all subscripts), so searches
    and reports only ever deal in canonical specs.
    """
    other = spec.negated()
    return spec if spec.offsets <= other.offsets else other


def format_spec(spec: PhiSpec) -> str:
    """Render as ``phi <m>: <a_1>,<a_2>,...`` (no offsets: ``phi <m>:``)."""
    if spec.offsets:
        return f"phi {spec.m}: " + ",".join(str(a) for a in spec.offsets)
    return f"phi {spec.m}:"


def parse_spec(text: str) -> PhiSpec:
    body = text.strip()
    if not body.startswith("phi "):
        raise ValueError(f"spec must start with 'phi ': {text!r}")
    head, sep, tail = body[4:].partition(":")
    if not sep:
        raise ValueError(f"spec needs a ':' after the modulus: {text!r}")
    try:
        m = int(head.strip())
    except ValueError as exc:
        raise ValueError(f"bad modulus in {text!r}") from exc
    tail = tail.strip()
    if not tail:
        return PhiSpec(m)
    try:
        offsets = tuple(int(tok.strip()) for tok in tail.split(","))
    except ValueError as exc:
        raise ValueError(f"bad offset list in {text!r}") from exc
    return PhiSpec(m, offsets)


def build_theta(t: int) -> BipartiteGraph:
    """Two endvertices joined by three internally disjoint paths of length t.

    Order ``3t - 1``. For even t both endvertices land on the left side.
    """
    if t < 2:
        raise ValueError("path length must be at least 2")
    # Vertices along path p: end0, (p, 1), ..., (p, t-1), end1; a position k
    # sits on the left side when k is even.
    left: list[tuple] = [("end", 0)]
    right: list[tuple] = []
    if t % 2 == 0:
        left.append(("end", 1))
    else:
        right.append(("end", 1))
    for p in range(3):
        for k in range(1, t):
            (left if k % 2 == 0 else right).append(("mid", p, k))
    left_index = {v: i for i, v in enumerate(left)}
    right_index = {v: j for j, v in enumerate(right)}
    edges = []
    for p in range(3):
        chain = [("end", 0)] + [("mid", p, k) for k in range(1, t)] + [("end", 1)]
        for a, b in zip(chain, chain[1:]):
            if a in left_index:
                edges.append((left_index[a], right_index[b]))
            else:
                edges.append((left_index[b], right_index[a]))
    return BipartiteGraph.from_edges(len(left), len(right), edges)


def build_phi_spec(spec: PhiSpec) -> BipartiteGraph:
    """The graph described by ``spec``: 2m vertices, (3 + #offsets)-regular."""
    m = spec.m
    shifts = FIXED_SHIFTS + spec.offsets
    lists = [sorted((i + s) % m for s in shifts) for i in range(m)]
    return BipartiteGraph.from_neighbor_lists(lists, m)


def build_phi(m: int) -> BipartiteGraph:
    """The plain 3-regular member of the family (no extra offsets)."""
    return build_phi_spec(PhiSpec(m))


@dataclass(frozen=True)
class ResidueCoverage:
    """The two-step residue multiset of a spec and its coverage verdict.

    ``counts[r]`` is the multiplicity with which residue ``r`` occurs as a
    difference ``s - t`` of distinct shifts in ``B = FIXED_SHIFTS + offsets``,
    reduced mod m, plus ``0`` once. The fixed shifts give ``+-1`` twice
    (``1 - 0`` and ``0 - (-1)``), and that repeat is counted once.
    """

    m: int
    counts: tuple[int, ...]

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(r for r, c in enumerate(self.counts) if c)

    @property
    def full(self) -> bool:
        return all(self.counts)

    @property
    def multiset_size(self) -> int:
        return sum(self.counts)


def two_step_residues(spec: PhiSpec) -> ResidueCoverage:
    """Residues of same-side vertices reachable from ``x_0`` in exactly two steps.

    The multiset always has ``d**2 - d - 1`` entries where ``d`` is the spec
    degree, regardless of the modulus.
    """
    m = spec.m
    counts = [0] * m
    # Differences within the fixed shifts, each value once: 0 and the +-1
    # that two pairs give are counted once.
    for value in {s - t for s in FIXED_SHIFTS for t in FIXED_SHIFTS}:
        counts[value % m] += 1
    # Every pair of shifts with an offset in it gives both its differences.
    shifts = FIXED_SHIFTS + spec.offsets
    for i in range(len(FIXED_SHIFTS), len(shifts)):
        for t in shifts[:i]:
            counts[(shifts[i] - t) % m] += 1
            counts[(t - shifts[i]) % m] += 1
    return ResidueCoverage(m=m, counts=tuple(counts))


def diameter_at_most_3(spec: PhiSpec) -> bool:
    """True iff the two-step residues cover all of Z_m.

    Full coverage puts every same-side pair at distance two and hence every
    cross-side pair within three; a missing residue leaves a same-side pair
    at distance four or more. The exact diameter (2 versus 3) is a separate
    BFS question and is never assumed here.
    """
    return two_step_residues(spec).full
