"""Builders for the circulant-style bipartite families and their residue test.

The central family is the graph on sides ``{x_i}`` and ``{y_i}`` (indices mod
``m``) with edges ``x_i ~ y_{i+b}`` for every shift ``b`` of the connection set
``B = FIXED_SHIFTS + offsets``. Two left vertices ``x_i`` and ``x_{i+r}`` share
a neighbour exactly when ``r`` is a difference ``s - t`` of shifts in ``B``, so
whether such a graph has diameter at most 3 reduces to whether these
two-step residues cover ``Z_m``, which is what the search engine enumerates.

``PhiSpec.shifts`` is that set. ``B - B`` is defined here once, as residue
bitmasks built from the table ``pair_masks`` of ``+-t``: ``difference_mask``
covers a whole set and ``shift_mask`` what one more shift adds. The residue
test and the search both read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import MAX_SIDE, BipartiteGraph, decimal

#: The shifts every phi graph has; its offsets add one shift each.
FIXED_SHIFTS = (-1, 0, 1)

#: Largest degree a parsed spec or a command-line ``--d`` may ask for. With
#: the modulus capped at ``MAX_SIDE``, a spec's graph then has at most
#: ``MAX_SIDE * MAX_DEGREE`` edges, whatever the length of its text.
MAX_DEGREE = 64


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
    def shifts(self) -> tuple[int, ...]:
        """The connection set ``B = FIXED_SHIFTS + offsets``."""
        return FIXED_SHIFTS + self.offsets

    @property
    def degree(self) -> int:
        return len(self.shifts)

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
    """Read ``phi <m>: <a_1>,<a_2>,...``, refusing a modulus above
    ``MAX_SIDE`` or a degree above ``MAX_DEGREE`` before any graph is built."""
    body = text.strip()
    if not body.startswith("phi "):
        raise ValueError(f"spec must start with 'phi ': {text!r}")
    head, sep, tail = body[4:].partition(":")
    if not sep:
        raise ValueError(f"spec needs a ':' after the modulus: {text!r}")
    try:
        m = decimal(head.strip())
    except ValueError as exc:
        raise ValueError(f"bad modulus in {text!r}") from exc
    if m > MAX_SIDE:
        raise ValueError(f"modulus {m} above {MAX_SIDE}")
    tail = tail.strip()
    if not tail:
        return PhiSpec(m)
    tokens = tail.split(",")
    if len(FIXED_SHIFTS) + len(tokens) > MAX_DEGREE:
        raise ValueError(f"degree {len(FIXED_SHIFTS) + len(tokens)} above {MAX_DEGREE}")
    try:
        offsets = tuple(decimal(tok.strip()) for tok in tokens)
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
    lists = [[(i + s) % m for s in spec.shifts] for i in range(m)]
    return BipartiteGraph.from_neighbor_lists(lists, m)


def build_phi(m: int) -> BipartiteGraph:
    """The plain 3-regular member of the family (no extra offsets)."""
    return build_phi_spec(PhiSpec(m))


@lru_cache(maxsize=2)
def pair_masks(m: int) -> list[int]:
    """``pair[t]``: the residues ``+-t`` mod m as a bitmask, the two differences
    of shifts ``t`` apart. A negative ``t`` reads the same mask, since
    ``pair[-t]`` is ``pair[m - t]``. The cache keeps the tables of the two
    moduli used last, so a table is rebuilt whenever its modulus comes back
    after two others: each pass over the cap searches d = 5..10, six moduli,
    rebuilds all six."""
    return [(1 << t) | (1 << (-t % m)) for t in range(m)]


def shift_mask(m: int, w: int, shifts) -> int:
    """The residues ``+-(w - b)`` for every ``b`` in ``shifts``: what adding the
    shift ``w`` adds to ``B - B``. Every difference ``w - b`` lies in
    ``(-m, m)``, as it does for shifts in ``[-1, m-2]``."""
    pair = pair_masks(m)
    mask = 0
    for b in shifts:
        mask |= pair[w - b]
    return mask


def difference_mask(m: int, shifts) -> int:
    """``B - B`` mod m as a bitmask: bit ``r`` is set when ``r`` is a difference
    ``s - t`` of two shifts of ``B``. Residue 0 is always in."""
    mask = 1
    for i, s in enumerate(shifts):
        mask |= shift_mask(m, s, shifts[:i])
    return mask


@dataclass(frozen=True)
class ResidueCoverage:
    """The two-step residues ``B - B`` of a spec, reduced mod m, as a bitmask.

    Bit ``r`` of ``mask`` is set when ``r`` is a difference ``s - t`` of
    shifts in ``B = FIXED_SHIFTS + offsets``; residue 0 always is.
    """

    m: int
    mask: int

    @property
    def covered(self) -> frozenset[int]:
        return frozenset(r for r in range(self.m) if self.mask >> r & 1)

    @property
    def full(self) -> bool:
        return self.mask == (1 << self.m) - 1


def two_step_residues(spec: PhiSpec) -> ResidueCoverage:
    """Residues of same-side vertices reachable from ``x_0`` in exactly two steps."""
    return ResidueCoverage(m=spec.m, mask=difference_mask(spec.m, spec.shifts))


def diameter_at_most_3(spec: PhiSpec) -> bool:
    """True iff the two-step residues cover all of Z_m.

    Full coverage puts every same-side pair at distance two and hence every
    cross-side pair within three; a missing residue leaves a same-side pair
    at distance four or more. The exact diameter (2 versus 3) is a separate
    BFS question and is never assumed here.
    """
    return two_step_residues(spec).full
