"""Property tests on generated inputs: each graph's stored neighbour lists
against its rows, the all-sources diameter against breadth-first search,
residue coverage against the diameter, the two rules of ``B - B`` masks the
search's child filter rests on, the pair-keyed decomposition and repeat
relation against the cycle walk they replaced, isomorphism maps against
edge-by-edge validation and brute force, and the map check against the
edge-by-edge one it replaced.

Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from bipmoore.circulant import PhiSpec, build_phi_spec, diameter_at_most_3, difference_mask, pair_masks, shift_mask
from bipmoore.graphs import (
    LEFT,
    RIGHT,
    BipartiteGraph,
    bits,
    diameter,
    format_adjacency,
    parse_adjacency,
    parse_edge_list,
)
from bipmoore.structure import (
    check_observations,
    classify_and_decompose,
    find_isomorphism,
    repeat_structure,
    verify_isomorphism,
)
from oracles import (
    components_oracle,
    cycle_walk_oracle,
    decomposition_oracle,
    diameter_oracle,
    isomorphic_oracle,
    short_cycles_walk,
    verify_isomorphism_oracle,
)

FIXED = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def bipartite_graphs(draw) -> BipartiteGraph:
    n_left = draw(st.integers(0, 9))
    n_right = draw(st.integers(0 if n_left else 1, 9))
    row = st.sets(st.integers(0, n_right - 1)) if n_right else st.just(set())
    rows = draw(st.lists(row, min_size=n_left, max_size=n_left))
    return BipartiteGraph.from_neighbor_lists([sorted(r) for r in rows], n_right)


@st.composite
def phi_specs(draw) -> PhiSpec:
    m = draw(st.integers(5, 60))
    offsets = draw(st.sets(st.integers(2, m - 2), max_size=min(6, m - 3)))
    return PhiSpec(m, tuple(offsets))


def assert_lists_are_rows(g: BipartiteGraph) -> None:
    """``g.sides`` holds, for each row of each side, a tuple of its set bits
    in strictly ascending order."""
    assert type(g.sides) is tuple and len(g.sides) == 2
    for lists, rows in zip(g.sides, (g.left_rows, g.right_rows)):
        assert type(lists) is tuple and len(lists) == len(rows)
        for nbrs, row in zip(lists, rows):
            assert type(nbrs) is tuple
            assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
            assert sum(1 << k for k in nbrs) == row


@FIXED
@given(bipartite_graphs(), st.data())
def test_stored_lists_are_the_rows_set_bits(g, data):
    """Every way to build a graph stores lists that match its rows, and
    graphs with equal rows compare and hash equal whatever their lists."""
    edges = data.draw(st.permutations([(i, j) for i, row in enumerate(g.left_rows) for j in bits(row)]))
    reversed_lists = [sorted(bits(row), reverse=True) for row in g.left_rows]
    same = [
        BipartiteGraph.from_edges(g.n_left, g.n_right, edges),
        BipartiteGraph.from_edges(g.n_left, g.n_right, (edge for edge in edges)),
        BipartiteGraph.from_neighbor_lists((iter(nbrs) for nbrs in reversed_lists), g.n_right),
        parse_adjacency(format_adjacency(g)),
        g.transpose().transpose(),
        pickle.loads(pickle.dumps(g)),
    ]
    assert_lists_are_rows(g)
    assert_lists_are_rows(g.transpose())
    assert g.transpose().sides == g.sides[::-1]
    for h in same:
        assert_lists_are_rows(h)
        assert h == g and hash(h) == hash(g) and h.sides == g.sides
    emptied = replace(g, sides=((), ()))
    assert emptied == g and hash(emptied) == hash(g)
    if edges:
        text = "".join(f"{i} {j}\n" for i, j in edges)
        assert_lists_are_rows(parse_edge_list(text))


@FIXED
@given(phi_specs())
def test_phi_graph_lists_are_the_rows_set_bits(spec):
    assert_lists_are_rows(build_phi_spec(spec))


@FIXED
@given(bipartite_graphs())
def test_diameter_matches_bfs_oracle(g):
    assert diameter(g) == diameter_oracle(g)


@FIXED
@given(phi_specs())
def test_coverage_matches_diameter(spec):
    assert diameter_at_most_3(spec) == (diameter(build_phi_spec(spec)) <= 3)


@st.composite
def shift_sets(draw) -> tuple[int, tuple[int, ...], int, int]:
    """A modulus, a connection set of distinct shifts in ``[-1, m-2]`` and two
    more shifts ``w`` and ``v`` outside it."""
    m = draw(st.integers(5, 60))
    chosen = draw(st.lists(st.integers(-1, m - 2), min_size=2, max_size=min(10, m), unique=True))
    *shifts, w, v = chosen
    return m, tuple(shifts), w, v


@FIXED
@given(shift_sets())
def test_difference_mask_grows_by_the_shift_mask(case):
    """Adding ``w`` to ``B`` adds exactly the residues ``+-(w - b)``."""
    m, shifts, w, _ = case
    assert difference_mask(m, shifts + (w,)) == difference_mask(m, shifts) | shift_mask(m, w, shifts)


@FIXED
@given(shift_sets())
def test_shift_mask_grows_by_one_pair(case):
    """Placing ``v`` extends a candidate ``w``'s mask by the one pair ``+-(w - v)``."""
    m, shifts, w, v = case
    assert shift_mask(m, w, shifts + (v,)) == shift_mask(m, w, shifts) | pair_masks(m)[w - v]


@FIXED
@given(bipartite_graphs())
def test_decomposition_matches_oracle(g):
    dec = classify_and_decompose(g)
    want = decomposition_oracle(g)
    assert dec == want
    walk = cycle_walk_oracle(g)
    assert list(dec.cycles.per_vertex_count.items()) == list(short_cycles_walk(walk)[1].items())
    assert check_observations(g, dec, 4).to_dict() == check_observations(g, want, 4).to_dict()
    repeats = [pair for c in walk for pair in c.repeat_pairs()]
    closed = repeat_structure(g, dec.cycles).minimal_closed_sets
    assert closed == tuple(sorted(components_oracle(repeats), key=min))


@st.composite
def graph_pairs(draw) -> tuple[BipartiteGraph, BipartiteGraph, bool]:
    """A graph, a relabelling of it with its sides kept or swapped, and
    whether one edge of the relabelling was then moved to a non-edge."""
    g = draw(bipartite_graphs())
    left = draw(st.permutations(range(g.n_left)))
    right = draw(st.permutations(range(g.n_right)))
    edges = [(left[i], right[j]) for i in range(g.n_left) for j in g.left_neighbors(i)]
    gaps = sorted({(i, j) for i in range(g.n_left) for j in range(g.n_right)} - set(edges))
    moved = bool(edges and gaps) and draw(st.booleans())
    if moved:
        edges.remove(draw(st.sampled_from(edges)))
        edges.append(draw(st.sampled_from(gaps)))
    h = BipartiteGraph.from_edges(g.n_left, g.n_right, edges)
    return g, h.transpose() if draw(st.booleans()) else h, moved


@FIXED
@given(graph_pairs())
def test_isomorphism_maps_verify_and_match_brute_force(case):
    """Every map passes the edge-by-edge check, a relabelling is always
    matched, and up to 4 + 4 the verdict is brute force's."""
    g, h, moved = case
    mapping = find_isomorphism(g, h)
    assert mapping is not None or moved
    if mapping is not None:
        assert verify_isomorphism(g, h, mapping)
    if g.n_left <= 4 and g.n_right <= 4:
        assert (mapping is not None) == isomorphic_oracle(g, h)


@st.composite
def claimed_maps(draw) -> tuple[BipartiteGraph, BipartiteGraph, dict, str]:
    """A graph, a relabelling of it with its sides kept or swapped, and the
    relabelling's map, either valid or broken one way: two same-side
    vertices' images exchanged, an edge sent inside one side (a left and a
    right vertex's images exchanged), or one vertex missing."""
    g = draw(bipartite_graphs())
    left = draw(st.permutations(range(g.n_left)))
    right = draw(st.permutations(range(g.n_right)))
    edges = [(i, j) for i, row in enumerate(g.left_rows) for j in bits(row)]
    h = BipartiteGraph.from_edges(g.n_left, g.n_right, [(left[i], right[j]) for i, j in edges])
    names = (LEFT, RIGHT)
    if draw(st.booleans()):
        h, names = h.transpose(), (RIGHT, LEFT)
    mapping = {(LEFT, i): (names[0], w) for i, w in enumerate(left)}
    mapping |= {(RIGHT, j): (names[1], w) for j, w in enumerate(right)}
    faults = ["valid", "missing"]
    if max(g.n_left, g.n_right) >= 2:
        faults.append("exchanged")
    if edges and g.n_left >= 2:
        faults.append("edge inside a side")
    fault = draw(st.sampled_from(faults))
    if fault == "missing":
        del mapping[draw(st.sampled_from(sorted(mapping)))]
    elif fault == "exchanged":
        side, n = draw(st.sampled_from([(s, n) for s, n in ((LEFT, g.n_left), (RIGHT, g.n_right)) if n >= 2]))
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        mapping[(side, a)], mapping[(side, b)] = mapping[(side, b)], mapping[(side, a)]
    elif fault == "edge inside a side":
        i, j = draw(st.sampled_from(edges))
        other = draw(st.sampled_from([k for k in range(g.n_left) if k != i]))
        mapping[(RIGHT, j)], mapping[(LEFT, other)] = mapping[(LEFT, other)], mapping[(RIGHT, j)]
    return g, h, mapping, fault


@FIXED
@given(claimed_maps())
def test_verify_isomorphism_matches_edge_by_edge_oracle(case):
    """The row check agrees with the edge-by-edge one on every map; valid
    maps pass, and maps missing a vertex or sending an edge inside one side
    fail."""
    g, h, mapping, fault = case
    verdict = verify_isomorphism(g, h, mapping)
    assert verdict == verify_isomorphism_oracle(g, h, mapping)
    if fault == "valid":
        assert verdict
    elif fault in ("missing", "edge inside a side"):
        assert not verdict
