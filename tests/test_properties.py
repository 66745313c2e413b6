"""Property tests on generated inputs: the all-sources diameter against
breadth-first search, residue coverage against the diameter, the two rules
of ``B - B`` masks the search's child filter rests on, and the pair-keyed
decomposition and repeat relation against the cycle walk they replaced.

Examples are derandomized, so every run checks the same inputs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bipmoore.circulant import PhiSpec, build_phi_spec, diameter_at_most_3, difference_mask, pair_masks, shift_mask
from bipmoore.graphs import BipartiteGraph, diameter
from bipmoore.structure import check_observations, classify_and_decompose, repeat_structure
from oracles import (
    components_oracle,
    cycle_walk_oracle,
    decomposition_oracle,
    diameter_oracle,
    short_cycles_walk,
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
