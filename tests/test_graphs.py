"""Graph substrate: BFS, diameter, girth, regularity, file round trips."""

from __future__ import annotations

import random

import pytest

from bipmoore.circulant import PhiSpec, build_phi, build_phi_spec, build_theta, parse_spec
from bipmoore.graphs import (
    INF,
    LEFT,
    BipartiteGraph,
    bfs_distances,
    diameter,
    format_adjacency,
    girth,
    parse_adjacency,
    parse_edge_list,
    read_adjacency,
    regularity_check,
    write_adjacency,
)
from bipmoore.witnesses import KNOWN_DEGREE11_SPECS
from oracles import bfs_oracle, diameter_oracle, girth_oracle, random_bipartite


def complete_bipartite(a: int, b: int) -> BipartiteGraph:
    return BipartiteGraph.from_neighbor_lists([list(range(b))] * a, b)


def cycle_graph(length: int) -> BipartiteGraph:
    # even cycle: x_i ~ y_i and x_i ~ y_{i-1}
    half = length // 2
    return BipartiteGraph.from_neighbor_lists(
        [sorted({i, (i - 1) % half}) for i in range(half)], half
    )


def test_bfs_complete_bipartite():
    g = complete_bipartite(3, 3)
    profile = bfs_distances(g, (LEFT, 0))
    assert all(d == 1 for d in profile.right_distances)
    assert profile.left_distances[0] == 0
    assert all(profile.left_distances[i] == 2 for i in range(1, 3))
    assert profile.eccentricity == 2


def test_bfs_phi5_eccentricity():
    profile = bfs_distances(build_phi(5), (LEFT, 0))
    assert profile.eccentricity == 3
    assert profile.reachable_at_exactly_2 == {1, 2, 3, 4}


def test_bfs_degree11_witness_eccentricity():
    g = build_phi_spec(parse_spec("phi 95: 4,7,16,27,38,52,62,81"))
    assert bfs_distances(g, (LEFT, 0)).eccentricity == 3


def test_bfs_invalid_vertex():
    g = complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        bfs_distances(g, (LEFT, 5))
    with pytest.raises(ValueError):
        bfs_distances(g, ("Z", 0))


def test_bfs_matches_oracle_on_random_graphs():
    rng = random.Random(20240811)
    for _ in range(25):
        g = random_bipartite(rng, rng.randint(1, 9), rng.randint(1, 9), 0.4)
        for v in g.vertices():
            profile = bfs_distances(g, v)
            expected = bfs_oracle(g, v)
            for w in g.vertices():
                assert profile.distance(w) == expected[w]


def test_bfs_symmetry_and_parity():
    rng = random.Random(7)
    for _ in range(20):
        g = random_bipartite(rng, rng.randint(2, 8), rng.randint(2, 8), 0.5)
        profiles = {v: bfs_distances(g, v) for v in g.vertices()}
        for u in g.vertices():
            for v in g.vertices():
                duv = profiles[u].distance(v)
                assert duv == profiles[v].distance(u)
                if duv != INF:
                    same_side = u[0] == v[0]
                    assert duv % 2 == (0 if same_side else 1)


def test_diameter_examples():
    assert diameter(complete_bipartite(4, 4)) == 2
    assert diameter(build_phi_spec(PhiSpec(11, (4,)))) == 3
    two_squares = BipartiteGraph.from_neighbor_lists([[0, 1], [0, 1], [2, 3], [2, 3]], 4)
    assert diameter(two_squares) == INF


def largest_eccentricity(g: BipartiteGraph) -> float:
    """The largest BFS eccentricity, or ``INF`` when some source misses a vertex."""
    profiles = [bfs_distances(g, v) for v in g.vertices()]
    if any(INF in p.left_distances + p.right_distances for p in profiles):
        return INF
    return max(p.eccentricity for p in profiles)


def assert_diameter_agrees(g: BipartiteGraph) -> float:
    found = diameter(g)
    assert found == diameter_oracle(g) == largest_eccentricity(g)
    return found


def test_diameter_is_max_eccentricity():
    rng = random.Random(99)
    seen = set()
    for _ in range(200):
        g = random_bipartite(
            rng, rng.randint(1, 12), rng.randint(1, 12), rng.choice((0.15, 0.3, 0.5, 0.8))
        )
        seen.add(assert_diameter_agrees(g))
    # the sample reaches disconnected graphs and several finite diameters
    assert INF in seen and {2, 3, 4, 5} <= seen


def test_diameter_one_sided_graphs():
    assert assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([[]], 0)) == 0
    assert assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([], 1)) == 0
    assert assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([[], [], []], 0)) == INF
    assert assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([], 2)) == INF
    assert assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([[0]], 1)) == 1
    assert assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([[0], []], 1)) == INF


def test_diameter_long_cycles():
    for length in range(4, 201, 2):
        g = cycle_graph(length)
        assert diameter(g) == largest_eccentricity(g) == length // 2
        if length % 8 == 0:
            assert diameter_oracle(g) == length // 2


@pytest.mark.parametrize(
    "text, expected",
    [(text, 3) for text in KNOWN_DEGREE11_SPECS] + [("phi 95: 5,7,16,27,38,52,62,81", 4)],
)
def test_diameter_degree11_records(text, expected):
    assert assert_diameter_agrees(build_phi_spec(parse_spec(text))) == expected


def test_diameter_empty_graph():
    g = BipartiteGraph.from_neighbor_lists([], 0)
    with pytest.raises(ValueError):
        diameter(g)


def test_girth_examples():
    assert girth(build_theta(2)) == 4
    assert girth(cycle_graph(6)) == 6
    assert girth(build_theta(4)) == 8
    path = BipartiteGraph.from_neighbor_lists([[0], [0, 1]], 2)
    assert girth(path) == INF


def test_girth_matches_oracle_on_random_graphs():
    rng = random.Random(4242)
    for _ in range(25):
        g = random_bipartite(rng, rng.randint(2, 8), rng.randint(2, 8), 0.45)
        assert girth(g) == girth_oracle(g)


def test_regularity_examples():
    assert regularity_check(build_phi_spec(parse_spec("phi 95: 4,16,30,43,51,62,71,89"))).degree == 11
    theta = regularity_check(build_theta(2))
    assert not theta.regular
    assert (theta.min_degree, theta.max_degree) == (2, 3)
    for m in (5, 9, 17):
        verdict = regularity_check(build_phi(m))
        assert verdict.regular and verdict.degree == 3


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        BipartiteGraph.from_neighbor_lists([[0, 0]], 2)
    with pytest.raises(ValueError):
        BipartiteGraph.from_neighbor_lists([[3]], 2)
    with pytest.raises(ValueError):
        BipartiteGraph.from_edges(1, 2, [(2, 0)])


def test_adjacency_round_trip(tmp_path):
    g = build_phi_spec(PhiSpec(11, (4,)))
    path = tmp_path / "g.adj"
    write_adjacency(g, path)
    again = read_adjacency(path)
    assert again == g
    # bit-exact: rewriting the parsed graph reproduces identical bytes
    assert format_adjacency(again).encode("ascii") == path.read_bytes()


def test_adjacency_format_shape():
    g = BipartiteGraph.from_neighbor_lists([[0, 2], []], 3)
    text = format_adjacency(g)
    assert text == "2 3\nx0: 0 2\nx1:\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\nx0:\nx1:\n",
        "2 2\nx0: 0\n",
        "2 2\nx1: 0\nx0:\n",
        "1 2\nx0: 1 0\n",
        "1 2\nx0: 0 0\n",
        "1 2\nx0: 0 \n",
        "1 2\nx0: 5\n",
    ],
)
def test_adjacency_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_adjacency(text)


def test_edge_list_import():
    text = "# header comment\n0 0\n0 1  # trailing comment\n1 1\n\n2 0\n"
    g = parse_edge_list(text)
    assert (g.n_left, g.n_right) == (3, 2)
    assert g.edge_count == 4
    assert g.has_edge(0, 1) and g.has_edge(2, 0)


@pytest.mark.parametrize("text", ["0 0\n0 0\n", "0\n", "a b\n", "-1 0\n", "# only\n"])
def test_edge_list_rejects(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_graph_immutability_and_transpose():
    g = build_phi(7)
    t = g.transpose()
    assert t.n_left == g.n_right
    assert t.has_edge(2, 1) == g.has_edge(1, 2)
    with pytest.raises(AttributeError):
        g.n_left = 10
