"""Graph substrate: construction, diameter, girth, regularity, file round trips."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from bipmoore.circulant import PhiSpec, build_phi, build_phi_spec, build_theta, parse_spec
from bipmoore.graphs import (
    INF,
    LEFT,
    MAX_SIDE,
    RIGHT,
    BipartiteGraph,
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


def test_construction_transposes_and_lists_each_row():
    """On seeded random graphs, sides of 0 and 1 vertices included,
    ``right_rows`` is the edge-for-edge transpose of ``left_rows`` and
    ``g.sides`` lists each row's set bits in ascending order."""
    rng = random.Random(20261021)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 9), rng.randint(0, 9)
        g = random_bipartite(rng, n_left, n_right, rng.choice((0.2, 0.5, 0.9)))
        assert (len(g.left_rows), len(g.right_rows)) == (n_left, n_right)
        for j, row in enumerate(g.right_rows):
            assert row == sum(1 << i for i in range(n_left) if g.has_edge(i, j))
        left, right = g.sides
        assert left == tuple(tuple(j for j in range(n_right) if g.has_edge(i, j)) for i in range(n_left))
        assert right == tuple(tuple(i for i in range(n_left) if g.has_edge(i, j)) for j in range(n_right))


def test_invalid_vertex_is_refused():
    g = complete_bipartite(2, 2)
    for v in ((LEFT, 5), (RIGHT, 2), (LEFT, -1), ("Z", 0)):
        with pytest.raises(ValueError):
            g.neighbors(v)
        with pytest.raises(ValueError):
            g.degree(v)


def test_diameter_examples():
    assert diameter(complete_bipartite(4, 4)) == 2
    assert diameter(build_phi_spec(PhiSpec(11, (4,)))) == 3
    two_squares = BipartiteGraph.from_neighbor_lists([[0, 1], [0, 1], [2, 3], [2, 3]], 4)
    assert diameter(two_squares) == INF


def largest_eccentricity(g: BipartiteGraph) -> float:
    """The largest BFS eccentricity, ``INF`` when some source misses a vertex."""
    return max(max(bfs_oracle(g, v).values()) for v in g.vertices())


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
    for n in range(1, 6):
        assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([[]] * n, 0))
        assert_diameter_agrees(BipartiteGraph.from_neighbor_lists([], n))


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 4\nx0: \u0663\n", "line 2: bad index '\u0663'"),  # an Arabic-Indic 3
        ("1 4\nx0: \u00b2\n", "line 2: bad index '\u00b2'"),  # a superscript 2
        ("1 4\nx0: +1\n", "line 2: bad index '+1'"),
        ("1 4\nx0: -0\n", "line 2: bad index '-0'"),
        ("1_0 4\n", "header must hold two integers"),
        ("1 +4\nx0: 0\n", "header must hold two integers"),
        ("-1 4\n", f"vertex counts must lie in 0..{MAX_SIDE}"),
    ],
)
def test_adjacency_parse_takes_only_plain_decimals(text, message):
    """Indices are plain ASCII digits; a header count may also carry a
    ``-``, which reaches the range check."""
    with pytest.raises(ValueError) as caught:
        parse_adjacency(text)
    assert str(caught.value) == message


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("1_0 2\n", "line 1: bad integers"),
        ("+3 0\n", "line 1: bad integers"),
        ("0 \u0663\n", "line 1: bad integers"),
        ("-3 0\n", "line 1: negative index"),
    ],
)
def test_edge_list_takes_only_plain_decimals(text, message):
    with pytest.raises(ValueError) as caught:
        parse_edge_list(text)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_adjacency, f"1 {MAX_SIDE + 1}\nx0: 0\n"),
        (parse_edge_list, f"0 {MAX_SIDE}\n"),
        (parse_adjacency, f"2 {MAX_SIDE + 1}\nx0: {MAX_SIDE}\nx1: {MAX_SIDE}\n"),
    ],
)
def test_parsers_refuse_sides_above_the_cap(parse, text):
    """A file naming more than ``MAX_SIDE`` vertices on a side is refused
    before a graph is built, so the parser allocates only what it reads."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as caught:
            parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == f"vertex counts must lie in 0..{MAX_SIDE}"
    assert peak < 64 * len(text) + 4096


def test_graph_immutability_and_transpose():
    g = build_phi(7)
    t = g.transpose()
    assert t.n_left == g.n_right
    assert t.has_edge(2, 1) == g.has_edge(1, 2)
    with pytest.raises(AttributeError):
        g.n_left = 10
