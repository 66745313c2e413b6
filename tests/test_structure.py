"""Cycle structure, decomposition, observation checks, isomorphism."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from bipmoore import structure
from bipmoore.bounds import moore_bound
from bipmoore.circulant import PhiSpec, build_phi, build_phi_spec, build_theta, parse_spec
from bipmoore.graphs import LEFT, RIGHT, BipartiteGraph
from bipmoore.structure import (
    BudgetError,
    check_isomorphism,
    check_observations,
    classify_and_decompose,
    _pair_invariant,
    _recognize_phi,
    _two_step_invariant,
    find_isomorphism,
    repeat_structure,
    short_cycles,
    verify_isomorphism,
)
from bipmoore.witnesses import DEGREE4_WITNESS, DEGREE5_WITNESS, KNOWN_DEGREE11_SPECS
from oracles import (
    components_oracle,
    cycle_walk_oracle,
    decomposition_oracle,
    four_cycles_oracle,
    isomorphic_oracle,
    pair_invariant_oracle,
    pairwise_labels_oracle,
    random_bipartite,
    recognize_phi_oracle,
    short_cycles_walk,
    subgraph_components_oracle,
)


def hexagon() -> BipartiteGraph:
    return BipartiteGraph.from_neighbor_lists([sorted({i, (i - 1) % 3}) for i in range(3)], 3)


def two_thetas_with_cross_edge() -> BipartiteGraph:
    """Two 5-vertex blocks plus a branch-to-nonbranch edge, padded to 22
    vertices so the degree-4 defect-4 checks apply."""
    edges = []
    for branch in (0, 1):
        for mid in (0, 1, 2):
            edges.append((branch, mid))
    for branch in (2, 3):
        for mid in (3, 4, 5):
            edges.append((branch, mid))
    edges.append((0, 3))  # branch of block 1 to non-branch of block 2
    return BipartiteGraph.from_edges(11, 11, edges)


def phi8_with_stray_offset_edge() -> BipartiteGraph:
    """Base circulant on 8 plus one non-shift-invariant chord, padded to the
    degree-4 defect-4 order (22 vertices)."""
    base = build_phi(8)
    lists = [base.left_neighbors(i) for i in range(8)] + [[], [], []]
    lists[0] = sorted(lists[0] + [4])
    return BipartiteGraph.from_neighbor_lists(lists, 11)


def phi5_phi7_bridge() -> BipartiteGraph:
    """Disjoint circulants on 5 and 7 joined by one edge, padded to the
    degree-5 defect-4 order (38 vertices)."""
    g5 = build_phi(5)
    g7 = build_phi(7)
    lists = [g5.left_neighbors(i) for i in range(5)]
    lists += [[j + 5 for j in g7.left_neighbors(i)] for i in range(7)]
    lists += [[]] * 7  # padding left side
    lists[0] = sorted(lists[0] + [5])  # bridge into the 7-block
    return BipartiteGraph.from_neighbor_lists(lists, 19)


# ---------------------------------------------------------------------------
# short cycles
# ---------------------------------------------------------------------------


def test_short_cycle_counts_theta2():
    cs = short_cycles(build_theta(2))
    assert len(cs.cycles) == 3
    assert sorted(cs.per_vertex_count.values()) == [2, 2, 2, 3, 3]


def test_short_cycle_counts_phi5():
    cs = short_cycles(build_phi(5))
    assert len(cs.cycles) == 5
    assert set(cs.per_vertex_count.values()) == {2}


def test_short_cycles_hexagon_empty():
    assert short_cycles(hexagon()).cycles == ()


def test_short_cycles_matches_oracle():
    rng = random.Random(60601)
    for _ in range(25):
        g = random_bipartite(rng, rng.randint(2, 9), rng.randint(2, 9), 0.5)
        got = {(c.left, c.right) for c in short_cycles(g).cycles}
        assert got == four_cycles_oracle(g)


# ---------------------------------------------------------------------------
# repeats
# ---------------------------------------------------------------------------


def test_repeat_involution():
    rng = random.Random(8080)
    graphs = [build_theta(2), build_phi(6), build_phi_spec(PhiSpec(11, (4,)))]
    graphs += [random_bipartite(rng, 7, 7, 0.5) for _ in range(10)]
    for g in graphs:
        for c in short_cycles(g).cycles:
            for v in c.vertices:
                assert c.repeat_of(c.repeat_of(v)) == v


def test_minimal_closed_sets_theta2():
    g = build_theta(2)
    rs = repeat_structure(g, short_cycles(g))
    sizes = sorted(len(s) for s in rs.minimal_closed_sets)
    assert sizes == [2, 3]


@pytest.mark.parametrize("m", [5, 8, 13])
def test_minimal_closed_sets_phi(m):
    g = build_phi(m)
    rs = repeat_structure(g, short_cycles(g))
    assert sorted(len(s) for s in rs.minimal_closed_sets) == [m, m]
    for s in rs.minimal_closed_sets:
        assert len({side for side, _ in s}) == 1


def test_minimal_closed_set_of_four():
    # two disjoint 4-cycles whose vertices are linked through two more cycles
    edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    edges += [(0, 4), (0, 5), (2, 4), (2, 5)]
    edges += [(1, 6), (1, 7), (3, 6), (3, 7)]
    g = BipartiteGraph.from_edges(4, 8, edges)
    rs = repeat_structure(g, short_cycles(g))
    assert frozenset({(LEFT, 0), (LEFT, 1), (LEFT, 2), (LEFT, 3)}) in rs.minimal_closed_sets


def test_minimal_closed_sets_one_partite_side():
    rng = random.Random(2121)
    for _ in range(15):
        g = random_bipartite(rng, rng.randint(3, 8), rng.randint(3, 8), 0.5)
        rs = repeat_structure(g, short_cycles(g))
        for s in rs.minimal_closed_sets:
            assert len({side for side, _ in s}) == 1


def repeat_pairs(cycle: tuple[tuple[int, int], tuple[int, int]]) -> tuple[list, list]:
    left, right = cycle
    return [(LEFT, i) for i in left], [(RIGHT, j) for j in right]


def test_components_match_oracle():
    """Minimal closed sets and the three labeled unions' components against
    breadth-first components of the oracle's cycles."""
    rng = random.Random(3131)
    for _ in range(40):
        g = random_bipartite(rng, rng.randint(3, 10), rng.randint(3, 10), rng.choice((0.3, 0.5)))
        pairs = [pair for c in four_cycles_oracle(g) for pair in repeat_pairs(c)]
        closed = repeat_structure(g, short_cycles(g)).minimal_closed_sets
        assert set(closed) == components_oracle(pairs)
        dec = classify_and_decompose(g)
        labels = pairwise_labels_oracle(g)
        for parts, want in ((dec.gamma2, "s2"), (dec.gamma1, "s1"), (dec.gamma0, "s0")):
            groups = [sum(repeat_pairs(c), []) for c, label in labels.items() if label == want]
            assert {part.vertices for part in parts} == components_oracle(groups)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_phi11_offset4():
    g = build_phi_spec(PhiSpec(11, (4,)))
    dec = classify_and_decompose(g)
    assert len(dec.s1) == 11 and not dec.s2 and not dec.s0
    assert len(dec.gamma1) == 1
    comp = dec.gamma1[0]
    assert comp.recognized and comp.m_prime == 11
    assert dec.v1 == frozenset(g.vertices())
    assert not dec.residue
    assert dec.disjoint


def test_decompose_found_degree5_witness():
    g = build_phi_spec(PhiSpec(19, (5, 8)))
    dec = classify_and_decompose(g)
    assert len(dec.gamma1) == 1
    assert dec.gamma1[0].recognized and dec.gamma1[0].m_prime == 19
    assert dec.v1 == frozenset(g.vertices())
    counts = dec.cycles.per_vertex_count
    assert all(counts[v] == 2 for v in g.vertices())


def test_decompose_theta_components():
    g = two_thetas_with_cross_edge()
    dec = classify_and_decompose(g)
    assert len(dec.gamma2) == 2
    assert all(comp.recognized for comp in dec.gamma2)
    assert {frozenset(v[1] for v in comp.branch if v[0] == LEFT) for comp in dec.gamma2} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }


def test_decompose_cycle_free():
    dec = classify_and_decompose(hexagon())
    assert not dec.cycles.cycles
    assert not dec.gamma2 and not dec.gamma1 and not dec.gamma0
    assert dec.residue == frozenset(hexagon().vertices())


def test_theta3_union_classified_s2():
    # three 4-cycles pairwise sharing 2-paths
    g = build_theta(2)
    dec = classify_and_decompose(g)
    assert len(dec.s2) == 3
    assert dec.gamma2[0].recognized


def cycle_labels(g: BipartiteGraph) -> dict:
    dec = classify_and_decompose(g)
    return dict(zip(((c.left, c.right) for c in dec.cycles.cycles), dec.labels))


def test_labels_match_pairwise_oracle():
    rng = random.Random(4404)
    graphs = [
        random_bipartite(rng, rng.randint(2, 10), rng.randint(2, 10), rng.choice((0.3, 0.5, 0.7)))
        for _ in range(200)
    ]
    graphs += [
        build_theta(2),
        BipartiteGraph.from_neighbor_lists([[0, 1, 2]] * 3, 3),
        build_phi_spec(parse_spec("phi 19: 5,8")),
        build_phi_spec(parse_spec("phi 95: 4,16,27,38,52,62,79,81")),
    ]
    seen: Counter[str] = Counter()
    for g in graphs:
        labels = cycle_labels(g)
        assert labels == pairwise_labels_oracle(g)
        seen.update(labels.values())
    assert min(seen[label] for label in ("s0", "s1", "s2")) > 0
    assert Counter(labels.values()) == {"s2": 1330, "s1": 475}  # the degree-11 graph


def test_unrecognized_phi_component():
    # ladder of three squares: consecutive cycles share one edge but the
    # chain never closes, so circulant recognition must reject it
    lists = [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3]]
    g = BipartiteGraph.from_neighbor_lists(lists, 4)
    dec = classify_and_decompose(g)
    assert len(dec.s1) == 3
    assert len(dec.gamma1) == 1
    assert not dec.gamma1[0].recognized
    assert dec.gamma1[0].m_prime is None


def test_interlocked_cycles_unrecognized_theta():
    # K_{3,3}: nine pairwise 2-path-sharing cycles in one 6-vertex block,
    # which is not a theta shape
    g = BipartiteGraph.from_neighbor_lists([[0, 1, 2]] * 3, 3)
    dec = classify_and_decompose(g)
    assert len(dec.s2) == 9
    assert len(dec.gamma2) == 1
    assert not dec.gamma2[0].recognized


def defect4_half(d: int) -> int:
    """Vertices per side at the degree-``d`` defect-4 order."""
    return (moore_bound(d, 3) - 4) // 2


def planted_blocks(rng: random.Random, d: int) -> BipartiteGraph:
    """Theta, ring (an 8- to 12-cycle), square and circulant blocks planted
    on disjoint random vertices at the degree-``d`` defect-4 order, each
    block in a random side orientation, joined by a few random cross edges."""
    half = defect4_half(d)
    left, right = rng.sample(range(half), half), rng.sample(range(half), half)
    edges: set[tuple[int, int]] = set()
    used_left = used_right = 0
    while True:
        kind = rng.choice(("theta", "ring", "square", "phi"))
        if kind == "theta":
            sides, block = (2, 3), [(b, m) for b in (0, 1) for m in (0, 1, 2)]
        elif kind == "ring":
            k = rng.randint(4, 6)
            sides, block = (k, k), [(i, (i + s) % k) for i in range(k) for s in (0, 1)]
        elif kind == "square":
            sides, block = (2, 2), [(i, j) for i in (0, 1) for j in (0, 1)]
        else:
            m = rng.randint(5, 9)
            spec = PhiSpec(m, (rng.randint(2, m - 2),) if rng.random() < 0.3 else ())
            g = build_phi_spec(spec)
            sides, block = (m, m), [(i, j) for i in range(m) for j in g.left_neighbors(i)]
        if rng.random() < 0.5:
            sides, block = sides[::-1], [(j, i) for i, j in block]
        if used_left + sides[0] > half or used_right + sides[1] > half:
            break
        edges.update((left[used_left + i], right[used_right + j]) for i, j in block)
        used_left += sides[0]
        used_right += sides[1]
    for _ in range(rng.randint(0, 6)):
        edges.add((rng.randrange(half), rng.randrange(half)))
    return BipartiteGraph.from_edges(half, half, edges)


def one_offset_perturbation(rng: random.Random, spec_text: str) -> BipartiteGraph:
    spec = parse_spec(spec_text)
    offsets = list(spec.offsets)
    pos = rng.randrange(len(offsets))
    offsets[pos] = rng.choice([a for a in range(2, spec.m - 1) if a not in offsets])
    return build_phi_spec(PhiSpec(spec.m, tuple(sorted(offsets))))


def decomposition_corpus() -> list[tuple[BipartiteGraph, int]]:
    """Seeded graphs, each with the degree its observations are checked at."""
    rng = random.Random(20261018)
    corpus: list[tuple[BipartiteGraph, int]] = []
    for _ in range(60):
        n_left, n_right = rng.sample(range(0, 13), 2)
        corpus.append((random_bipartite(rng, n_left, n_right, rng.choice((0.2, 0.4, 0.6))), 4))
    for d in (4, 5):
        # disconnected: two random blocks side by side, at the defect-4 order
        half = defect4_half(d)
        cut_left, cut_right = rng.randint(3, half - 3), rng.randint(3, half - 3)
        one = random_bipartite(rng, cut_left, cut_right, 0.4)
        two = random_bipartite(rng, half - cut_left, half - cut_right, 0.4)
        lists = [one.left_neighbors(i) for i in range(one.n_left)]
        lists += [[cut_right + j for j in two.left_neighbors(i)] for i in range(two.n_left)]
        corpus.append((BipartiteGraph.from_neighbor_lists(lists, half), d))
        corpus.append((random_bipartite(rng, half, half, 0.15), d))
    corpus += [
        (BipartiteGraph.from_neighbor_lists([], 0), 4),
        (BipartiteGraph.from_neighbor_lists([], 5), 4),
        (BipartiteGraph.from_neighbor_lists([[]] * 11, 11), 4),
    ]
    for d in (4, 5, 6, 7):
        corpus += [(planted_blocks(rng, d), d) for _ in range(6)]
    records = list(KNOWN_DEGREE11_SPECS)
    corpus += [(build_phi_spec(parse_spec(text)), 11) for text in records]
    corpus += [(one_offset_perturbation(rng, text), 11) for text in records]
    corpus.append((build_phi_spec(parse_spec("phi 95: 4,16,27,38,52,62,79,81")), 11))
    corpus += [(build_phi_spec(parse_spec(DEGREE4_WITNESS)), 4)]
    corpus += [(build_phi_spec(parse_spec(DEGREE5_WITNESS)), 5)]
    return corpus


def test_decomposition_matches_oracle():
    """The pair-keyed decomposition equals the cycle walk it replaced: the
    same ``Decomposition``, the walk's cycles in the walk's order, the walk's
    own per-vertex counts, keyed in the same order, the same minimal closed sets as
    breadth-first components of the walk's repeat pairs, and the same
    observation report."""
    kinds: Counter[str] = Counter()
    cycle_counts = []
    for g, d in decomposition_corpus():
        dec = classify_and_decompose(g)
        want = decomposition_oracle(g)
        assert dec == want
        walk = cycle_walk_oracle(g)
        assert dec.cycles.cycles == tuple(walk)
        assert list(dec.cycles.per_vertex_count.items()) == list(short_cycles_walk(walk)[1].items())
        closed = repeat_structure(g, dec.cycles).minimal_closed_sets
        oracle_sets = components_oracle([pair for c in walk for pair in c.repeat_pairs()])
        assert closed == tuple(sorted(oracle_sets, key=min))
        report = check_observations(g, dec, d)
        assert report.to_dict() == check_observations(g, want, d).to_dict()
        kinds.update(dec.labels)
        kinds.update(
            "recognized" if comp.recognized else "unrecognized" for comp in dec.gamma2 + dec.gamma1
        )
        kinds.update(entry.status for entry in report.entries)
        if d == 11:
            cycle_counts.append(len(dec.cycles.cycles))
    # the corpus reaches every label, both recognition outcomes and every
    # observation outcome, and the degree-11 graphs span 760 to 1,805 cycles
    wanted = ("s2", "s1", "s0", "recognized", "unrecognized", "pass", "fail", "not-applicable")
    assert min(kinds[k] for k in wanted) > 0
    assert min(cycle_counts) == 760 and max(cycle_counts) == 1805


def moved_edge_rings() -> list[BipartiteGraph]:
    """Circulants on 5 to 20 with one edge moved to a random free slot."""
    rng = random.Random(515)
    out = []
    for m in range(5, 21):
        g = build_phi(m)
        edges = [(i, j) for i in range(m) for j in g.left_neighbors(i)]
        edges.remove(rng.choice(edges))
        free = [(i, j) for i in range(m) for j in range(m) if not g.has_edge(i, j)]
        edges.append(rng.choice(free))
        out.append(BipartiteGraph.from_edges(m, m, edges))
    return out


def test_recognize_phi_matches_pairwise_oracle():
    """Circulant recognition by the walk along pair records agrees with the
    pairwise cycle comparison on every 1-path component, fed with the oracle
    decomposition's own edges and cycles, and on the whole cycle set taken
    as one component."""
    graphs = [build_phi(m) for m in range(5, 61)] + moved_edge_rings()
    recognized = 0
    for g in graphs:
        dec = classify_and_decompose(g)
        walk = cycle_walk_oracle(g)
        got = [(comp.recognized, comp.m_prime, comp.x_order, comp.y_order) for comp in dec.gamma1]
        want = [
            recognize_phi_oracle(vertices, edges, [walk[k] for k in indices])
            for vertices, edges, indices in subgraph_components_oracle(walk, decomposition_oracle(g).s1)
        ]
        assert got == want
        whole = recognize_whole_cycle_set(g, dec.cycles.pairs)
        assert whole == recognize_whole_cycle_set_oracle(g, walk)
        recognized += sum(entry[0] for entry in got) + whole[0]
    assert recognized >= 2 * 56


def recognize_whole_cycle_set(g, pairs):
    """``_recognize_phi`` on every cycle taken as one component, over the
    union of the pairs' edges."""
    nbr, comp = [0] * g.order, 0
    for a, b, js in pairs:
        for j in js:
            y = 1 << (g.n_left + j)
            nbr[a] |= y
            nbr[b] |= y
            comp |= 1 << a | 1 << b | y
    return _recognize_phi(comp, nbr, list(pairs), g.n_left)


def recognize_whole_cycle_set_oracle(g, walk):
    edges = frozenset((i, j) for c in walk for i in c.left for j in c.right)
    vertices = frozenset(v for c in walk for v in c.vertices)
    return recognize_phi_oracle(vertices, edges, walk)


def test_recognize_phi_rejects_what_the_walk_does_not_fill():
    """Two graphs whose first pair starts a walk that shares one right vertex
    at every step and never meets a left id on more or fewer than two pairs,
    yet which are no circulant ring. In ``twin``, a ring on five shares its
    right vertex 0 with a second cycle of five pairs on left ids 5-9, so the
    walk closes after five of the ten pairs and fills half the component.
    In ``chord``, the ring on ten gains the edges (0, 5) and (1, 5), so pair
    ``0, 1`` has a third common neighbour, and with every cycle taken as one
    component the walk goes all the way round but ``nbr[0]`` is off the
    pattern."""
    twin = BipartiteGraph.from_neighbor_lists(
        [sorted({(i - 1) % 5, i, (i + 1) % 5}) for i in range(5)]
        + [[0, 5, 8, 9], [0, 5, 6], [5, 6, 7], [6, 7, 8], [7, 8, 9]],
        10,
    )
    ring = build_phi(10)
    chord = BipartiteGraph.from_edges(
        10, 10, [(i, j) for i in range(10) for j in ring.left_neighbors(i)] + [(0, 5), (1, 5)]
    )
    for g in (twin, chord):
        dec = classify_and_decompose(g)
        assert dec == decomposition_oracle(g)
        assert recognize_whole_cycle_set(g, dec.cycles.pairs) == (False, None, (), ())
        assert recognize_whole_cycle_set_oracle(g, cycle_walk_oracle(g)) == (False, None, (), ())
    dec = classify_and_decompose(twin)
    assert [(comp.recognized, len(comp.vertices)) for comp in dec.gamma1] == [(False, 20)]


def test_decomposition_builds_no_cycle_objects(monkeypatch):
    """Decomposing and checking observations read the pair records only:
    they succeed with ``FourCycle`` made unusable, on a graph whose checks
    reach the repeat structure and on a degree-11 record."""
    from bipmoore import structure

    def refuse(*args):
        raise AssertionError("FourCycle built")

    monkeypatch.setattr(structure, "FourCycle", refuse)
    g = build_phi_spec(parse_spec("phi 11: 4"))
    statuses = {e.name: e.status for e in check_observations(g, classify_and_decompose(g), 4).entries}
    assert statuses["closed_set_divisibility"] == "pass"
    g = build_phi_spec(parse_spec(KNOWN_DEGREE11_SPECS[0]))
    dec = classify_and_decompose(g)
    assert len(dec.labels) == 760
    assert not check_observations(g, dec, 11).applicable


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------


def test_observations_pass_on_true_defect4():
    for spec in (PhiSpec(11, (4,)), PhiSpec(19, (5, 8))):
        g = build_phi_spec(spec)
        report = check_observations(g, classify_and_decompose(g), spec.degree)
        assert report.applicable
        assert not report.failures
        shift = next(e for e in report.entries if e.name == "gamma1_shift_invariance")
        assert shift.status == "pass"


def test_observations_not_applicable_on_defect32():
    g = build_phi_spec(parse_spec("phi 95: 4,7,16,27,38,52,62,81"))
    report = check_observations(g, classify_and_decompose(g), 11)
    assert not report.applicable
    assert report.defect == 32
    assert all(e.status == "not-applicable" for e in report.entries)


def test_observation_branch_to_foreign_nonbranch_fails():
    g = two_thetas_with_cross_edge()
    report = check_observations(g, classify_and_decompose(g), 4)
    assert report.applicable
    entry = next(e for e in report.entries if e.name == "no_edge_gamma2_gamma2")
    assert entry.status == "fail"
    assert entry.witness == ["L0", "R3"]


def test_observation_shift_invariance_fails():
    g = phi8_with_stray_offset_edge()
    report = check_observations(g, classify_and_decompose(g), 4)
    assert report.applicable
    entry = next(e for e in report.entries if e.name == "gamma1_shift_invariance")
    assert entry.status == "fail"
    assert entry.witness["edgesWithOffset"] == 1
    assert entry.witness["expected"] == 8


def test_observation_dividing_rings_pass():
    """Circulants on 5 and 10 joined by one edge, at the degree-5 defect-4
    order: the ring orders and the joined closed sets (sizes 5 and 10) divide."""
    g5, g10 = build_phi(5), build_phi(10)
    edges = [(i, j) for i in range(5) for j in g5.left_neighbors(i)]
    edges += [(5 + i, 5 + j) for i in range(10) for j in g10.left_neighbors(i)]
    edges.append((0, 5))
    g = BipartiteGraph.from_edges(19, 19, edges)
    report = check_observations(g, classify_and_decompose(g), 5)
    assert report.applicable
    entries = {e.name: e.status for e in report.entries}
    assert entries["gamma1_gamma1_divisibility"] == "pass"
    assert entries["closed_set_divisibility"] == "pass"


def test_observation_divisibility_fails():
    g = phi5_phi7_bridge()
    report = check_observations(g, classify_and_decompose(g), 5)
    assert report.applicable
    entry = next(e for e in report.entries if e.name == "gamma1_gamma1_divisibility")
    assert entry.status == "fail"
    assert entry.witness["mSmall"] == 5 and entry.witness["mBig"] == 7
    closed = next(e for e in report.entries if e.name == "closed_set_divisibility")
    assert closed.status == "fail"


THETA_L01_R012 = [(b, m) for b in (0, 1) for m in (0, 1, 2)]


def theta_and_phi5_ring() -> BipartiteGraph:
    """A theta on L0,L1 / R0-R2, a circulant on 5 on L2-L6 / R3-R7 and the
    branch-to-ring edge L0-R3, at the degree-4 defect-4 order."""
    phi5 = build_phi(5)
    edges = THETA_L01_R012 + [(2 + i, 3 + j) for i in range(5) for j in phi5.left_neighbors(i)]
    edges.append((0, 3))
    return BipartiteGraph.from_edges(11, 11, edges)


def theta_and_square() -> BipartiteGraph:
    """The same theta, a square on L2,L3 / R3,R4 and the edge L2-R0 from the
    0-path union to a non-branch theta vertex, at the degree-4 defect-4 order."""
    edges = THETA_L01_R012 + [(2, 3), (2, 4), (3, 3), (3, 4), (2, 0)]
    return BipartiteGraph.from_edges(11, 11, edges)


def test_observation_theta_joined_to_ring_fails():
    g = theta_and_phi5_ring()
    report = check_observations(g, classify_and_decompose(g), 4)
    assert report.applicable
    entries = {e.name: e for e in report.entries}
    assert entries["no_edge_gamma2_gamma1"].status == "fail"
    assert entries["no_edge_gamma2_gamma1"].witness == ["L0", "R3"]
    assert entries["gamma2_gamma1_modularity"].status == "fail"
    assert entries["gamma2_gamma1_modularity"].witness == {"mPrime": 5, "edge": ["L0", "R3"]}


def test_observation_theta_joined_to_square_fails():
    g = theta_and_square()
    report = check_observations(g, classify_and_decompose(g), 4)
    assert report.applicable
    entry = next(e for e in report.entries if e.name == "no_edge_gamma2_gamma0")
    assert entry.status == "fail"
    assert entry.witness == ["L2", "R0"]


def degree7_claim_with_small_gamma0() -> BipartiteGraph:
    """Order-82 shell claiming degree 7: two isolated squares (an 8-vertex
    0-path union, below the 24-vertex floor) plus a circulant on 5 touched
    by a 0-path-union vertex. Trips both degree-7 rules about the 0-path
    union."""
    edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    phi5 = build_phi(5)
    edges += [(4 + i, 4 + j) for i in range(5) for j in phi5.left_neighbors(i)]
    edges.append((0, 4))  # 0-path union into the circulant
    return BipartiteGraph.from_edges(41, 41, edges)


def test_observation_gamma0_rules_fail_at_degree7():
    g = degree7_claim_with_small_gamma0()
    report = check_observations(g, classify_and_decompose(g), 7)
    assert report.applicable
    entries = {e.name: e for e in report.entries}
    size = entries["gamma0_size"]
    assert size.status == "fail"
    assert size.witness == {"size": 8}
    modularity = entries["gamma0_gamma1_modularity"]
    assert modularity.status == "fail"
    assert modularity.witness["mPrime"] == 5


def test_observation_json_round_trip():
    g = build_phi_spec(PhiSpec(11, (4,)))
    dec = classify_and_decompose(g)
    payload = dec.to_dict()
    assert set(payload) >= {"cycles", "s2", "s1", "s0", "gamma2", "gamma1", "gamma0"}
    report = check_observations(g, dec, 4).to_dict()
    assert {e["name"] for e in report["observations"]} >= {
        "no_edge_gamma2_gamma2",
        "gamma1_shift_invariance",
        "closed_set_divisibility",
    }


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def test_pair_invariant_matches_nested_loop_oracle():
    rng = random.Random(20261018)
    graphs = []
    for _ in range(60):
        small, large = rng.randint(0, 8), rng.randint(1, 5)
        sides = (small, small + large) if rng.random() < 0.5 else (small + large, small)
        graphs.append(random_bipartite(rng, *sides, rng.choice((0.2, 0.5, 0.8))))
    graphs += [build_theta(2), build_phi_spec(parse_spec(KNOWN_DEGREE11_SPECS[0]))]
    for g in graphs:
        expected = pair_invariant_oracle(g)
        assert _pair_invariant(g) == expected
        assert _pair_invariant(g.transpose()) == expected


def test_negation_pair_isomorphic_with_witness():
    g1 = build_phi_spec(PhiSpec(11, (4,)))
    g2 = build_phi_spec(PhiSpec(11, (7,)))
    mapping = find_isomorphism(g1, g2)
    assert mapping is not None
    assert verify_isomorphism(g1, g2, mapping)


def test_iso_check_payload_and_expectations():
    g1 = build_phi_spec(PhiSpec(11, (4,)))
    result = check_isomorphism(g1, build_phi_spec(PhiSpec(11, (7,))))
    assert result.isomorphic and result.to_text() == "isomorphic"
    payload = result.to_json_dict()
    assert payload["isomorphic"] is True
    assert payload["mapping"] == {f"{v[0]}{v[1]}": f"{w[0]}{w[1]}" for v, w in result.mapping.items()}
    assert len(payload["mapping"]) == 22
    assert result.failures(isomorphic=True) == []
    assert result.failures(non_isomorphic=True) == ["expected non-isomorphic"]
    other = check_isomorphism(g1, build_phi_spec(PhiSpec(19, (5, 8))))
    assert other.to_json_dict() == {"isomorphic": False, "mapping": None}
    assert other.to_text() == "not isomorphic"
    assert other.failures(isomorphic=True, non_isomorphic=True) == ["expected isomorphic"]


def test_different_shapes_not_isomorphic():
    assert find_isomorphism(build_phi(5), build_theta(2)) is None
    assert find_isomorphism(build_phi(5), build_phi(6)) is None


def relabelled(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    """``g`` with both sides renumbered by seeded random permutations."""
    perm_l = rng.sample(range(g.n_left), g.n_left)
    perm_r = rng.sample(range(g.n_right), g.n_right)
    lists: list[list[int]] = [[] for _ in range(g.n_left)]
    for i in range(g.n_left):
        lists[perm_l[i]] = sorted(perm_r[j] for j in g.left_neighbors(i))
    return BipartiteGraph.from_neighbor_lists(lists, g.n_right)


def moved_edge(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    """``g`` with one random edge moved to a random non-edge, when both exist."""
    edges = [(i, j) for i in range(g.n_left) for j in g.left_neighbors(i)]
    gaps = [(i, j) for i in range(g.n_left) for j in range(g.n_right) if not g.has_edge(i, j)]
    if not edges or not gaps:
        return g
    edges.remove(rng.choice(edges))
    return BipartiteGraph.from_edges(g.n_left, g.n_right, edges + [rng.choice(gaps)])


def counted(monkeypatch, name: str) -> list[tuple]:
    """Wrap ``structure.<name>`` so that each call's arguments are recorded."""
    calls: list[tuple] = []
    real = getattr(structure, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structure, name, wrapper)
    return calls


#: Non-isomorphic 4 + 4 pairs, as left neighbour lists, that tie on the
#: edge count and both invariants, so that the search alone must tell them
#: apart; found by enumerating all 4 + 4 graphs.
INVARIANT_TIES = (
    ([[1, 2], [0], [0], []], [[0, 2], [1], [0], []]),
    ([[1, 2, 3], [0], [0], []], [[0, 2, 3], [1], [0], []]),
    ([[1, 2, 3], [0, 1], [0], []], [[0, 1, 3], [1, 2], [0], []]),
    ([[0, 2, 3], [0, 1], [0, 1], []], [[0, 1, 3], [0, 2], [0, 1], []]),
)


def test_find_isomorphism_matches_brute_force_oracle():
    """Verdicts agree with trying every bijection, on relabellings,
    transposes and one-edge moves of tiny random graphs and on invariant
    ties; maps are valid."""
    rng = random.Random(20261019)
    pairs = []
    for _ in range(400):
        g = random_bipartite(rng, rng.randint(1, 4), rng.randint(1, 4), rng.choice((0.3, 0.5, 0.7)))
        h = relabelled(g, rng)
        if rng.random() < 0.5:
            h = h.transpose()
        if rng.random() < 0.7:
            h = moved_edge(h, rng)
        pairs.append((g, h))
    for lists in INVARIANT_TIES:
        a, b = (BipartiteGraph.from_neighbor_lists(nbrs, 4) for nbrs in lists)
        assert _two_step_invariant(a) == _two_step_invariant(b)
        assert _pair_invariant(a) == _pair_invariant(b)
        pairs += [(a, b), (a, relabelled(b, rng).transpose())]
    verdicts = Counter()
    for g, h in pairs:
        expected = isomorphic_oracle(g, h)
        mapping = find_isomorphism(g, h)
        assert (mapping is not None) == expected, (g, h)
        if mapping is not None:
            assert verify_isomorphism(g, h, mapping)
        verdicts[expected] += 1
    assert min(verdicts[True], verdicts[False]) >= 80


def test_relabelled_record_skips_pair_invariant(monkeypatch):
    """The first branch of the search succeeds on a relabelled record, so
    the pair invariant is never computed."""
    record = build_phi_spec(parse_spec(KNOWN_DEGREE11_SPECS[0]))
    rng = random.Random(23)
    pair_calls = counted(monkeypatch, "_pair_invariant")
    for other in (relabelled(record, rng), relabelled(record, rng).transpose()):
        mapping = find_isomorphism(record, other)
        assert mapping is not None and verify_isomorphism(record, other, mapping)
    assert pair_calls == []


def test_perturbed_record_rejected_by_two_step_gate(monkeypatch):
    """Replacing offset 81 by 49 changes the two-step neighbourhood sizes,
    and the gate rejects the pair before any refinement."""
    record = build_phi_spec(parse_spec("phi 95: 4,7,16,27,38,52,62,81"))
    perturbed = build_phi_spec(parse_spec("phi 95: 4,7,16,27,38,49,52,62"))
    assert _two_step_invariant(record) != _two_step_invariant(perturbed)
    refine_calls = counted(monkeypatch, "_refine")
    pair_calls = counted(monkeypatch, "_pair_invariant")
    assert find_isomorphism(record, perturbed) is None
    assert refine_calls == [] and pair_calls == []


def test_pair_invariant_cuts_search_once_per_graph(monkeypatch):
    """Two 3-regular graphs on 5 + 5 vertices that tie on the two-step
    invariant: the first branch fails, and the pair invariant, computed
    once per graph, ends the search."""
    a = BipartiteGraph.from_neighbor_lists(
        [[1, 2, 3], [0, 2, 3], [0, 3, 4], [0, 1, 4], [1, 2, 4]], 5
    )
    b = BipartiteGraph.from_neighbor_lists(
        [[1, 2, 3], [1, 2, 3], [0, 2, 4], [0, 3, 4], [0, 1, 4]], 5
    )
    assert _two_step_invariant(a) == _two_step_invariant(b)
    assert _pair_invariant(a) != _pair_invariant(b)
    pair_calls = counted(monkeypatch, "_pair_invariant")
    assert find_isomorphism(a, b) is None
    assert [args[0] for args in pair_calls] == [a, b]
    assert not isomorphic_oracle(a, b)


def test_isomorphic_pair_found_after_failed_first_branch(monkeypatch):
    """A 4-cycle plus an 8-cycle, and the same with the 8-cycle numbered
    first: individualizing a 4-cycle vertex against 8-cycle vertices fails
    four times before the match. The search order, and so the number of
    refinements and the map, are pinned."""
    g = BipartiteGraph.from_neighbor_lists([[0, 1], [0, 1], [2, 3], [3, 4], [4, 5], [5, 2]], 6)
    h = BipartiteGraph.from_neighbor_lists([[0, 1], [1, 2], [2, 3], [3, 0], [4, 5], [4, 5]], 6)
    refine_calls = counted(monkeypatch, "_refine")
    pair_calls = counted(monkeypatch, "_pair_invariant")
    mapping = find_isomorphism(g, h)
    assert mapping is not None and verify_isomorphism(g, h, mapping)
    assert len(refine_calls) == 9
    assert len(pair_calls) == 2
    shift = {0: 4, 1: 5, 2: 0, 3: 1, 4: 2, 5: 3}
    assert mapping == {(side, k): (side, shift[k]) for side in (LEFT, RIGHT) for k in range(6)}


def test_relabelled_graphs_isomorphic():
    rng = random.Random(123123)
    for _ in range(10):
        g = random_bipartite(rng, rng.randint(2, 7), rng.randint(2, 7), 0.5)
        h = relabelled(g, rng)
        mapping = find_isomorphism(g, h)
        assert mapping is not None
        assert verify_isomorphism(g, h, mapping)


def test_side_swapped_isomorphism():
    g = random_bipartite(random.Random(5150), 6, 6, 0.4)
    mapping = find_isomorphism(g, g.transpose())
    assert mapping is not None
    assert verify_isomorphism(g, g.transpose(), mapping)


def test_iso_symmetry():
    rng = random.Random(777)
    for _ in range(8):
        a = random_bipartite(rng, 5, 5, 0.5)
        b = random_bipartite(rng, 5, 5, 0.5)
        assert (find_isomorphism(a, b) is None) == (find_isomorphism(b, a) is None)
        assert find_isomorphism(a, a) is not None


def test_edge_count_mismatch():
    a = BipartiteGraph.from_neighbor_lists([[0], [1]], 2)
    b = BipartiteGraph.from_neighbor_lists([[0, 1], [1]], 2)
    assert find_isomorphism(a, b) is None


def test_same_degrees_non_isomorphic_pair():
    # 8-cycle vs two 4-cycles: both 2-regular on 4+4
    eight = BipartiteGraph.from_neighbor_lists([sorted({i, (i - 1) % 4}) for i in range(4)], 4)
    squares = BipartiteGraph.from_neighbor_lists([[0, 1], [0, 1], [2, 3], [2, 3]], 4)
    assert find_isomorphism(eight, squares) is None


def test_verify_isomorphism_rejects_bad_maps():
    g1 = build_phi(5)
    g2 = build_phi(5)
    identity = {v: v for v in g1.vertices()}
    assert verify_isomorphism(g1, g2, identity)
    broken = dict(identity)
    broken[(LEFT, 0)], broken[(LEFT, 1)] = broken[(LEFT, 1)], broken[(LEFT, 0)]
    assert not verify_isomorphism(g1, g2, broken)
    # (L, -1) indexes the same row as (L, 1), but it is no vertex of g2
    edges = BipartiteGraph.from_neighbor_lists([[0], [1]], 2)
    identity = {v: v for v in edges.vertices()}
    assert verify_isomorphism(edges, edges, identity)
    assert not verify_isomorphism(edges, edges, {**identity, (LEFT, 1): (LEFT, -1)})
    # a key outside g1 is a wrong answer, not an error
    stray = {**identity, (LEFT, 2): (LEFT, 1)}
    del stray[(LEFT, 1)]
    assert not verify_isomorphism(edges, edges, stray)


def test_iso_budget_cap():
    big = BipartiteGraph.from_neighbor_lists([[]] * 300, 300)
    with pytest.raises(BudgetError):
        find_isomorphism(big, big)


def test_published_degree11_tuples_are_mutually_isomorphic():
    """Computed ground truth: the three record tuples generate one graph up
    to isomorphism (their connection sets are affinely equivalent mod 95),
    contrary to the published non-isomorphism claim. Witnesses are validated
    edge by edge."""
    specs = [
        "phi 95: 4,7,16,27,38,52,62,81",
        "phi 95: 4,16,30,43,51,62,71,89",
        "phi 95: 11,15,21,28,37,40,45,63",
    ]
    graphs = [build_phi_spec(parse_spec(s)) for s in specs]
    for a in range(3):
        for b in range(a + 1, 3):
            mapping = find_isomorphism(graphs[a], graphs[b])
            assert mapping is not None
            assert verify_isomorphism(graphs[a], graphs[b], mapping)


def test_affine_multiplier_equivalence_of_degree11_tuples():
    # explicit multiplier witnesses: B2 = 32*B1 + 62, B3 = 69*B1 + 37 (mod 95)
    m = 95
    base = {0, 1, 94, 4, 7, 16, 27, 38, 52, 62, 81}
    second = {0, 1, 94, 4, 16, 30, 43, 51, 62, 71, 89}
    third = {0, 1, 94, 11, 15, 21, 28, 37, 40, 45, 63}
    assert {(32 * x + 62) % m for x in base} == second
    assert {(69 * x + 37) % m for x in base} == third
