"""Circulant-family builders, residue coverage, canonical forms."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from bipmoore.circulant import (
    PhiSpec,
    build_phi,
    build_phi_spec,
    build_theta,
    canonicalize,
    diameter_at_most_3,
    difference_mask,
    format_spec,
    parse_spec,
    two_step_residues,
)
from bipmoore.graphs import LEFT, RIGHT, BipartiteGraph, bfs_distances, check_graph, diameter, girth, regularity_check
from bipmoore.structure import short_cycles, verify_isomorphism
from oracles import diameter_oracle, two_step_residues_oracle


def test_theta_shapes():
    theta2 = build_theta(2)
    assert theta2.order == 5
    assert sorted(theta2.degrees()) == [2, 2, 2, 3, 3]
    assert len(short_cycles(theta2).cycles) == 3
    assert girth(theta2) == 4
    theta4 = build_theta(4)
    assert theta4.order == 11
    assert girth(theta4) == 8
    theta3 = build_theta(3)
    assert theta3.order == 8
    with pytest.raises(ValueError):
        build_theta(1)


def test_phi_base_family():
    phi5 = build_phi(5)
    assert phi5.order == 10
    assert regularity_check(phi5).degree == 3
    assert diameter(phi5) == 3
    counts = short_cycles(phi5).per_vertex_count
    assert all(counts[v] == 2 for v in phi5.vertices())
    from bipmoore.bounds import moore_bound

    assert build_phi(41).order == moore_bound(7, 3) - 4
    with pytest.raises(ValueError):
        build_phi(4)


def test_phi_spec_construction():
    g = build_phi_spec(parse_spec("phi 95: 4,7,16,27,38,52,62,81"))
    assert g.order == 190
    assert regularity_check(g).degree == 11
    g2 = build_phi_spec(PhiSpec(11, (4,)))
    assert g2.order == 22
    assert regularity_check(g2).degree == 4
    with pytest.raises(ValueError):
        PhiSpec(12, (4, 4))
    with pytest.raises(ValueError):
        PhiSpec(12, (1,))
    with pytest.raises(ValueError):
        PhiSpec(12, (11,))
    with pytest.raises(ValueError):
        PhiSpec(4, ())


def test_spec_offsets_sorted():
    assert PhiSpec(20, (9, 3, 7)).offsets == (3, 7, 9)


def test_two_step_residue_examples():
    cov = two_step_residues(PhiSpec(11, (4,)))
    assert cov.covered == frozenset(range(11))
    assert cov.full
    cov12 = two_step_residues(PhiSpec(12, (4,)))
    assert frozenset(range(12)) - cov12.covered == {6}
    assert not cov12.full
    cov5 = two_step_residues(PhiSpec(5))
    assert cov5.covered == frozenset(range(5))
    assert cov5.full


def test_multiset_size_identity():
    rng = random.Random(1000003)
    for _ in range(100):
        m = rng.randint(5, 80)
        n_offsets = rng.randint(0, min(6, m - 3))
        offsets = tuple(rng.sample(range(2, m - 1), n_offsets))
        spec = PhiSpec(m, offsets)
        d = spec.degree
        repeats = sum(c - 1 for c in two_step_residues_oracle(m, spec.offsets) if c)
        assert len(two_step_residues(spec).covered) + repeats == d * d - d - 1


def _random_spec(rng: random.Random, max_m: int, max_offsets: int) -> PhiSpec:
    m = rng.randint(5, max_m)
    n_offsets = rng.randint(0, min(max_offsets, m - 3))
    return PhiSpec(m, tuple(rng.sample(range(2, m - 1), n_offsets)))


def test_residue_counts_match_written_out_formula():
    rng = random.Random(20261018)
    small = 0
    for _ in range(600):
        spec = _random_spec(rng, 60, 8)
        small += spec.m <= 12
        counts = two_step_residues_oracle(spec.m, spec.offsets)
        assert two_step_residues(spec).covered == {r for r, c in enumerate(counts) if c}, spec
    assert small >= 50  # moduli where residues of different shifts collide


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_singer_difference_sets_give_moore_graphs(q):
    """A set ``B`` of ``q + 1`` residues whose differences cover ``Z_m``,
    ``m = q*q + q + 1``, is a perfect difference set, and ``x_i ~ y_{i+b}`` is
    the incidence graph of a projective plane: a bipartite Moore graph of
    degree ``q + 1`` and diameter 3, with girth 6."""
    m = q * q + q + 1
    full = (1 << m) - 1
    shifts = next(
        (0, 1, *rest) for rest in combinations(range(2, m), q - 1) if difference_mask(m, (0, 1, *rest)) == full
    )
    g = BipartiteGraph.from_neighbor_lists([sorted((i + b) % m for b in shifts) for i in range(m)], m)
    check = check_graph(g)
    assert check.regularity.degree == q + 1
    assert check.defect is not None and check.defect.defect == 0
    assert check.girth == 6
    assert not short_cycles(g).pairs


def test_covered_residues_are_common_neighbours_in_the_graph():
    """``r`` is covered iff ``x_0`` and ``x_r`` share a neighbour (``r = 0`` always)."""
    rng = random.Random(4242)
    for _ in range(200):
        spec = _random_spec(rng, 40, 6)
        g = build_phi_spec(spec)
        around_x0 = set(g.left_neighbors(0))
        shared = {r for r in range(spec.m) if around_x0 & set(g.left_neighbors(r))}
        assert two_step_residues(spec).covered == {0} | shared, spec


def test_diameter_test_examples():
    assert diameter_at_most_3(parse_spec("phi 95: 11,15,21,28,37,40,45,63"))
    assert not diameter_at_most_3(PhiSpec(12, (4,)))
    assert diameter_at_most_3(PhiSpec(11, (4,)))


def test_coverage_equals_bfs_diameter_sample():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(5, 40)
        n_offsets = rng.randint(0, min(5, m - 3))
        spec = PhiSpec(m, tuple(rng.sample(range(2, m - 1), n_offsets)))
        assert diameter_at_most_3(spec) == (diameter_oracle(build_phi_spec(spec)) <= 3)


def test_coverage_equals_bfs_diameter_exhaustive_small_moduli():
    checked = 0
    for m in range(5, 22):
        for n_offsets in range(3):
            for offsets in combinations(range(2, m - 1), n_offsets):
                spec = PhiSpec(m, offsets)
                assert diameter_at_most_3(spec) == (diameter(build_phi_spec(spec)) <= 3), spec
                checked += 1
    assert checked == 1156


def test_canonicalize():
    assert canonicalize(PhiSpec(11, (7,))) == PhiSpec(11, (4,))
    assert canonicalize(PhiSpec(11, (4,))) == PhiSpec(11, (4,))
    big = parse_spec("phi 95: 4,7,16,27,38,52,62,81")
    assert canonicalize(big) == big
    assert big.negated().offsets == (14, 33, 43, 57, 68, 79, 88, 91)
    # idempotence on random specs
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(5, 50)
        k = rng.randint(1, min(4, m - 3))
        spec = PhiSpec(m, tuple(rng.sample(range(2, m - 1), k)))
        once = canonicalize(spec)
        assert canonicalize(once) == once
        assert once in (spec, spec.negated())


def test_spec_text_round_trip():
    for text in ("phi 5:", "phi 11: 4", "phi 95: 4,7,16,27,38,52,62,81"):
        assert format_spec(parse_spec(text)) == text
    assert parse_spec("phi 19:  5 , 8 ") == PhiSpec(19, (5, 8))
    for bad in ("psi 5:", "phi x: 3", "phi 11; 4", "phi 11: a"):
        with pytest.raises(ValueError):
            parse_spec(bad)


def test_negation_isomorphism_with_witness():
    rng = random.Random(31337)
    for _ in range(8):
        m = rng.randint(5, 16)
        k = rng.randint(0, min(2, m - 3))
        spec = PhiSpec(m, tuple(rng.sample(range(2, m - 1), k)))
        g = build_phi_spec(spec)
        h = build_phi_spec(spec.negated())
        witness = {}
        for i in range(m):
            witness[(LEFT, i)] = (LEFT, (-i) % m)
            witness[(RIGHT, i)] = (RIGHT, (-i) % m)
        assert verify_isomorphism(g, h, witness)


def test_vertex_transitivity_surrogate():
    for spec in (PhiSpec(11, (4,)), PhiSpec(19, (5, 8))):
        g = build_phi_spec(spec)
        eccs = {bfs_distances(g, v).eccentricity for v in g.vertices()}
        assert len(eccs) == 1
        profiles = {
            tuple(sorted(g.degree(w) for w in g.neighbors(v))) for v in g.vertices()
        }
        assert len(profiles) == 1


def test_neighbor_shift_surrogate():
    spec = PhiSpec(19, (5, 8))
    g = build_phi_spec(spec)
    base = g.left_neighbors(0)
    for k in range(spec.m):
        shifted = sorted((j + k) % spec.m for j in base)
        assert g.left_neighbors(k) == shifted
