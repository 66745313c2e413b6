"""
Short-cycle structure and graph certification
=============================================

In a defect-4 graph of diameter 3 every vertex lies on exactly two or three
4-cycles, and the cycles organize into unions whose components are rigid
shapes (5-vertex theta blocks, circulant rings). This script decomposes
concrete graphs, runs the structural consistency checks, and ends with the
isomorphism test, including what it reveals about the three record graphs.
"""

from bipmoore import (
    KNOWN_DEGREE11_SPECS,
    BipartiteGraph,
    PhiSpec,
    build_phi_spec,
    check_observations,
    classify_and_decompose,
    find_isomorphism,
    parse_spec,
    repeat_structure,
    verify_isomorphism,
)

g = build_phi_spec(PhiSpec(11, (4,)))
dec = classify_and_decompose(g)
print("Phi-style graph at m=11 with offset 4 (a genuine defect-4 graph):")
print(f"  {len(dec.labels)} short cycles, all 1-path-labeled:",
      len(dec.s1) == len(dec.labels))
comp = dec.gamma1[0]
print(f"  single component recognized as the circulant ring on m'={comp.m_prime}")

sets = repeat_structure(g, dec.cycles).minimal_closed_sets
print("  minimal closed repeat sets:", sorted(len(s) for s in sets),
      "(one per partite side)")

report = check_observations(g, dec, 4)
print("  observation checks:",
      ", ".join(f"{e.name}={e.status}" for e in report.entries if e.status != "not-applicable"))

# A deliberately corrupted graph: two theta blocks joined branch-to-midpoint.
edges = [(b, mid) for b in (0, 1) for mid in (0, 1, 2)]
edges += [(b, mid) for b in (2, 3) for mid in (3, 4, 5)]
edges.append((0, 3))
bad = BipartiteGraph.from_edges(11, 11, edges)
bad_report = check_observations(bad, classify_and_decompose(bad), 4)
failed = [e for e in bad_report.entries if e.status == "fail"]
print()
print("Corrupted two-theta graph is refuted with a witness edge:")
for entry in failed:
    print(f"  {entry.name}: witness {entry.witness}")

# Isomorphism: exact, with a validated bijection.
print()
graphs = [build_phi_spec(parse_spec(s)) for s in KNOWN_DEGREE11_SPECS]
print("Pairwise isomorphism among the three published degree-11 record graphs:")
for a in range(3):
    for b in range(a + 1, 3):
        mapping = find_isomorphism(graphs[a], graphs[b])
        verified = mapping is not None and verify_isomorphism(graphs[a], graphs[b], mapping)
        print(f"  tuple {a + 1} vs tuple {b + 1}: isomorphic={mapping is not None},"
              f" witness validated={verified}")
print()
print("All three published tuples describe ONE graph up to isomorphism: their")
print("connection sets are affinely equivalent mod 95 (B2 = 32*B1 + 62,")
print("B3 = 69*B1 + 37), contrary to the original non-isomorphism claim.")
