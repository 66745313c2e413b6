"""Checks of the benchmark's answers against computations made apart from bipmoore.

Search answers are checked against ``reference.json`` (written by
``reference.py``), against the benchmark's own residue arithmetic and against
networkx on the graphs it builds from its own edge lists. Certification
answers are checked against networkx distances, a numpy count of 4-cycles,
an edge-by-edge check of every isomorphism map, affine certificates found by
plain arithmetic, and the paper's facts.

``Checker.check_round`` gives one status per answer: ``ok``, ``raised`` (the
call raised) or ``wrong`` (the answer failed a check). Both of the last two
count as failed operations; ``wrong`` also makes the run incorrect.
"""

from __future__ import annotations

import json
from math import gcd

import networkx as nx
import numpy as np

from reference import REFERENCE_FILE, canonical, cap, covers
from workloads import RECORD_SPECS, spec_edges


def moore_bound_d3(d: int) -> int:
    """Bipartite Moore bound for diameter 3: ``2 * (1 + (d-1) + (d-1)**2)``."""
    return 2 * (1 + (d - 1) + (d - 1) ** 2)


def nx_graph(m_left: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(("L", i) for i in range(m_left))
    g.add_nodes_from(("R", j) for j in range(m_left))
    g.add_edges_from((("L", i), ("R", j)) for i, j in edges)
    return g


def nx_diameter(g: nx.Graph):
    return nx.diameter(g) if nx.is_connected(g) else "inf"


def numpy_four_cycles(n: int, edges) -> int:
    """Sum of C(c, 2) over left-side pairs, c their common neighbours."""
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in edges:
        a[i, j] = 1
    common = (a @ a.T)[np.triu_indices(n, 1)]
    return int((common * (common - 1) // 2).sum())


def affine_certificate(m: int, src: tuple[int, ...], dst: tuple[int, ...]):
    """A unit ``u`` and shift ``c`` with ``u*B_src + c = B_dst`` mod m, or None,
    where ``B`` is ``{0, 1, m-1}`` plus the offsets."""
    b_src = (0, 1, m - 1) + src
    b_dst = frozenset((0, 1, m - 1) + dst)
    for u in range(1, m):
        if gcd(u, m) != 1:
            continue
        for c in range(m):
            if frozenset((u * x + c) % m for x in b_src) == b_dst:
                return u, c
    return None


def map_is_isomorphism(mapping, edges1, edges2, n: int) -> bool:
    """Edge-by-edge check that ``mapping`` (rows ``[side, i, side, j]``) is an
    isomorphism between two bipartite graphs with ``n`` vertices a side."""
    table = {(a, i): (b, j) for a, i, b, j in mapping}
    everything = {(s, k) for s in ("L", "R") for k in range(n)}
    if set(table) != everything or set(table.values()) != everything:
        return False
    if len(set(edges1)) != len(set(edges2)):
        return False
    target = set(edges2)
    for i, j in edges1:
        u, v = table[("L", i)], table[("R", j)]
        if u[0] == v[0]:
            return False
        edge = (u[1], v[1]) if u[0] == "L" else (v[1], u[1])
        if edge not in target:
            return False
    return True


def tally(statuses: list[str]) -> tuple[int, int, bool]:
    """Attempted and failed operations, and whether no answer was wrong."""
    return len(statuses), sum(s != "ok" for s in statuses), "wrong" not in statuses


class Checker:
    """Checks the answers of one workload's rounds."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.reference = json.loads(REFERENCE_FILE.read_text())
        self.messages: list[str] = []
        self._specs: dict[tuple, bool] = {}
        if workload.name == "certify":
            self._prepare_certify()

    # -- entry point --------------------------------------------------------

    def check_round(self, answers: list[dict]) -> list[str]:
        self._context: dict = {}
        return [self._status(a) for a in answers]

    def _status(self, answer: dict) -> str:
        if "error" in answer:
            self.messages.append(f"{answer['op']} {answer['input']} raised {answer['error']}")
            return "raised"
        problem = getattr(self, "_check_" + answer["op"])(answer)
        if problem:
            self.messages.append(f"{answer['op']} {answer['input']}: {problem}")
            return "wrong"
        return "ok"

    # -- search answers -----------------------------------------------------

    def _spec_problem(self, d: int, m: int, spec) -> str | None:
        spec_m, offsets = spec[0], tuple(spec[1])
        key = (d, m, spec_m, offsets)
        if key not in self._specs:
            self._specs[key] = (
                spec_m == m
                and len(offsets) == d - 3
                and list(offsets) == sorted(set(offsets))
                and all(2 <= a <= m - 2 for a in offsets)
                and covers(m, offsets)
                and canonical(m, offsets) == offsets
                and self._nx_degree_diameter(m, offsets) == ({d}, 3)
            )
        return None if self._specs[key] else f"spec {spec} fails coverage, canonicity or diameter 3"

    @staticmethod
    def _nx_degree_diameter(m: int, offsets):
        g = nx_graph(m, spec_edges(m, offsets))
        return {deg for _v, deg in g.degree()}, nx_diameter(g)

    def _solutions_problem(self, d: int, m: int, solutions) -> str | None:
        keys = [tuple(s[1]) for s in solutions]
        if keys != sorted(set(keys)):
            return "solution list is not sorted and duplicate-free"
        for s in solutions:
            problem = self._spec_problem(d, m, s)
            if problem:
                return problem
        expected = self.reference.get(f"{d},{m}")
        if expected is not None and [f"phi {m}: " + ",".join(map(str, k)) for k in keys] != expected:
            return f"solutions differ from the reference ({len(keys)} against {len(expected)})"
        return None

    def _check_search_offsets(self, answer: dict) -> str | None:
        fields = dict(part.split("=") for part in answer["input"].split(",")[:2])
        d, m = int(fields["d"]), int(fields["m"])
        if not answer["exhausted"]:
            return "find-all search did not exhaust its space"
        problem = self._solutions_problem(d, m, answer["solutions"])
        if problem:
            return problem
        if m == cap(d) and d in (6, 7) and answer["solutions"]:
            return f"a ({d},3,-4) graph was reported, against the paper's non-existence"
        if m == cap(d) and d == 5:
            graphs = [nx_graph(m, spec_edges(m, s[1])) for s in answer["solutions"]]
            if not graphs:
                return "no (5,3,-4) graph found"
            if not all(nx.is_isomorphic(graphs[0], g) for g in graphs[1:]):
                return "the (5,3,-4) graphs found are not all isomorphic"
        return None

    def _check_max_m(self, answer: dict) -> str | None:
        d, low, high = self.workload.scan
        exists = [m for m in range(low, high + 1) if self.reference.get(f"{d},{m}")]
        if answer["best_m"] != max(exists) or not answer["conclusive"]:
            return f"best modulus {answer['best_m']} against the reference {max(exists)}"
        best = answer["best_m"]
        if not answer["witnesses"]:
            return "no witness reported"
        for spec in answer["witnesses"]:
            problem = self._spec_problem(d, best, spec)
            if problem:
                return problem
            if f"phi {best}: " + ",".join(map(str, spec[1])) not in self.reference[f"{d},{best}"]:
                return f"witness {spec} is not in the reference solution set"
        return None

    # -- certification answers ----------------------------------------------

    def _prepare_certify(self) -> None:
        self.items = {item.label: item for item in self.inputs.items}
        m0, offsets0 = RECORD_SPECS[0]
        self.record1_edges = spec_edges(m0, offsets0)
        self.record1_diameter = nx_diameter(nx_graph(m0, self.record1_edges))
        self.facts = {}
        for item in self.inputs.items:
            g = nx_graph(item.m, item.edges)
            m, offsets = RECORD_SPECS[item.source]
            self.facts[item.label] = {
                "diameter": nx_diameter(g),
                "girth": nx.girth(g),
                "degrees": {deg for _v, deg in g.degree()},
                "four_cycles": numpy_four_cycles(item.m, item.edges),
                "isomorphic": item.kind != "perturbed"
                and affine_certificate(m, offsets, offsets0) is not None,
            }

    def _check_regularity_check(self, answer: dict) -> str | None:
        degrees = self.facts[answer["input"]]["degrees"]
        if not answer["regular"] or {answer["degree"]} != degrees:
            return f"regularity {answer['regular']}, degree {answer['degree']} against degrees {degrees}"
        return None

    def _check_diameter(self, answer: dict) -> str | None:
        expected = self.facts[answer["input"]]["diameter"]
        return None if answer["value"] == expected else f"{answer['value']} against networkx {expected}"

    def _check_girth(self, answer: dict) -> str | None:
        expected = self.facts[answer["input"]]["girth"]
        return None if answer["value"] == expected else f"{answer['value']} against networkx {expected}"

    def _check_classify_and_decompose(self, answer: dict) -> str | None:
        expected = self.facts[answer["input"]]["four_cycles"]
        if answer["four_cycles"] != expected:
            return f"{answer['four_cycles']} 4-cycles against numpy {expected}"
        return None

    def _check_diameter_at_most_3(self, answer: dict) -> str | None:
        diam = self.facts[answer["input"]]["diameter"]
        expected = diam != "inf" and diam <= 3
        return None if answer["value"] == expected else f"{answer['value']} against BFS diameter {diam}"

    def _check_check_observations(self, answer: dict) -> str | None:
        if "fail" in answer["statuses"]:
            return "an observation failed"
        item = self.items.get(answer["input"])
        if item is not None:  # a record-size graph: defect 32, nothing applies
            defect = moore_bound_d3(self.workload.degree) - 2 * item.m
            if answer["applicable"] or answer["defect"] != defect:
                return f"applicable={answer['applicable']}, defect {answer['defect']} against {defect}"
            return None
        if not answer["applicable"] or answer["defect"] != 4 or "pass" not in answer["statuses"]:
            return "the defect-4 witness does not pass its observations"
        return None

    def _check_find_isomorphism(self, answer: dict) -> str | None:
        label = answer["input"]
        facts = self.facts[label]
        mapping = answer["map"]
        self._context[label] = mapping is not None and map_is_isomorphism(
            mapping, self.record1_edges, self.items[label].edges, self.items[label].m
        )
        if mapping is None:
            if facts["isomorphic"]:
                return "no map found for a graph isomorphic to record 1 by an affine certificate"
            if self.items[label].kind == "perturbed" and facts["diameter"] == self.record1_diameter:
                return "networkx does not confirm that the perturbed diameter differs"
            return None
        if not self._context[label]:
            return "the map fails the edge-by-edge check"
        return None

    def _check_verify_isomorphism(self, answer: dict) -> str | None:
        expected = self._context.get(answer["input"])
        return None if answer["value"] == expected else f"{answer['value']} against own check {expected}"

    def _check_nonexistence_case_audit(self, answer: dict) -> str | None:
        if answer["verdict"] != "nonexistence-confirmed" or answer["implied_optimal_order"] != 80:
            return f"verdict {answer['verdict']}, implied order {answer['implied_optimal_order']}"
        return None
