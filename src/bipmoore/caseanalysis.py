"""Feasibility audit for degree-7, diameter-3, defect-4 graphs.

A hypothetical such graph has 82 vertices and every vertex on one or two
short cycles, so its short-cycle structure splits into the 2-path, 1-path
and 0-path unions. Each way those unions could cover the graph is killed by
arithmetic, by an exhaustive offset search, or by a contraction argument;
this module makes every one of those steps a reproducible computation and
reports the conjunction.

Two-step reach limits used by the mixed cases are imported as named
constants (they summarize saturation arguments about hypothetical graphs,
not computations this artifact can rerun); all divisibility, enumeration and
composition steps are computed live. Each audit entry says which: its
provenance is ``imported`` when its verdict rests on those reach constants
or on the known degree-7 facts, and ``computed`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bounds import max_m_upper_bound, moore_bound
from .search import SearchTask, search_offsets

# Per-partite-set two-step reach limits in a degree-7 defect-4 graph.
BRANCH_TO_GAMMA1_REACH = 15
GAMMA1_TO_BRANCH_REACH = 8
NONBRANCH_TO_GAMMA0_REACH = 8
GAMMA1_TO_GAMMA0_REACH = 9
MIXED_CASE_REACH = 23
#: In the three-union case a 1-path-union vertex must reach five specific
#: 2-path-union vertices in two steps but can reach at most four.
GAMMA2_CONTACTS_REQUIRED = 5
GAMMA2_CONTACTS_REACHABLE = 4

# Known degree-7 diameter-3 facts imported as constants: the Moore graph and
# the defect-2 graph do not exist; a defect-6 graph on 80 vertices is known.
DEGREE7_KNOWN_ABSENT_DEFECTS = (0, 2)
DEGREE7_KNOWN_ORDER = 80

THETA_ORDER = 5  # vertices in a 2-path-union component
GAMMA0_BLOCK = 8  # vertices per minimal closed-repeat block in the 0-path union
GAMMA0_MIN_BLOCKS = 3


def enumerate_multisets(
    total: int, min_part: int, max_part: int, n_min: int, n_max: int
) -> list[tuple[int, ...]]:
    """All non-decreasing part lists with the given total, part range and count."""
    if total < min_part or min_part < 1:
        raise ValueError("need total >= min_part >= 1")
    if n_min < 1:
        raise ValueError("need n_min >= 1")
    results: list[tuple[int, ...]] = []

    def extend(remaining: int, start: int, parts: list[int]) -> None:
        if remaining == 0:
            if n_min <= len(parts) <= n_max:
                results.append(tuple(parts))
            return
        if len(parts) >= n_max:
            return
        for p in range(start, min(max_part, remaining) + 1):
            parts.append(p)
            extend(remaining - p, p, parts)
            parts.pop()

    extend(total, min_part, [])
    return results


@dataclass(frozen=True)
class ContractionGraph:
    """One vertex per part; parts joined when one order divides the other
    (quotient capped when ``ratio_cap`` is set)."""

    parts: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    ratio_cap: int | None

    def diameter_at_most_2(self) -> bool:
        n = len(self.parts)
        adj = [set() for _ in range(n)]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        for i in range(n):
            for j in range(i + 1, n):
                if j not in adj[i] and not adj[i] & adj[j]:
                    return False
        return True


def build_contraction(parts, ratio_cap: int | None = None) -> ContractionGraph:
    ordered = tuple(sorted(parts))
    edges = set()
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            if b % a == 0:
                quotient = b // a
            elif a % b == 0:
                quotient = a // b
            else:
                continue
            if ratio_cap is not None and quotient > ratio_cap:
                continue
            edges.add((i, j))
    return ContractionGraph(parts=ordered, edges=frozenset(edges), ratio_cap=ratio_cap)


@dataclass(frozen=True)
class ContractionSurvey:
    feasible: tuple[tuple[int, ...], ...]
    examined: int
    ratio_cap: int | None


def contraction_feasibility(
    total: int = 41,
    min_part: int = 5,
    max_part: int = 36,
    n_min: int = 2,
    n_max: int = 8,
    ratio_cap: int | None = 4,
) -> ContractionSurvey:
    """Which part multisets contract to a graph of diameter at most 2.

    The edge rule joins parts whose orders divide one another with quotient
    at most ``ratio_cap``; for a degree-``d`` defect-4 analysis the sound cap
    is ``d - 3``, and the default matches the degree-7 instance the other
    defaults describe. ``ratio_cap=None`` drops the cap (plain divisibility),
    which admits strictly more edges: at the default instance that uncapped
    rule is *not* empty ({5, 6, 30} contracts to a 2-path), so the cap is
    load-bearing.
    """
    feasible = []
    candidates = enumerate_multisets(total, min_part, max_part, n_min, n_max)
    for parts in candidates:
        if build_contraction(parts, ratio_cap).diameter_at_most_2():
            feasible.append(parts)
    return ContractionSurvey(
        feasible=tuple(feasible), examined=len(candidates), ratio_cap=ratio_cap
    )


@dataclass
class AuditEntry:
    name: str
    claim: str
    values: dict
    status: str  # "pass" | "fail" | "out-of-scope"
    provenance: str  # "computed" | "imported": whether the verdict rests on imported constants

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "values": self.values,
            "provenance": self.provenance,
            "status": self.status,
        }


@dataclass
class AuditReport:
    d: int
    moore_bound: int
    order: int
    entries: tuple[AuditEntry, ...]
    verdict: str  # "nonexistence-confirmed" | "inconclusive"
    implied_optimal_order: int | None

    @property
    def all_pass(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "mooreBound": self.moore_bound,
            "order": self.order,
            "entries": [e.to_dict() for e in self.entries],
            "verdict": self.verdict,
            "impliedOptimalOrder": self.implied_optimal_order,
        }

    def to_text(self) -> str:
        lines = [
            f"defect-4 case audit for degree {self.d}, diameter 3",
            f"  Moore bound: {self.moore_bound}   target order: {self.order}",
        ]
        for e in self.entries:
            lines.append(f"  [{e.status.upper():12s}] {e.name} ({e.provenance}): {e.claim}")
            if e.values:
                parts = ", ".join(f"{k}={v}" for k, v in e.values.items())
                lines.append(f"     {parts}")
        lines.append(f"  verdict: {self.verdict}")
        if self.implied_optimal_order is not None:
            lines.append(
                f"  implied optimum: no order above {self.implied_optimal_order} is attainable,"
                f" matching the known {self.implied_optimal_order}-vertex graph"
            )
        return "\n".join(lines)


def _status(ok: bool) -> str:
    return "pass" if ok else "fail"


def nonexistence_case_audit(
    d: int = 7,
    node_budget: int | None = None,
    workers: int = 1,
) -> AuditReport:
    """Audit every way the short-cycle unions could span a defect-4 graph.

    For ``d=7`` all cases are mechanized and the conjunction proves
    non-existence; for other degrees only the generic arithmetic entries run
    and the mixed cases are out-of-scope, so the verdict stays inconclusive.

    The contraction entry always uses the sound quotient cap ``d - 3`` and
    reports it as ``ratioCap``. Plain divisibility is not sound here: at d=7
    it admits {5, 6, 30} (see ``contraction_feasibility(ratio_cap=None)``).
    """
    if d < 4:
        raise ValueError("audit needs degree at least 4")
    ratio_cap = d - 3
    bound = moore_bound(d, 3)
    order = bound - 4
    half = order // 2
    m_target = max_m_upper_bound(d)
    entries: list[AuditEntry] = []

    # Case: the 2-path union spans the graph.
    entries.append(
        AuditEntry(
            name="gamma2_spanning",
            claim=f"a spanning 2-path union splits into {THETA_ORDER}-vertex blocks,"
            f" so {THETA_ORDER} must divide {order}",
            values={"order": order, "remainder": order % THETA_ORDER},
            status=_status(order % THETA_ORDER != 0),
            provenance="computed",
        )
    )

    # Case: the 1-path union spans with a single component.
    single = search_offsets(
        SearchTask(d=d, m=m_target, mode="find-all", node_budget=node_budget),
        workers=workers,
    )
    entries.append(
        AuditEntry(
            name="gamma1_spanning_single",
            claim=f"no offset tuple at modulus {m_target} covers every two-step residue",
            values={
                "m": m_target,
                "solutions": len(single.solutions),
                "exhausted": single.exhausted,
                "nodesVisited": single.counters.nodes_visited,
            },
            status=_status(single.exhausted and not single.solutions),
            provenance="computed",
        )
    )

    # Case: the 1-path union spans with several components.
    survey = contraction_feasibility(
        total=m_target,
        min_part=5,
        max_part=m_target - 5,
        n_min=2,
        n_max=m_target // 5,
        ratio_cap=ratio_cap,
    )
    entries.append(
        AuditEntry(
            name="gamma1_spanning_multi",
            claim="no admissible component-order multiset contracts to diameter at most 2",
            values={
                "total": m_target,
                "examined": survey.examined,
                "feasible": len(survey.feasible),
                "ratioCap": ratio_cap,
                "feasibleExamples": [list(p) for p in survey.feasible[:5]],
            },
            status=_status(not survey.feasible),
            provenance="computed",
        )
    )

    # Case: the 0-path union spans the graph.
    entries.append(
        AuditEntry(
            name="gamma0_spanning",
            claim=f"a spanning 0-path union comes in {GAMMA0_BLOCK}-vertex blocks,"
            f" so {GAMMA0_BLOCK} must divide {order}",
            values={"order": order, "remainder": order % GAMMA0_BLOCK},
            status=_status(order % GAMMA0_BLOCK != 0),
            provenance="computed",
        )
    )

    if d == 7:
        max_gamma1 = 2 * BRANCH_TO_GAMMA1_REACH
        theta_components = 2 * (GAMMA1_TO_BRANCH_REACH // 2)
        max_gamma2 = THETA_ORDER * theta_components
        entries.append(
            AuditEntry(
                name="gamma2_gamma1_span",
                claim="the 2-path and 1-path unions together cover too few vertices",
                values={
                    "maxGamma1": max_gamma1,
                    "maxGamma2": max_gamma2,
                    "combined": max_gamma1 + max_gamma2,
                    "order": order,
                },
                status=_status(max_gamma1 + max_gamma2 < order),
                provenance="imported",
            )
        )

        min_gamma0 = GAMMA0_BLOCK * GAMMA0_MIN_BLOCKS
        max_gamma0 = 2 * NONBRANCH_TO_GAMMA0_REACH
        entries.append(
            AuditEntry(
                name="gamma2_gamma0_span",
                claim="next to a 2-path union the 0-path union is capped below its minimum size",
                values={"maxGamma0": max_gamma0, "minGamma0": min_gamma0},
                status=_status(max_gamma0 < min_gamma0),
                provenance="imported",
            )
        )

        # 1-path components adjacent to the 0-path union have order 2m' with
        # m' = 4k, 2 <= k <= d-4; an odd-order component would have to divide
        # one of those m'.
        allowed_next_to_gamma0 = [4 * k for k in range(2, d - 4 + 1)]
        odd_divisors = sorted(
            {
                q
                for mp in allowed_next_to_gamma0
                for q in range(5, mp + 1, 2)
                if mp % q == 0
            }
        )
        entries.append(
            AuditEntry(
                name="gamma1_gamma0_span",
                claim="all 1-path components would need even modulus, forcing the order"
                " to be divisible by 4",
                values={
                    "allowedModuliNextToGamma0": allowed_next_to_gamma0,
                    "oddModuliAvailable": odd_divisors,
                    "orderMod4": order % 4,
                },
                status=_status(not odd_divisors and order % 4 != 0),
                provenance="computed",
            )
        )

        # All three unions nonempty.
        gamma0_cap_claim1 = 2 * GAMMA1_TO_GAMMA0_REACH
        from_gamma0 = [4 * k for k in range(2, d - 4 + 1)]
        from_gamma2 = [3 * k for k in range(2, d - 2 + 1)]
        forced_moduli = sorted(set(from_gamma0) & set(from_gamma2))
        component_order = 2 * forced_moduli[0] if len(forced_moduli) == 1 else None
        values: dict = {
            "claim1MaxGamma0": gamma0_cap_claim1,
            "claim1MinGamma0": min_gamma0,
            "claim2Required": GAMMA2_CONTACTS_REQUIRED,
            "claim2Reachable": GAMMA2_CONTACTS_REACHABLE,
            "moduliNextToGamma0": from_gamma0,
            "moduliNextToGamma2": from_gamma2,
            "forcedModuli": forced_moduli,
        }
        ok = (
            gamma0_cap_claim1 < min_gamma0
            and GAMMA2_CONTACTS_REACHABLE < GAMMA2_CONTACTS_REQUIRED
            and component_order is not None
        )
        if component_order is not None:
            # sizes of the 2-path union compatible with the forced component order
            gamma2_candidates = [
                g2
                for g2 in range(10, order - component_order - min_gamma0 + 1, 10)
                if (order - g2) % GAMMA0_BLOCK == 0
            ]
            values["forcedComponentOrder"] = component_order
            values["gamma2Candidates"] = gamma2_candidates
            ok = ok and gamma2_candidates == [10]
            if gamma2_candidates == [10]:
                rest = order - 10
                splits = [
                    (g1, rest - g1)
                    for g1 in range(component_order, rest - min_gamma0 + 1, component_order)
                    if (rest - g1) % GAMMA0_BLOCK == 0 and rest - g1 >= min_gamma0
                ]
                values["splits"] = splits
                per_side_required = [max(g1, g0) // 2 for g1, g0 in splits]
                values["perSideRequired"] = per_side_required
                values["perSideReachable"] = MIXED_CASE_REACH
                ok = ok and all(MIXED_CASE_REACH < need for need in per_side_required)
        entries.append(
            AuditEntry(
                name="gamma2_gamma1_gamma0_span",
                claim="with all three unions present the forced sizes contradict the"
                " two-step reach limits",
                values=values,
                status=_status(ok),
                provenance="imported",
            )
        )

        odd_defects = [e for e in range(1, 6, 2)]
        implied = bound - 6
        entries.append(
            AuditEntry(
                name="optimality",
                claim="with defects 0-5 impossible and defect 4 refuted above, the"
                " largest attainable order is the Moore bound minus 6",
                values={
                    "mooreBound": bound,
                    "oddDefectsImpossible": odd_defects,
                    "knownAbsentDefects": list(DEGREE7_KNOWN_ABSENT_DEFECTS),
                    "impliedOptimalOrder": implied,
                    "knownGraphOrder": DEGREE7_KNOWN_ORDER,
                },
                status=_status(implied == DEGREE7_KNOWN_ORDER),
                provenance="imported",
            )
        )
        implied_optimal = implied if implied == DEGREE7_KNOWN_ORDER else None
    else:
        for name in (
            "gamma2_gamma1_span",
            "gamma2_gamma0_span",
            "gamma1_gamma0_span",
            "gamma2_gamma1_gamma0_span",
            "optimality",
        ):
            entries.append(
                AuditEntry(
                    name=name,
                    claim="two-step reach constants are specific to degree 7",
                    values={},
                    status="out-of-scope",
                    provenance="computed",
                )
            )
        implied_optimal = None

    confirmed = d == 7 and all(e.status == "pass" for e in entries)
    verdict = "nonexistence-confirmed" if confirmed else "inconclusive"
    return AuditReport(
        d=d,
        moore_bound=bound,
        order=order,
        entries=tuple(entries),
        verdict=verdict,
        implied_optimal_order=implied_optimal,
    )
