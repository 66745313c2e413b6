"""The benchmark's workloads: seeded inputs and one round of calls into bipmoore.

A round is the whole workload once. ``round`` makes the package calls and
nothing else, each through ``attempt``, which times it and the yardstick loop
just before it for ``wall_s`` and ``cpu_s``; ``answers`` turns the results into
plain data for ``checks`` afterwards. Every call goes
through a module attribute looked up at call time (``search.search_offsets``),
so the tracer in ``spans.py`` sees it when it has wrapped that attribute.

Run ``python3 bench/workloads.py <workload> <seed>`` to import the package,
build the inputs and print ``ready``; ``run.py`` times that to get ``setup_s``.
"""

from __future__ import annotations

import random
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from reference import cap, covers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import ``bipmoore`` from this checkout's ``src``, or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import bipmoore
    except ImportError as exc:
        sys.exit(f"bench: cannot import bipmoore from {SRC}: {exc}")
    if Path(bipmoore.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: bipmoore was imported from {bipmoore.__file__}, not from {SRC}")
    return bipmoore


@dataclass(frozen=True)
class Failed:
    """Stands in for the result of a call that raised."""

    error: str


#: Wall and CPU seconds of every call made through ``attempt``, with the time
#: of ``loop_seconds`` just before the call, in call order; ``run.py`` empties
#: it before each round.
CALL_TIMES: list[tuple[float, float, float]] = []


def loop_seconds() -> float:
    """Time of a fixed pure-Python loop of a few milliseconds: the host's speed
    at this moment, as a yardstick for the calls timed next to it."""
    t0 = time.perf_counter()
    s, xs = 0, list(range(64))
    for i in range(12000):
        s ^= (i * 2654435761) & 0xFFFF
        xs[i & 63] += s & 7
    return time.perf_counter() - t0


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def attempt(fn, *args, **kwargs):
    loop = loop_seconds()
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # an operation that raises counts as failed, the round goes on
        return Failed(f"{type(exc).__name__}: {exc}")
    finally:
        CALL_TIMES.append((time.perf_counter() - t0, cpu_seconds() - c0, loop))


def spec_answer(spec) -> list:
    return [spec.m, list(spec.offsets)]


def search_answer(report) -> dict:
    task = report.task
    return {
        "op": "search_offsets",
        "input": f"d={task.d},m={task.m},{task.mode}",
        "solutions": [spec_answer(s) for s in report.solutions],
        "exhausted": report.exhausted,
    }


def failed_answer(op: str, label: str, result: Failed) -> dict:
    return {"op": op, "input": label, "error": result.error}


# ---------------------------------------------------------------------------
# Search workloads
# ---------------------------------------------------------------------------


class RefuteCap:
    """``search_offsets`` in find-all mode at the cap ``d*d - d - 1``, d = 5..10,
    one worker. The inputs are the paper's computation and ignore the seed."""

    name = "refute-cap"
    degrees = range(5, 11)
    largest_search = (10, cap(10))

    def build(self, seed: int):
        from bipmoore import search

        return [search.SearchTask(d=d, m=cap(d), mode="find-all") for d in self.degrees]

    def round(self, tasks, workers: int = 1):
        from bipmoore import search

        return [attempt(search.search_offsets, task, workers=workers) for task in tasks]

    def answers(self, tasks, results) -> list[dict]:
        out = []
        for task, report in zip(tasks, results):
            if isinstance(report, Failed):
                out.append(failed_answer("search_offsets", f"d={task.d},m={task.m},find-all", report))
            else:
                out.append(search_answer(report))
        return out

    def search_calls(self, tasks, workers: int) -> None:
        self.round(tasks, workers=workers)


class ScanOffcap:
    """``max_m(9)`` scanned down from the cap 71 to its first witness, then
    ``search_offsets(d=8, m=45)`` in find-all mode, both with two workers.
    The inputs ignore the seed."""

    name = "scan-offcap"
    scan = (9, 60, 71)
    offcap = (8, 45)
    workers = 2
    largest_search = (9, 65)

    def build(self, seed: int):
        from bipmoore import search

        d, m = self.offcap
        return search.SearchTask(d=d, m=m, mode="find-all")

    def round(self, task, workers: int | None = None):
        from bipmoore import search

        workers = workers or self.workers
        d, low, high = self.scan
        return (
            attempt(search.max_m, d, low, high, workers=workers),
            attempt(search.search_offsets, task, workers=workers),
        )

    def answers(self, task, results) -> list[dict]:
        scan, report = results
        d, low, high = self.scan
        label = f"d={d},m={low}..{high}"
        if isinstance(scan, Failed):
            out = [failed_answer("max_m", label, scan)]
        else:
            out = [{
                "op": "max_m",
                "input": label,
                "best_m": scan.best_m,
                "witnesses": [spec_answer(s) for s in scan.witnesses],
                "conclusive": scan.conclusive,
            }]
        if isinstance(report, Failed):
            out.append(failed_answer("search_offsets", f"d={task.d},m={task.m},find-all", report))
        else:
            out.append(search_answer(report))
        return out

    def search_calls(self, task, workers: int) -> None:
        self.round(task, workers=workers)


# ---------------------------------------------------------------------------
# Certification workload
# ---------------------------------------------------------------------------

#: The published degree-11 record specs, copied here so that the checker
#: builds its own graphs without the package.
RECORD_SPECS = (
    (95, (4, 7, 16, 27, 38, 52, 62, 81)),
    (95, (4, 16, 30, 43, 51, 62, 71, 89)),
    (95, (11, 15, 21, 28, 37, 40, 45, 63)),
)
#: Defect-4 witnesses at their own degrees, certified by check_observations.
DEFECT4_WITNESSES = ((11, (4,)), (19, (5, 8)))
#: One perturbed record per 4-cycle count (records have 760); the make-up is
#: the same for every seed, only the perturbations drawn differ.
PERTURBED_FOUR_CYCLES = (1235, 1330, 1425, 1520, 1615, 1710, 1805)


def spec_edges(m: int, offsets) -> tuple[tuple[int, int], ...]:
    """Edges ``(i, j)`` meaning ``x_i ~ y_j`` of the spec's graph, by plain arithmetic."""
    shifts = (0, 1, m - 1) + tuple(offsets)
    return tuple((i, (i + s) % m) for i in range(m) for s in shifts)


def haar_four_cycles(m: int, offsets) -> int:
    """4-cycles of the spec's graph from the difference multiset of its connection set.

    ``x_i`` and ``x_{i+t}`` share ``r_t`` neighbours, where ``r_t`` counts
    ordered pairs of the connection set with difference ``t``.
    """
    conn = (0, 1, m - 1) + tuple(offsets)
    r = Counter((a - b) % m for a in conn for b in conn if a != b)
    return m * sum(c * (c - 1) // 2 for c in r.values()) // 2


@dataclass(frozen=True)
class Item:
    """One certify input: its own edge list and the program's graph of it."""

    label: str
    kind: str  # "record" | "relabelled" | "perturbed"
    source: int  # index of the record it comes from
    m: int
    offsets: tuple[int, ...] | None  # the spec, for spec inputs
    edges: tuple[tuple[int, int], ...]
    graph: object


@dataclass(frozen=True)
class CertifyInputs:
    items: tuple[Item, ...]
    record1: object
    witnesses: tuple[tuple[str, int, object], ...]  # (label, degree, graph)


def relabelled_edges(edges, m: int, rng: random.Random, swap: bool):
    left = list(range(m))
    right = list(range(m))
    rng.shuffle(left)
    rng.shuffle(right)
    if swap:
        return tuple(sorted((right[j], left[i]) for i, j in edges))
    return tuple(sorted((left[i], right[j]) for i, j in edges))


def perturbations(rng: random.Random):
    """Draw one-offset perturbations of the records, one per count in
    ``PERTURBED_FOUR_CYCLES``; every one of them misses full coverage."""
    wanted = set(PERTURBED_FOUR_CYCLES)
    chosen = {}
    while wanted:
        source = rng.randrange(len(RECORD_SPECS))
        m, offsets = RECORD_SPECS[source]
        pos = rng.randrange(len(offsets))
        value = rng.randrange(2, m - 1)
        if value in offsets:
            continue
        new = tuple(sorted(offsets[:pos] + (value,) + offsets[pos + 1:]))
        count = haar_four_cycles(m, new)
        if count in wanted and not covers(m, new):
            wanted.discard(count)
            chosen[count] = (source, m, new)
    return [chosen[c] for c in PERTURBED_FOUR_CYCLES]


class Certify:
    """A seeded batch of 190-vertex degree-11 graphs: the three records,
    two seeded relabellings of each (one with the sides swapped) and seven
    seeded one-offset perturbations; then the two defect-4 witnesses and the
    degree-7 audit."""

    name = "certify"
    degree = 11
    largest_search = (7, cap(7))

    def build(self, seed: int) -> CertifyInputs:
        from bipmoore import circulant, graphs

        rng = random.Random(seed)
        items = []
        for k, (m, offsets) in enumerate(RECORD_SPECS):
            edges = spec_edges(m, offsets)
            graph = circulant.build_phi_spec(circulant.PhiSpec(m, offsets))
            items.append(Item(f"record-{k + 1}", "record", k, m, offsets, edges, graph))
        for k, (m, offsets) in enumerate(RECORD_SPECS):
            for swap in (False, True):
                edges = relabelled_edges(spec_edges(m, offsets), m, rng, swap)
                graph = graphs.BipartiteGraph.from_edges(m, m, edges)
                label = f"record-{k + 1}-relabelled" + ("-swapped" if swap else "")
                items.append(Item(label, "relabelled", k, m, None, edges, graph))
        for source, m, offsets in perturbations(rng):
            graph = circulant.build_phi_spec(circulant.PhiSpec(m, offsets))
            label = f"phi {m}: " + ",".join(map(str, offsets))
            items.append(Item(label, "perturbed", source, m, offsets, spec_edges(m, offsets), graph))
        witnesses = tuple(
            (f"phi {m}: " + ",".join(map(str, offsets)), 3 + len(offsets),
             circulant.build_phi_spec(circulant.PhiSpec(m, offsets)))
            for m, offsets in DEFECT4_WITNESSES
        )
        return CertifyInputs(tuple(items), items[0].graph, witnesses)

    def round(self, inputs: CertifyInputs):
        from bipmoore import caseanalysis, circulant, graphs, structure

        results = []
        for item in inputs.items:
            g = item.graph
            res = {
                "regularity_check": attempt(graphs.regularity_check, g),
                "diameter": attempt(graphs.diameter, g),
                "girth": attempt(graphs.girth, g),
            }
            dec = attempt(structure.classify_and_decompose, g)
            res["classify_and_decompose"] = dec if isinstance(dec, Failed) else len(dec.cycles.cycles)
            res["check_observations"] = dec if isinstance(dec, Failed) else attempt(
                structure.check_observations, g, dec, self.degree
            )
            del dec
            if item.offsets is not None:
                res["diameter_at_most_3"] = attempt(
                    circulant.diameter_at_most_3, circulant.PhiSpec(item.m, item.offsets)
                )
            mapping = attempt(structure.find_isomorphism, inputs.record1, g)
            res["find_isomorphism"] = mapping
            if mapping is not None and not isinstance(mapping, Failed):
                res["verify_isomorphism"] = attempt(
                    structure.verify_isomorphism, inputs.record1, g, mapping
                )
            results.append(res)
        for _label, d, g in inputs.witnesses:
            dec = attempt(structure.classify_and_decompose, g)
            results.append(dec if isinstance(dec, Failed) else attempt(structure.check_observations, g, dec, d))
        results.append(attempt(caseanalysis.nonexistence_case_audit, 7))
        return results

    def answers(self, inputs: CertifyInputs, results) -> list[dict]:
        out = []
        n = len(inputs.items)
        for item, res in zip(inputs.items, results[:n]):
            for op, value in res.items():
                if isinstance(value, Failed):
                    out.append(failed_answer(op, item.label, value))
                    continue
                answer = {"op": op, "input": item.label}
                if op == "regularity_check":
                    answer["regular"], answer["degree"] = value.regular, value.degree
                elif op in ("diameter", "girth"):
                    answer["value"] = "inf" if value == float("inf") else int(value)
                elif op == "classify_and_decompose":
                    answer["four_cycles"] = value
                elif op == "check_observations":
                    answer.update(observations_answer(value))
                elif op == "find_isomorphism":
                    answer["map"] = None if value is None else sorted(
                        [v[0], v[1], w[0], w[1]] for v, w in value.items()
                    )
                else:  # diameter_at_most_3, verify_isomorphism
                    answer["value"] = value
                out.append(answer)
        for (label, _d, _g), report in zip(inputs.witnesses, results[n:n + 2]):
            if isinstance(report, Failed):
                out.append(failed_answer("check_observations", label, report))
            else:
                out.append({"op": "check_observations", "input": label, **observations_answer(report)})
        audit = results[-1]
        if isinstance(audit, Failed):
            out.append(failed_answer("nonexistence_case_audit", "d=7", audit))
        else:
            out.append({
                "op": "nonexistence_case_audit",
                "input": "d=7",
                "verdict": audit.verdict,
                "implied_optimal_order": audit.implied_optimal_order,
            })
        return out

    def search_calls(self, inputs, workers: int) -> None:
        from bipmoore import search

        d, m = self.largest_search
        search.search_offsets(search.SearchTask(d=d, m=m, mode="find-all"), workers=workers)


def observations_answer(report) -> dict:
    return {
        "applicable": report.applicable,
        "defect": report.defect,
        "statuses": [e.status for e in report.entries],
    }


WORKLOADS = {w.name: w for w in (RefuteCap(), ScanOffcap(), Certify())}


if __name__ == "__main__":
    import_package()
    WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    print("ready", flush=True)
